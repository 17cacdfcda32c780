#include "util/heap.h"

#include <cstdlib> // defines __GLIBC__ on glibc

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace leqa::util {

bool retain_freed_heap() {
#if defined(__GLIBC__)
    // Setting either threshold also stops glibc's self-tuning, so both are
    // fixed together, once per process.
    static const bool in_force = mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 &&
                                 mallopt(M_TRIM_THRESHOLD, 128 << 20) == 1;
    return in_force;
#else
    return false;
#endif
}

} // namespace leqa::util
