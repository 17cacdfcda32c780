#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

std::vector<SpanRecord> g_spans;
std::uint32_t g_current = 0; ///< id of the innermost open span
std::uint64_t g_operation = 0;

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void count_allocation(std::size_t size) {
    if (g_enabled.load(std::memory_order_relaxed)) {
        g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
        g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    }
}

void* allocate(std::size_t size) {
    count_allocation(size);
    if (size == 0) size = 1;
    for (;;) {
        if (void* p = std::malloc(size)) return p;
        std::new_handler handler = std::get_new_handler();
        if (handler == nullptr) throw std::bad_alloc();
        handler();
    }
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
    count_allocation(size);
    const auto alignment = static_cast<std::size_t>(align);
    std::size_t rounded = (size + alignment - 1) / alignment * alignment;
    if (rounded == 0) rounded = alignment;
    for (;;) {
        if (void* p = std::aligned_alloc(alignment, rounded)) return p;
        std::new_handler handler = std::get_new_handler();
        if (handler == nullptr) throw std::bad_alloc();
        handler();
    }
}

} // namespace

AllocCounts alloc_counts() {
    return {g_alloc_calls.load(std::memory_order_relaxed),
            g_alloc_bytes.load(std::memory_order_relaxed)};
}

void set_enabled(bool enabled) { g_enabled.store(enabled, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void begin_operation() { ++g_operation; }

Span::Span(std::string name) {
    if (!enabled()) return;
    active_ = true;
    index_ = g_spans.size();
    SpanRecord record;
    record.name = std::move(name);
    record.id = static_cast<std::uint32_t>(g_spans.size() + 1);
    record.parent = g_current;
    record.op = g_operation;
    saved_parent_ = g_current;
    g_current = record.id;
    g_spans.push_back(std::move(record));
    // Read the counters last so the span's own bookkeeping is not counted.
    start_allocs_ = alloc_counts();
    g_spans[index_].start_ns = now_ns();
}

Span::~Span() {
    if (!active_) return;
    const std::int64_t end = now_ns();
    const AllocCounts end_allocs = alloc_counts();
    SpanRecord& record = g_spans[index_];
    record.end_ns = end;
    record.allocs = end_allocs.calls - start_allocs_.calls;
    record.alloc_bytes = end_allocs.bytes - start_allocs_.bytes;
    g_current = saved_parent_;
}

const std::vector<SpanRecord>& spans() { return g_spans; }

std::map<std::string, LayerTotals> layer_totals() {
    std::vector<double> child_s(g_spans.size() + 1, 0.0);
    for (const SpanRecord& span : g_spans) {
        child_s[span.parent] += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
    std::map<std::string, LayerTotals> totals;
    for (const SpanRecord& span : g_spans) {
        LayerTotals& layer = totals[span.name];
        const double duration = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
        layer.calls += 1;
        layer.total_s += duration;
        layer.self_s += duration - child_s[span.id];
        layer.allocs += span.allocs;
        layer.alloc_bytes += span.alloc_bytes;
    }
    return totals;
}

void write_chrome_trace(const std::string& path) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
        return;
    }
    const std::int64_t origin = g_spans.empty() ? 0 : g_spans.front().start_ns;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < g_spans.size(); ++i) {
        const SpanRecord& s = g_spans[i];
        char line[512];
        std::snprintf(line, sizeof line,
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                      "\"op\":%llu,\"allocs\":%llu,\"alloc_bytes\":%llu}}",
                      i == 0 ? "" : ",", s.name.c_str(),
                      static_cast<double>(s.start_ns - origin) * 1e-3,
                      static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id, s.parent,
                      static_cast<unsigned long long>(s.op),
                      static_cast<unsigned long long>(s.allocs),
                      static_cast<unsigned long long>(s.alloc_bytes));
        out << line;
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace perfbench::trace

// Counting replacements of the global allocation functions.  Every
// operator new form funnels into allocate()/allocate_aligned(); the
// matching deletes release with free().
void* operator new(std::size_t size) { return perfbench::trace::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::trace::allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return perfbench::trace::allocate(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return perfbench::trace::allocate(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new(std::size_t size, std::align_val_t align) {
    return perfbench::trace::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return perfbench::trace::allocate_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
