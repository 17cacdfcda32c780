/// \file heap.h
/// \brief Process heap policy for the estimation sessions.
#pragma once

namespace leqa::util {

/// Keep freed heap memory in the process instead of handing it back to
/// the kernel after every request.  Idempotent; returns whether the
/// policy is in force (false off glibc, or when mallopt refuses it).
///
/// A cold estimate allocates about 100 bytes per FT op (25 MB for
/// gf2^128mult) and frees all of it when its session ends.  glibc's
/// default, self-tuning thresholds unmap any block larger than the largest
/// one freed so far and return the top of the heap to the kernel whenever
/// more than twice that size sits free there, so the next estimate
/// re-faults the pages it touches: about 440 minor faults per estimate on
/// average over a mix of suite circuits and 2,700 for gf2^128mult, at 1-2
/// us each in a VM and with a cost that follows the host's load.  Fixed
/// thresholds (blocks up to 32 MiB come from the heap, and up to 128 MiB
/// of free heap stays mapped) let every estimate after the first large one
/// reuse pages already faulted in: the process keeps its peak heap instead
/// of re-faulting it.
bool retain_freed_heap();

} // namespace leqa::util
