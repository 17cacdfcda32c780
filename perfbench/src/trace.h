/// \file trace.h
/// \brief Spans and allocation counts for the traced run.
///
/// Spans are recorded by the benchmark around its own calls into each
/// module's public functions (the library itself is not instrumented).
/// Each span keeps its name, start, end, parent span and operation id; all
/// spans stay in memory and are written once, at the end, as Chrome
/// trace-event JSON.  Allocation counts come from the benchmark's replacement
/// `operator new`, counted process-wide while tracing is enabled, so a span
/// around a multi-threaded call also counts its workers' allocations.
///
/// Spans must be opened and closed on the thread that enabled tracing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

/// Cumulative allocation counters (calls to operator new and their bytes).
struct AllocCounts {
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
};

/// Process-wide allocations counted so far (only while enabled).
[[nodiscard]] AllocCounts alloc_counts();

/// Turn span recording and allocation counting on or off.
void set_enabled(bool enabled);
[[nodiscard]] bool enabled();

/// Start a new operation: spans opened from now on carry its id, which is
/// unique within the process.
void begin_operation();

struct SpanRecord {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = root
    std::uint64_t op = 0;
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;
};

/// RAII span: opened on construction, closed on destruction.  A no-op
/// while tracing is disabled.
class Span {
public:
    explicit Span(std::string name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&&) = delete;
    Span& operator=(Span&&) = delete;

private:
    std::size_t index_ = 0;
    bool active_ = false;
    std::uint32_t saved_parent_ = 0;
    AllocCounts start_allocs_;
};

/// Totals of every span with one name.
struct LayerTotals {
    std::uint64_t calls = 0;
    double total_s = 0.0; ///< summed span durations
    double self_s = 0.0;  ///< total minus time covered by child spans
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;
};

/// Spans recorded so far, in opening order.
[[nodiscard]] const std::vector<SpanRecord>& spans();

/// Per-name totals over the recorded spans.
[[nodiscard]] std::map<std::string, LayerTotals> layer_totals();

/// Write the recorded spans as Chrome trace-event JSON.
void write_chrome_trace(const std::string& path);

} // namespace perfbench::trace
