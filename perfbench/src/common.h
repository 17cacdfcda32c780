/// \file common.h
/// \brief Shared types of the benchmark program: run options, the result
///        every workload returns, and the output-check recorder.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Small mode: tiny circuits and a fraction of a second per workload,
    /// running the same code paths (the benchmark's own tests use it).
    bool small = false;
    /// Directory (inside the checkout) for generated inputs and traces.
    std::string work_dir = ".bench_build/work";
    /// Directory holding the leqa_server binary.
    std::string bin_dir = ".bench_build/leqa";
};

/// One reported metric.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Records the outcome of every output check; a run is correct when no
/// check failed.  Failure messages are printed before the result line.
class Checker {
public:
    /// Record one check; returns \p ok.
    bool expect(bool ok, const std::string& what);

    [[nodiscard]] bool ok() const { return failures_.empty(); }
    [[nodiscard]] std::size_t checks() const { return checks_; }
    [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

private:
    std::size_t checks_ = 0;
    std::vector<std::string> failures_;
};

/// What one workload run produces.
struct RunResult {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /// Human-readable lines printed ahead of the JSON result line
    /// (sample counts, tail percentiles, per-layer self times).
    std::vector<std::string> notes;

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/// The workloads.  Each runs its timed loop (trace off) or its traced pass
/// (trace on) and records every output check in \p checker.
RunResult run_cold_estimate(const Options& options, Checker& checker);
RunResult run_warm_explore(const Options& options, Checker& checker);
RunResult run_served_mixed(const Options& options, Checker& checker);

/// Traced passes: per-layer metrics of the layers each workload exercises.
RunResult trace_cold_estimate(const Options& options, Checker& checker);
RunResult trace_warm_explore(const Options& options, Checker& checker);
RunResult trace_served_mixed(const Options& options, Checker& checker);

/// Peak resident set of this process in MB (getrusage).
double self_peak_rss_mb();

} // namespace perfbench
