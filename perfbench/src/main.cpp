/// \file main.cpp
/// \brief Benchmark program entry point.
///
///   perfbench --workload <cold_estimate|warm_explore|served_mixed>
///                    --seed <n> --seconds <s> --trace <0|1>
///                    [--small] [--work-dir <dir>] [--bin-dir <dir>]
///   perfbench --selftest [--work-dir <dir>]
///
/// With --trace 0 the named workload runs its timed loop and reports the
/// end-to-end metrics.  With --trace 1 the traced passes of all three
/// workloads run (each layer is measured on the workload that exercises
/// it) and the per-layer metrics are reported; the spans are written as
/// Chrome trace-event JSON under the work directory.  The last line of
/// standard output is always the JSON result object.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "common.h"
#include "trace.h"

namespace perfbench {

int run_selftest(const Options& options);

double self_peak_rss_mb() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

/// Format a double with every digit needed to round-trip.
std::string format_double(double value) {
    char text[64];
    std::snprintf(text, sizeof text, "%.17g", value);
    return text;
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload <cold_estimate|warm_explore|served_mixed> --seed <n> "
                 "--seconds <s> --trace <0|1> [--small] [--work-dir <dir>] [--bin-dir <dir>]\n"
                 "       %s --selftest [--work-dir <dir>]\n",
                 argv0, argv0);
    return 2;
}

std::string json_escape(const std::string& text) {
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\') out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
}

void print_result(const RunResult& result, Checker& checker) {
    for (const Metric& m : result.metrics) {
        checker.expect(std::isfinite(m.value), "metric " + m.name + " is not finite");
    }
    for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
    for (const std::string& failure : checker.failures()) {
        std::printf("# CHECK FAILED: %s\n", failure.c_str());
    }
    std::printf("# %zu output checks, %zu failed\n", checker.checks(),
                checker.failures().size());
    std::string json = "{\"correct\": ";
    json += checker.ok() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric& m = result.metrics[i];
        if (i > 0) json += ", ";
        json += "\"" + json_escape(m.name) + "\": {\"value\": " +
                format_double(std::isfinite(m.value) ? m.value : 0.0) + ", \"unit\": \"" +
                json_escape(m.unit) + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

/// Append \p part to \p total (metrics, counts, notes).
void merge(RunResult& total, RunResult part) {
    total.attempted += part.attempted;
    total.failed += part.failed;
    for (Metric& m : part.metrics) total.metrics.push_back(std::move(m));
    for (std::string& n : part.notes) total.notes.push_back(std::move(n));
}

/// Self time of every traced layer, as note lines.
void add_self_time_notes(RunResult& result) {
    for (const auto& [name, t] : trace::layer_totals()) {
        char line[256];
        std::snprintf(line, sizeof line,
                      "layer %-26s calls %6llu  self %10.6f s  total %10.6f s  allocs %llu",
                      name.c_str(), static_cast<unsigned long long>(t.calls), t.self_s,
                      t.total_s, static_cast<unsigned long long>(t.allocs));
        result.notes.push_back(line);
    }
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Options options;
    bool selftest = false;
    bool have_workload = false;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", arg.c_str());
                std::exit(usage(argv[0]));
            }
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                options.workload = value();
                have_workload = true;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value());
                have_seed = true;
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value());
                have_seconds = true;
            } else if (arg == "--trace") {
                const std::string t = value();
                if (t != "0" && t != "1") return usage(argv[0]);
                options.trace = t == "1";
                have_trace = true;
            } else if (arg == "--small") {
                options.small = true;
            } else if (arg == "--selftest") {
                selftest = true;
            } else if (arg == "--work-dir") {
                options.work_dir = value();
            } else if (arg == "--bin-dir") {
                options.bin_dir = value();
            } else {
                return usage(argv[0]);
            }
        } catch (const std::exception&) {
            return usage(argv[0]);
        }
    }
    std::filesystem::create_directories(options.work_dir);
    if (selftest) return run_selftest(options);
    if (!have_workload || !have_seed || !have_seconds || !have_trace) return usage(argv[0]);

    using Workload = RunResult (*)(const Options&, Checker&);
    const std::map<std::string, Workload> timed = {{"cold_estimate", run_cold_estimate},
                                                   {"warm_explore", run_warm_explore},
                                                   {"served_mixed", run_served_mixed}};
    const auto it = timed.find(options.workload);
    if (it == timed.end()) {
        std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
        return usage(argv[0]);
    }

    Checker checker;
    RunResult result;
    try {
        if (options.trace) {
            merge(result, trace_cold_estimate(options, checker));
            merge(result, trace_warm_explore(options, checker));
            merge(result, trace_served_mixed(options, checker));
            add_self_time_notes(result);
            const std::string path = options.work_dir + "/trace-" + options.workload + "-" +
                                     std::to_string(options.seed) + ".json";
            trace::write_chrome_trace(path);
            result.notes.push_back("chrome trace written to " + path);
        } else {
            result = it->second(options, checker);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
        return 1;
    }
    print_result(result, checker);
    return 0;
}
