/// \file selftest.cpp
/// \brief The benchmark's own tests of its checks and quantile rule.
///
/// Every output check must pass on a real output and fail when that output
/// is perturbed (an estimate, a count or an id); the tail rule must need 40
/// samples and leave exactly 10 beyond the tail.
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "benchgen/suite.h"
#include "checks.h"
#include "common.h"
#include "core/engine.h"
#include "core/explore.h"
#include "parser/io.h"
#include "pipeline/pipeline.h"
#include "stats.h"
#include "synth/ft_synth.h"

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++g_failures;
}

/// The check passes on the real value and fails on the perturbed one.
void expect_detects(const std::string& what, const std::function<void(Checker&)>& good,
                    const std::function<void(Checker&)>& perturbed) {
    Checker pass;
    good(pass);
    expect(pass.ok() && pass.checks() > 0, what + ": passes on the real output");
    Checker fail;
    perturbed(fail);
    expect(!fail.ok(), what + ": fails on the perturbed output");
}

void test_tail_rule() {
    std::vector<double> samples;
    for (int i = 1; i <= 39; ++i) samples.push_back(i);
    expect(!tail(samples).has_value(), "no tail below 40 samples");
    samples.push_back(40);
    const auto t = tail(samples);
    expect(t.has_value() && t->value == 30.0 && t->samples == 40,
           "tail of 1..40 is 30, with 10 samples beyond it");
    std::size_t beyond = 0;
    for (double s : samples) beyond += t && s > t->value ? 1 : 0;
    expect(beyond == kTailBeyond, "exactly 10 samples beyond the tail");
    for (int i = 41; i <= 1000; ++i) samples.push_back(i);
    const auto big = tail(samples);
    expect(big && big->value == 990.0 && std::abs(big->percentile - 99.0) < 1e-9,
           "tail of 1..1000 is p99 = 990");
    expect(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0, 2.0, 3.0}) == 2.5,
           "median of odd and even counts");
}

void test_cold_checks(const Options& options) {
    const std::string path = options.work_dir + "/selftest_ham15.ft.qasm";
    const leqa::synth::FtSynthResult ft =
        leqa::synth::ft_synthesize(leqa::benchgen::make_benchmark("ham15"));
    leqa::parser::save_netlist(ft.circuit, path);
    leqa::pipeline::Pipeline pipeline;
    const auto result = pipeline.run(leqa::pipeline::EstimationRequest(
        leqa::pipeline::CircuitSource::from_path(path)));
    const EstimateView real{result.estimate->latency_us, result.estimate->l_cnot_avg_us,
                            result.estimate->l_one_qubit_avg_us};
    Checker reader;
    const FtNetlist netlist = read_ft_netlist(path, reader);
    expect(reader.ok() && netlist.gates.size() == result.circuit.ft_ops,
           "own FT reader counts the pipeline's FT ops");

    EstimateView off_d = real;
    off_d.latency_us *= 1.0 + 1e-7;
    expect_detects("Eq. 1 check (perturbed D)",
                   [&](Checker& c) { check_eq1(netlist, real, "ham15", c); },
                   [&](Checker& c) { check_eq1(netlist, off_d, "ham15", c); });
    EstimateView off_l = real;
    off_l.l_cnot_avg_us *= 1.01;
    expect_detects("Eq. 1 check (perturbed L_CNOT^avg)",
                   [&](Checker& c) { check_eq1(netlist, real, "ham15", c); },
                   [&](Checker& c) { check_eq1(netlist, off_l, "ham15", c); });
    const double d = real.latency_us;
    expect_detects("source-form identity (perturbed D)",
                   [&](Checker& c) { check_forms_identical({d, d, d}, {5308, 5308, 5308}, "f", c); },
                   [&](Checker& c) {
                       check_forms_identical({d, d, std::nextafter(d, 2 * d)}, {5308, 5308, 5308},
                                             "f", c);
                   });
    expect_detects("source-form identity (perturbed count)",
                   [&](Checker& c) { check_forms_identical({d, d, d}, {5308, 5308, 5308}, "f", c); },
                   [&](Checker& c) { check_forms_identical({d, d, d}, {5308, 5308, 5309}, "f", c); });
    expect_detects("Table 2 op count (perturbed count)",
                   [&](Checker& c) {
                       check_table2_ft_ops("gf2^64mult", 61629, c);
                       check_table2_ft_ops("gf2^256mult", 983805, c);
                   },
                   [&](Checker& c) { check_table2_ft_ops("gf2^64mult", 61630, c); });
}

void test_warm_checks() {
    leqa::pipeline::Pipeline pipeline;
    const auto source = leqa::pipeline::CircuitSource::from_bench("ham15");
    leqa::core::ExplorationSpec spec;
    spec.sides = {24, 48};
    spec.capacities = {1, 2, 5};
    spec.speeds = {0.0005, 0.001, 0.002};
    const leqa::core::ExplorationResult result = pipeline.explore(source, spec);
    std::vector<DesignPoint> points;
    for (const auto& p : result.points) {
        points.push_back({static_cast<int>(p.params.topology), p.params.width, p.params.height,
                          p.params.nc, p.params.v, p.estimate.latency_us});
    }
    std::vector<DesignPoint> bumped = points;
    bumped.back().latency_us = bumped.front().latency_us * 2; // largest Nc and v, same side
    expect_detects("monotonicity in Nc and v (perturbed estimate)",
                   [&](Checker& c) { check_monotone(points, "ham15", c); },
                   [&](Checker& c) { check_monotone(bumped, "ham15", c); });

    const auto& point = result.points[4];
    const double single = leqa::core::EstimationEngine(point.params)
                              .estimate(pipeline.resolve(source)->profile())
                              .latency_us;
    expect_detects("explore point vs single-point estimate (perturbed estimate)",
                   [&](Checker& c) { check_point_identity(point.estimate.latency_us, single, "p", c); },
                   [&](Checker& c) {
                       check_point_identity(std::nextafter(point.estimate.latency_us, 0.0),
                                            single, "p", c);
                   });
}

void test_served_checks() {
    const std::string good = "{\"id\":7,\"result\":{\"x\":1}}";
    expect_detects("response id (perturbed id)",
                   [&](Checker& c) { check_response(7, good, c); },
                   [&](Checker& c) { check_response(8, good, c); });
    expect_detects("response error",
                   [&](Checker& c) { check_response(7, good, c); },
                   [&](Checker& c) {
                       check_response(7, "{\"id\":7,\"error\":{\"code\":\"Internal\"}}", c);
                   });
    const double value = 19459379.218512345;
    expect_detects("wire equality (perturbed estimate)",
                   [&](Checker& c) { check_wire_equal(19459379.2185, value, "e", c); },
                   [&](Checker& c) { check_wire_equal(19459379.2186, value, "e", c); });
    expect_detects("optimize never worsens (perturbed estimate)",
                   [&](Checker& c) { check_optimize(100.0, 100.0, "o", c); },
                   [&](Checker& c) { check_optimize(100.0, 100.000001, "o", c); });
    expect_detects("stats completed count (perturbed count)",
                   [&](Checker& c) { check_completed(42, 42, c); },
                   [&](Checker& c) { check_completed(41, 42, c); });
}

} // namespace

int run_selftest(const Options& options) {
    test_tail_rule();
    test_cold_checks(options);
    test_warm_checks();
    test_served_checks();
    std::printf("%d failed\n", g_failures);
    return g_failures == 0 ? 0 : 1;
}

} // namespace perfbench
