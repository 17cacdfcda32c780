/// \file warm.cpp
/// \brief Workload `warm_explore`: one warm session, a seeded rotation of
///        Pipeline::explore calls.
///
/// Set-up resolves the working set (circuit, graphs, profile) into the
/// session cache; the timed calls then run only the parameter stage and
/// the explorer.  Calls over the small ham15 are most of the calls; calls
/// over gf2^64mult and gf2^128mult carry most of the points.  Each call
/// evaluates a fixed cross-product (topology x side x Nc x v) large enough
/// that per-call thread start-up is a small share of it; the seed fixes the
/// call order and jitters the v axis, neither of which changes the amount
/// of work.
///
/// The calls run on one worker.  With 2 workers, every call hands half of
/// its geometry groups to a freshly started thread, and on a shared VM the
/// wait for that thread's CPU made the median call 1.8x slower in some
/// 30-second runs than in others, while single-threaded work moved by a
/// few percent.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "core/engine.h"
#include "core/explore.h"
#include "pipeline/pipeline.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using leqa::fabric::TopologyKind;

struct WarmCircuit {
    std::string name;
    int calls = 1;          ///< explore calls per round
    std::vector<int> sides; ///< side axis
    std::vector<int> nc;    ///< Nc axis
    int speeds = 1;         ///< v axis length
};

const std::vector<WarmCircuit> kCircuits = {
    {"ham15", 4, {24, 32, 48, 64}, {1, 2, 3, 4, 6, 8}, 8},
    {"gf2^64mult", 1, {24, 32, 48, 64}, {1, 2, 3, 4, 5, 6, 8, 10}, 18},
    {"gf2^128mult", 1, {24, 32, 48, 64}, {1, 2, 3, 4, 5, 6, 8, 10}, 10}};
const std::vector<WarmCircuit> kSmallCircuits = {
    {"ham15", 2, {24, 48}, {1, 4}, 2}, {"gf2^16mult", 1, {24, 32}, {1, 2, 5}, 3}};

constexpr std::size_t kWorkers = 1;
constexpr int kSetupRepeats = 3;

const std::vector<WarmCircuit>& circuits(const Options& options) {
    return options.small ? kSmallCircuits : kCircuits;
}

/// The call's cross-product; v values are a seeded jitter of a fixed
/// logarithmic grid, so every call does the same amount of work.
leqa::core::ExplorationSpec make_spec(const WarmCircuit& circuit, std::mt19937_64& rng) {
    leqa::core::ExplorationSpec spec;
    spec.topologies = {TopologyKind::Grid, TopologyKind::Torus, TopologyKind::Line};
    spec.sides = circuit.sides;
    spec.capacities = circuit.nc;
    std::uniform_real_distribution<double> jitter(0.9, 1.1);
    double v = 0.0001;
    for (int i = 0; i < circuit.speeds; ++i, v *= 1.25) spec.speeds.push_back(v * jitter(rng));
    std::sort(spec.speeds.begin(), spec.speeds.end());
    spec.threads = kWorkers;
    return spec;
}

leqa::pipeline::CircuitSource source_of(const WarmCircuit& circuit) {
    return leqa::pipeline::CircuitSource::from_bench(circuit.name);
}

/// A fresh session with every circuit resolved and profiled.
std::unique_ptr<leqa::pipeline::Pipeline> warm_session(const Options& options) {
    auto pipeline = std::make_unique<leqa::pipeline::Pipeline>();
    for (const WarmCircuit& c : circuits(options)) {
        (void)pipeline->resolve(source_of(c))->profile();
    }
    return pipeline;
}

std::vector<DesignPoint> design_points(const leqa::core::ExplorationResult& result) {
    std::vector<DesignPoint> points;
    points.reserve(result.points.size());
    for (const leqa::core::SweepPoint& p : result.points) {
        points.push_back({static_cast<int>(p.params.topology), p.params.width,
                          p.params.height, p.params.nc, p.params.v, p.estimate.latency_us});
    }
    return points;
}

/// Property checks on one call's result: monotone in Nc and v, and one
/// seeded point bit-identical to a single-point engine estimate.
void check_call(const leqa::pipeline::CachedCircuit& circuit,
                const leqa::core::ExplorationResult& result, std::mt19937_64& rng,
                const std::string& label, Checker& checker) {
    check_monotone(design_points(result), label, checker);
    if (result.points.empty()) return;
    const leqa::core::SweepPoint& point = result.points[rng() % result.points.size()];
    const leqa::core::EstimationEngine engine(point.params);
    check_point_identity(point.estimate.latency_us,
                         engine.estimate(circuit.profile()).latency_us, label, checker);
}


} // namespace

RunResult run_warm_explore(const Options& options, Checker& checker) {
    RunResult out;
    std::vector<double> setups;
    std::unique_ptr<leqa::pipeline::Pipeline> session;
    for (int i = 0; i < kSetupRepeats; ++i) {
        session.reset();
        const auto start = Clock::now();
        session = warm_session(options);
        setups.push_back(std::chrono::duration<double>(Clock::now() - start).count());
    }
    const auto& list = circuits(options);
    std::vector<leqa::pipeline::CachedCircuitPtr> cached;
    for (const WarmCircuit& c : list) cached.push_back(session->resolve(source_of(c)));

    std::mt19937_64 rng(options.seed);
    std::mt19937_64 check_rng(options.seed ^ 0x5eedULL);
    std::vector<double> call_s;
    std::vector<double> ns_per_ft_op;
    double total_s = 0.0;
    double total_points = 0.0;
    double total_ft_op_points = 0.0;
    std::size_t rounds = 0;
    double elapsed = 0.0;
    do {
        std::vector<std::size_t> order;
        for (std::size_t c = 0; c < list.size(); ++c) {
            for (int k = 0; k < list[c].calls; ++k) order.push_back(c);
        }
        std::shuffle(order.begin(), order.end(), rng);
        for (std::size_t c : order) {
            const leqa::core::ExplorationSpec spec = make_spec(list[c], rng);
            ++out.attempted;
            try {
                const auto start = Clock::now();
                const leqa::core::ExplorationResult result =
                    session->explore(source_of(list[c]), spec);
                const double s = std::chrono::duration<double>(Clock::now() - start).count();
                elapsed += s;
                const double points = static_cast<double>(result.points.size());
                const double ft_ops = static_cast<double>(cached[c]->info().ft_ops);
                call_s.push_back(s);
                ns_per_ft_op.push_back(s * 1e9 / ft_ops);
                total_s += s;
                total_points += points;
                total_ft_op_points += ft_ops * points;
                check_call(*cached[c], result, check_rng, list[c].name, checker);
            } catch (const std::exception& e) {
                ++out.failed;
                checker.expect(false, std::string("explore threw: ") + e.what());
            }
        }
        ++rounds;
    } while (elapsed < options.seconds);
    // Checks run between calls, outside the timed calls; `elapsed` counts
    // only timed calls so the run measures --seconds of exploring.
    const double peak_rss = self_peak_rss_mb();

    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", peak_rss, "MB");
    add_median_and_tail(out, "op_p50_s", "op_tail_s", call_s, "s");
    add_median_and_tail(out, "ns_per_ft_op_p50", "ns_per_ft_op_tail", ns_per_ft_op, "ns");
    out.add("ft_ops_per_s", total_s > 0 ? total_ft_op_points / total_s : 0.0, "1/s");
    out.add("points_per_s", total_s > 0 ? total_points / total_s : 0.0, "1/s");
    out.add("requests_per_s", total_s > 0 ? static_cast<double>(call_s.size()) / total_s : 0.0,
            "1/s");
    out.notes.push_back("warm_explore: " + std::to_string(rounds) + " rounds, " +
                        std::to_string(call_s.size()) + " explore calls, " +
                        std::to_string(static_cast<long long>(total_points)) + " points");
    return out;
}

RunResult trace_warm_explore(const Options& options, Checker& checker) {
    RunResult out;
    const std::unique_ptr<leqa::pipeline::Pipeline> session = warm_session(options);
    std::mt19937_64 rng(options.seed);
    std::mt19937_64 check_rng(options.seed ^ 0x5eedULL);
    const leqa::fabric::PhysicalParams base;

    double explore_points = 0.0;
    double batch_points = 0.0;
    double lane_edges = 0.0;
    std::size_t surface_calls = 0;
    leqa::core::SurfaceCacheStats surfaces;
    double traced_s = 0.0;
    double untraced_s = 0.0;
    for (const WarmCircuit& c : circuits(options)) {
        const leqa::core::ExplorationSpec spec = make_spec(c, rng);
        const leqa::pipeline::CachedCircuitPtr cached = session->resolve(source_of(c));
        const leqa::core::CircuitProfile& profile = cached->profile();
        ++out.attempted;

        auto start = Clock::now();
        const leqa::core::ExplorationResult plain = session->explore(source_of(c), spec);
        untraced_s += std::chrono::duration<double>(Clock::now() - start).count();

        trace::set_enabled(true);
        trace::begin_operation();
        start = Clock::now();
        std::optional<leqa::core::ExplorationResult> traced;
        {
            const trace::Span span("core.explore");
            traced.emplace(leqa::core::explore(profile, base, spec));
        }
        traced_s += std::chrono::duration<double>(Clock::now() - start).count();
        explore_points += static_cast<double>(traced->points.size());
        surfaces.hits += traced->surface_cache.hits;
        surfaces.recomputes += traced->surface_cache.recomputes;
        check_call(*cached, *traced, check_rng, c.name, checker);
        bool same = plain.points.size() == traced->points.size();
        for (std::size_t i = 0; same && i < plain.points.size(); ++i) {
            same = plain.points[i].estimate.latency_us == traced->points[i].estimate.latency_us;
        }
        checker.expect(same, c.name + ": core::explore disagrees with Pipeline::explore");

        // The explorer's inner layers, called directly on each geometry:
        // the batch over the (Nc, v) axis, the E[S_q] surfaces, and one
        // 8-lane critical-path sweep.
        std::vector<leqa::core::ParameterPoint> axis;
        for (int nc : spec.capacities) {
            for (double v : spec.speeds) axis.push_back({nc, v});
        }
        for (TopologyKind kind : spec.topologies) {
            for (int side : spec.sides) {
                leqa::fabric::PhysicalParams params = base;
                params.topology = kind;
                params.width = kind == TopologyKind::Line ? side * side : side;
                params.height = kind == TopologyKind::Line ? 1 : side;
                const leqa::core::EstimationEngine engine(params);
                {
                    const trace::Span span("core.estimate_batch");
                    (void)engine.estimate_batch(profile, axis);
                }
                batch_points += static_cast<double>(axis.size());
                const leqa::fabric::Topology& topo = engine.topology();
                const long long q = static_cast<long long>(profile.num_qubits);
                {
                    const trace::Span span("core.expected_surfaces");
                    (void)leqa::core::EstimationEngine::expected_surfaces(
                        topo.coverage_histogram(topo.zone_extent(profile.zone_area_b)), q,
                        std::min<long long>(q, 20));
                }
                ++surface_calls;
            }
        }
        std::array<std::array<double, leqa::circuit::kGateKindCount>, 8> tables{};
        for (std::size_t lane = 0; lane < tables.size(); ++lane) {
            for (std::size_t k = 0; k < leqa::circuit::kGateKindCount; ++k) {
                tables[lane][k] = 5000.0 + 100.0 * static_cast<double>(lane + k);
            }
        }
        leqa::qodg::LongestPathLanes lanes;
        cached->qodg().longest_path_lanes(tables, lanes); // size the buffers
        {
            const trace::Span span("qodg.longest_path_lanes");
            cached->qodg().longest_path_lanes(tables, lanes);
        }
        lane_edges += static_cast<double>(cached->qodg().num_edges());
        trace::set_enabled(false);
    }

    const auto totals = trace::layer_totals();
    const auto layer = [&](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? trace::LayerTotals{} : it->second;
    };
    out.add("core.explore_ns_per_point", layer("core.explore").self_s * 1e9 / explore_points,
            "ns");
    out.add("core.estimate_batch_ns_per_point",
            layer("core.estimate_batch").self_s * 1e9 / batch_points, "ns");
    out.add("core.expected_surfaces_s",
            layer("core.expected_surfaces").self_s / static_cast<double>(surface_calls), "s");
    out.add("core.surface_hits", static_cast<double>(surfaces.hits), "count");
    out.add("core.surface_recomputes", static_cast<double>(surfaces.recomputes), "count");
    out.add("qodg.longest_path_lanes_ns_per_edge",
            layer("qodg.longest_path_lanes").self_s * 1e9 / lane_edges, "ns");
    out.add("core.allocs_per_point",
            static_cast<double>(layer("core.explore").allocs) / explore_points, "count");
    out.add("trace.warm_overhead_pct",
            untraced_s > 0 ? (traced_s / untraced_s - 1.0) * 100.0 : 0.0, "%");
    return out;
}

} // namespace perfbench
