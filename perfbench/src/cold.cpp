/// \file cold.cpp
/// \brief Workload `cold_estimate`: every operation is a fresh
///        pipeline::Pipeline running Estimate on a circuit it has not seen.
///
/// The circuits span the suite from mod1048576adder (37k FT ops) to
/// gf2^256mult (984k FT ops), each in three source forms: `bench:<name>`
/// (benchgen + synth), a pre-FT QASM file (parser + synth) and an FT QASM
/// file (parser only).  The files are written before timing starts, in a
/// child process so the measured peak RSS is the operations' own.
///
/// A round holds every (circuit, form) pair, smaller circuits repeated so
/// each circuit carries a similar share of the work; a run is whole rounds
/// in a seeded order, each repeat at its own seeded fabric point shared by
/// the three forms.  Costs are divided by FT ops so circuits of different
/// sizes share one distribution.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "benchgen/suite.h"
#include "checks.h"
#include "common.h"
#include "core/engine.h"
#include "iig/iig.h"
#include "parser/io.h"
#include "pipeline/pipeline.h"
#include "qodg/qodg.h"
#include "stats.h"
#include "synth/ft_synth.h"
#include "trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct ColdCircuit {
    std::string name;
    int repeats = 1; ///< operations per form per round
};

/// The suite from mod1048576adder up to gf2^128mult.  Repeats give every
/// circuit a comparable share of a round's work, so no rate rests on a
/// handful of long operations.  gf2^256mult (984k FT ops, about 1.2 s per
/// operation) would take half of every round in three operations; it runs
/// once, untimed, for its Table 2 check, and in the traced pass.
const std::vector<ColdCircuit> kCircuits = {
    {"mod1048576adder", 5}, {"gf2^50mult", 5}, {"gf2^64mult", 6}, {"hwb100ps", 4},
    {"gf2^100mult", 2},     {"hwb200ps", 2},   {"gf2^128mult", 1}};
const std::vector<ColdCircuit> kSmallCircuits = {{"ham15", 2}, {"gf2^16mult", 1}};
/// Largest circuit of the range: traced, and checked once per run.
const ColdCircuit kLargest = {"gf2^256mult", 1};
const ColdCircuit kSmallLargest = {"gf2^20mult", 1};

enum class Form { Bench, PreFt, Ft };
constexpr Form kForms[] = {Form::Bench, Form::PreFt, Form::Ft};
const char* form_name(Form form) {
    switch (form) {
    case Form::Bench: return "bench";
    case Form::PreFt: return "preft_qasm";
    case Form::Ft: return "ft_qasm";
    }
    return "?";
}

constexpr int kSetupRepeats = 3;

const std::vector<ColdCircuit>& circuits(const Options& options) {
    return options.small ? kSmallCircuits : kCircuits;
}

/// The timed circuits plus the largest one (the traced pass covers all).
std::vector<ColdCircuit> traced_circuits(const Options& options) {
    std::vector<ColdCircuit> list = circuits(options);
    list.push_back(options.small ? kSmallLargest : kLargest);
    return list;
}

std::string file_stem(const Options& options, const std::string& circuit) {
    std::string stem = circuit;
    std::replace(stem.begin(), stem.end(), '^', '_');
    return options.work_dir + "/cold/" + stem;
}
std::string pre_ft_path(const Options& o, const std::string& c) { return file_stem(o, c) + ".qasm"; }
std::string ft_path(const Options& o, const std::string& c) { return file_stem(o, c) + ".ft.qasm"; }

/// Write the pre-FT and FT netlists of every circuit in \p list.
void prepare_inputs(const Options& options, const std::vector<ColdCircuit>& list) {
    std::filesystem::create_directories(options.work_dir + "/cold");
    for (const ColdCircuit& c : list) {
        const leqa::circuit::Circuit pre = leqa::benchgen::make_benchmark(c.name);
        leqa::parser::save_netlist(pre, pre_ft_path(options, c.name));
        const leqa::synth::FtSynthResult ft = leqa::synth::ft_synthesize(pre);
        leqa::parser::save_netlist(ft.circuit, ft_path(options, c.name));
    }
}

/// prepare_inputs in a child process; returns its wall time, or a negative
/// value when the child failed.
double prepare_inputs_in_child(const Options& options) {
    std::fflush(stdout);
    std::fflush(stderr);
    const auto start = Clock::now();
    const pid_t pid = ::fork();
    if (pid == 0) {
        int code = 0;
        try {
            prepare_inputs(options, circuits(options));
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: preparing inputs failed: %s\n", e.what());
            code = 1;
        }
        ::_exit(code);
    }
    if (pid < 0) return -1.0;
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) return -1.0;
    }
    const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? seconds : -1.0;
}

leqa::pipeline::CircuitSource source_of(const Options& options, const std::string& circuit,
                                        Form form) {
    switch (form) {
    case Form::Bench: return leqa::pipeline::CircuitSource::from_bench(circuit);
    case Form::PreFt: return leqa::pipeline::CircuitSource::from_path(pre_ft_path(options, circuit));
    case Form::Ft: return leqa::pipeline::CircuitSource::from_path(ft_path(options, circuit));
    }
    return leqa::pipeline::CircuitSource::from_bench(circuit);
}

/// A seeded fabric point: channel capacity, speed, topology and side.
leqa::fabric::PhysicalParams draw_params(std::mt19937_64& rng) {
    static const int kNc[] = {2, 3, 4, 5, 6, 8};
    static const double kV[] = {0.0005, 0.00075, 0.001, 0.0015, 0.002, 0.003};
    static const int kSides[] = {60, 64, 72};
    leqa::fabric::PhysicalParams params;
    params.nc = kNc[rng() % std::size(kNc)];
    params.v = kV[rng() % std::size(kV)];
    params.topology = rng() % 2 == 0 ? leqa::fabric::TopologyKind::Grid
                                     : leqa::fabric::TopologyKind::Torus;
    params.width = params.height = kSides[rng() % std::size(kSides)];
    return params;
}

struct ColdOp {
    std::size_t circuit = 0;
    std::size_t group = 0; ///< (round, circuit, repeat): the forms sharing a point
    Form form = Form::Bench;
    leqa::fabric::PhysicalParams params;
};

/// One round: every (circuit, repeat, form) in a seeded order.
std::vector<ColdOp> make_round(const Options& options, std::mt19937_64& rng,
                               std::size_t& next_group) {
    std::vector<ColdOp> ops;
    const auto& list = circuits(options);
    for (std::size_t c = 0; c < list.size(); ++c) {
        for (int r = 0; r < list[c].repeats; ++r) {
            const leqa::fabric::PhysicalParams params = draw_params(rng);
            const std::size_t group = next_group++;
            for (Form form : kForms) ops.push_back({c, group, form, params});
        }
    }
    std::shuffle(ops.begin(), ops.end(), rng);
    return ops;
}

struct ColdSample {
    ColdOp op;
    double seconds = 0.0;
    std::size_t ft_ops = 0;
    EstimateView estimate;
};

/// The timed operation: a fresh session estimating one source.
ColdSample run_pipeline_op(const Options& options, const std::string& circuit,
                           const ColdOp& op) {
    ColdSample sample;
    sample.op = op;
    const leqa::pipeline::CircuitSource source = source_of(options, circuit, op.form);
    const auto start = Clock::now();
    {
        leqa::pipeline::PipelineConfig config;
        config.params = op.params;
        leqa::pipeline::Pipeline pipeline(config);
        const leqa::pipeline::EstimationResult result =
            pipeline.run(leqa::pipeline::EstimationRequest(source));
        sample.ft_ops = result.circuit.ft_ops;
        sample.estimate = {result.estimate->latency_us, result.estimate->l_cnot_avg_us,
                           result.estimate->l_one_qubit_avg_us};
    }
    sample.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return sample;
}

/// Check every sample: forms agree per group, Eq. 1 recomputed from the FT
/// netlist with the benchmark's own reader, Table 2 op counts.
void check_samples(const Options& options, const std::vector<ColdSample>& samples,
                   Checker& checker) {
    std::map<std::size_t, std::vector<const ColdSample*>> groups;
    for (const ColdSample& s : samples) groups[s.op.group].push_back(&s);
    for (const auto& [group, members] : groups) {
        std::vector<double> latencies;
        std::vector<std::size_t> ft_ops;
        for (const ColdSample* s : members) {
            latencies.push_back(s->estimate.latency_us);
            ft_ops.push_back(s->ft_ops);
        }
        checker.expect(members.size() == std::size(kForms),
                       "cold group " + std::to_string(group) + " is missing a form");
        check_forms_identical(latencies, ft_ops,
                              circuits(options)[members.front()->op.circuit].name, checker);
    }
    const auto& list = circuits(options);
    for (std::size_t c = 0; c < list.size(); ++c) {
        const FtNetlist netlist = read_ft_netlist(ft_path(options, list[c].name), checker);
        check_table2_ft_ops(list[c].name, netlist.gates.size(), checker);
        for (const ColdSample& s : samples) {
            if (s.op.circuit != c) continue;
            const std::string label = list[c].name + "/" + form_name(s.op.form);
            checker.expect(s.ft_ops == netlist.gates.size(),
                           label + ": pipeline reports " + std::to_string(s.ft_ops) +
                               " FT ops, the netlist holds " +
                               std::to_string(netlist.gates.size()));
            check_table2_ft_ops(list[c].name, s.ft_ops, checker);
            check_eq1(netlist, s.estimate, label, checker);
        }
    }
}


} // namespace

RunResult run_cold_estimate(const Options& options, Checker& checker) {
    RunResult out;
    std::vector<double> setups;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const double s = prepare_inputs_in_child(options);
        if (!checker.expect(s >= 0.0, "writing the cold_estimate inputs failed")) return out;
        setups.push_back(s);
    }

    std::mt19937_64 rng(options.seed);
    std::size_t next_group = 0;
    std::vector<ColdSample> samples;
    const auto start = Clock::now();
    std::size_t rounds = 0;
    do {
        for (const ColdOp& op : make_round(options, rng, next_group)) {
            ++out.attempted;
            try {
                samples.push_back(run_pipeline_op(options, circuits(options)[op.circuit].name, op));
            } catch (const std::exception& e) {
                ++out.failed;
                checker.expect(false, std::string("cold estimate threw: ") + e.what());
            }
        }
        ++rounds;
    } while (std::chrono::duration<double>(Clock::now() - start).count() < options.seconds);
    const double peak_rss = self_peak_rss_mb();

    check_samples(options, samples, checker);
    const ColdCircuit& largest = options.small ? kSmallLargest : kLargest;
    try {
        const ColdSample big = run_pipeline_op(options, largest.name, ColdOp{});
        check_table2_ft_ops(largest.name, big.ft_ops, checker);
    } catch (const std::exception& e) {
        checker.expect(false, largest.name + " estimate threw: " + e.what());
    }

    std::vector<double> op_s;
    std::vector<double> ns_per_ft_op;
    double total_s = 0.0;
    double total_ft_ops = 0.0;
    for (const ColdSample& s : samples) {
        op_s.push_back(s.seconds);
        ns_per_ft_op.push_back(s.seconds * 1e9 / static_cast<double>(s.ft_ops));
        total_s += s.seconds;
        total_ft_ops += static_cast<double>(s.ft_ops);
    }
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", peak_rss, "MB");
    add_median_and_tail(out, "op_p50_s", "op_tail_s", op_s, "s");
    add_median_and_tail(out, "ns_per_ft_op_p50", "ns_per_ft_op_tail", ns_per_ft_op, "ns");
    out.add("ft_ops_per_s", total_s > 0 ? total_ft_ops / total_s : 0.0, "1/s");
    // One estimate is one design point and one request.
    out.add("points_per_s", total_s > 0 ? static_cast<double>(samples.size()) / total_s : 0.0,
            "1/s");
    out.add("requests_per_s",
            total_s > 0 ? static_cast<double>(samples.size()) / total_s : 0.0, "1/s");
    out.notes.push_back("cold_estimate: " + std::to_string(rounds) + " rounds, " +
                        std::to_string(samples.size()) + " operations");
    return out;
}

RunResult trace_cold_estimate(const Options& options, Checker& checker) {
    RunResult out;
    const std::vector<ColdCircuit> list = traced_circuits(options);
    prepare_inputs(options, list);
    std::mt19937_64 rng(options.seed);

    std::map<std::string, double> work; // FT ops each layer produced
    double traced_s = 0.0;
    double untraced_s = 0.0;
    for (std::size_t c = 0; c < list.size(); ++c) {
        for (Form form : kForms) {
            const ColdOp op{c, 0, form, draw_params(rng)};
            ++out.attempted;
            // Untraced first: it also fills any first-use caches, so the
            // traced operation's allocation counts repeat exactly.
            const ColdSample plain = run_pipeline_op(options, list[c].name, op);
            untraced_s += plain.seconds;

            trace::set_enabled(true);
            trace::begin_operation();
            const auto start = Clock::now();
            double latency = 0.0;
            std::size_t ft_ops = 0;
            {
                const trace::Span root("cold.op");
                leqa::circuit::Circuit circ(0);
                if (form == Form::Bench) {
                    const trace::Span span("benchgen.generate");
                    circ = leqa::benchgen::make_benchmark(list[c].name);
                } else {
                    const trace::Span span("parser.parse");
                    circ = leqa::parser::load_netlist(form == Form::Ft
                                                          ? ft_path(options, list[c].name)
                                                          : pre_ft_path(options, list[c].name));
                }
                bool synthesized = false;
                if (!circ.is_ft()) {
                    const trace::Span span("synth.ft_synthesize");
                    circ = leqa::synth::ft_synthesize(circ).circuit;
                    synthesized = true;
                }
                ft_ops = circ.size();
                work[form == Form::Bench ? "benchgen.generate" : "parser.parse"] +=
                    static_cast<double>(ft_ops);
                if (synthesized) work["synth.ft_synthesize"] += static_cast<double>(ft_ops);
                std::optional<leqa::qodg::Qodg> graph;
                std::optional<leqa::iig::Iig> iig;
                {
                    const trace::Span span("qodg.build");
                    graph.emplace(circ);
                }
                {
                    const trace::Span span("iig.build");
                    iig.emplace(circ);
                }
                std::optional<leqa::core::CircuitProfile> profile;
                {
                    const trace::Span span("core.profile_build");
                    profile.emplace(leqa::core::CircuitProfile::build(*graph, *iig));
                }
                {
                    const trace::Span span("core.estimate");
                    const leqa::core::EstimationEngine engine(op.params);
                    latency = engine.estimate(*profile).latency_us;
                }
                for (const char* layer :
                     {"qodg.build", "iig.build", "core.profile_build", "core.estimate"}) {
                    work[layer] += static_cast<double>(ft_ops);
                }
            }
            traced_s += std::chrono::duration<double>(Clock::now() - start).count();
            trace::set_enabled(false);
            checker.expect(latency == plain.estimate.latency_us && ft_ops == plain.ft_ops,
                           list[c].name + "/" + form_name(form) +
                               ": staged layers disagree with Pipeline::run");
        }
    }

    const auto totals = trace::layer_totals();
    for (const char* layer : {"benchgen.generate", "parser.parse", "synth.ft_synthesize",
                              "qodg.build", "iig.build", "core.profile_build", "core.estimate"}) {
        const auto it = totals.find(layer);
        const double ft_ops = work[layer];
        const trace::LayerTotals t = it == totals.end() ? trace::LayerTotals{} : it->second;
        const std::string name(layer);
        const double per = ft_ops > 0 ? 1.0 / ft_ops : 0.0;
        out.add(name + "_ns_per_ft_op", t.self_s * 1e9 * per, "ns");
        out.add(name + "_allocs_per_ft_op", static_cast<double>(t.allocs) * per, "count");
        out.add(name + "_alloc_bytes_per_ft_op", static_cast<double>(t.alloc_bytes) * per,
                "bytes");
    }
    out.add("trace.cold_overhead_pct",
            untraced_s > 0 ? (traced_s / untraced_s - 1.0) * 100.0 : 0.0, "%");
    return out;
}

} // namespace perfbench
