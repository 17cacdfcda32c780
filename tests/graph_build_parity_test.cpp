// Reference parity of the graph builds.  The QODG is built in one append
// pass (predecessor CSR first, successor CSR by transpose) and the IIG by
// bucketing CNOT endpoint pairs by their lower qubit.  This file keeps the
// builds they replaced — an edge list frozen by CsrBuilder with per-row
// sort/unique plus an eager reversal, and a pair list sorted by packed key
// and run-length encoded — and asserts identical arrays on every suite
// circuit, before and after FT synthesis, and on the structural edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/suite.h"
#include "circuit/circuit.h"
#include "graph/csr.h"
#include "iig/iig.h"
#include "qodg/qodg.h"
#include "synth/ft_synth.h"

namespace lc = leqa::circuit;
namespace lg = leqa::graph;
namespace lq = leqa::qodg;

namespace {

// ------------------------------------------------------------ references --

/// The edge-list QODG build: last-writer edges plus the end edges into a
/// CsrBuilder that merges parallel edges at freeze time, then the reverse
/// CSR for the predecessors.
struct ReferenceQodg {
    lg::CsrDigraph successors;
    lg::CsrDigraph predecessors;

    explicit ReferenceQodg(const lc::Circuit& circ) {
        const std::size_t n = circ.size() + 2;
        const auto end_id = static_cast<lg::NodeId>(n - 1);
        lg::CsrBuilder builder(n);
        std::vector<lg::NodeId> last(circ.num_qubits(), 0);
        for (std::size_t i = 0; i < circ.size(); ++i) {
            const auto me = static_cast<lg::NodeId>(i + 1);
            const auto qubits = circ.gate(i).qubits();
            for (const lc::Qubit q : qubits) builder.add_edge(last[q], me);
            for (const lc::Qubit q : qubits) last[q] = me;
        }
        if (circ.num_qubits() == 0) {
            builder.add_edge(0, end_id);
        } else {
            for (const lg::NodeId t : last) builder.add_edge(t, end_id);
        }
        successors = builder.build(/*merge_parallel=*/true);
        predecessors = successors.reversed();
    }
};

/// The pair-sort IIG build: every interacting pair packed as (min << 32 |
/// max), globally sorted, and run-length encoded into (i, j, weight)
/// edges, per-qubit degrees and adjacent weights.
struct ReferenceIig {
    std::vector<lg::WeightedUndigraph::Edge> edges;
    std::vector<std::size_t> degree;
    std::vector<std::uint64_t> adjacent_weight;

    explicit ReferenceIig(const lc::Circuit& circ)
        : degree(circ.num_qubits(), 0), adjacent_weight(circ.num_qubits(), 0) {
        std::vector<std::pair<lg::NodeId, lg::NodeId>> pairs;
        for (const lc::Gate& gate : circ.gates()) {
            const auto qubits = gate.qubits();
            for (std::size_t a = 0; a < qubits.size(); ++a) {
                for (std::size_t b = a + 1; b < qubits.size(); ++b) {
                    pairs.emplace_back(qubits[a], qubits[b]);
                }
            }
        }
        std::vector<std::uint64_t> keys;
        keys.reserve(pairs.size());
        for (const auto& [a, b] : pairs) {
            keys.push_back((static_cast<std::uint64_t>(std::min(a, b)) << 32) |
                           std::max(a, b));
        }
        std::sort(keys.begin(), keys.end());
        for (std::size_t run = 0; run < keys.size();) {
            std::size_t end = run + 1;
            while (end < keys.size() && keys[end] == keys[run]) ++end;
            const auto i = static_cast<lg::NodeId>(keys[run] >> 32);
            const auto j = static_cast<lg::NodeId>(keys[run] & 0xFFFFFFFFULL);
            const auto weight = static_cast<std::uint64_t>(end - run);
            edges.push_back({i, j, weight});
            ++degree[i];
            ++degree[j];
            adjacent_weight[i] += weight;
            adjacent_weight[j] += weight;
            run = end;
        }
    }
};

// ------------------------------------------------------------- assertions --

template <class T>
std::vector<T> as_vector(std::span<const T> view) {
    return {view.begin(), view.end()};
}

void expect_same_csr(const lg::CsrDigraph& actual, const lg::CsrDigraph& expected,
                     const std::string& what) {
    EXPECT_EQ(as_vector(actual.offsets()), as_vector(expected.offsets())) << what;
    EXPECT_EQ(as_vector(actual.targets()), as_vector(expected.targets())) << what;
}

void expect_qodg_parity(const lc::Circuit& circ, const std::string& label) {
    const lq::Qodg graph(circ);
    const ReferenceQodg reference(circ);
    ASSERT_EQ(graph.num_nodes(), circ.size() + 2) << label;
    expect_same_csr(graph.csr(), reference.successors, label + " successors");
    EXPECT_TRUE(graph.csr().topologically_ordered()) << label;
    for (lg::NodeId v = 0; v < graph.num_nodes(); ++v) {
        ASSERT_EQ(as_vector(graph.predecessors(v)),
                  as_vector(reference.predecessors.successors(v)))
            << label << " predecessors of node " << v;
    }
    // Node views derived from ids: gate index id - 1, kind from the gate.
    EXPECT_EQ(graph.node(graph.start()).kind, lq::NodeKind::Start) << label;
    EXPECT_EQ(graph.node(graph.end()).kind, lq::NodeKind::End) << label;
    for (std::size_t i = 0; i < circ.size(); ++i) {
        const lq::Node node = graph.node(graph.node_of_gate(i));
        ASSERT_EQ(node.kind, lq::NodeKind::Op) << label;
        ASSERT_EQ(node.gate_index, i) << label;
        ASSERT_EQ(node.gate_kind, circ.gate(i).kind()) << label << " gate " << i;
    }
}

void expect_iig_parity(const lc::Circuit& circ, const std::string& label) {
    const leqa::iig::Iig iig(circ);
    const ReferenceIig reference(circ);
    ASSERT_EQ(iig.num_qubits(), circ.num_qubits()) << label;
    ASSERT_EQ(iig.edges().size(), reference.edges.size()) << label;
    for (std::size_t e = 0; e < reference.edges.size(); ++e) {
        const auto& got = iig.edges()[e];
        const auto& want = reference.edges[e];
        ASSERT_TRUE(got.i == want.i && got.j == want.j && got.weight == want.weight)
            << label << " edge " << e << ": (" << got.i << ", " << got.j << ", "
            << got.weight << ") vs (" << want.i << ", " << want.j << ", " << want.weight
            << ")";
    }
    for (lc::Qubit q = 0; q < circ.num_qubits(); ++q) {
        ASSERT_EQ(iig.degree(q), reference.degree[q]) << label << " qubit " << q;
        ASSERT_EQ(iig.adjacent_weight(q), reference.adjacent_weight[q])
            << label << " qubit " << q;
    }
    for (const auto& e : reference.edges) {
        ASSERT_EQ(iig.edge_weight(e.i, e.j), e.weight) << label;
        ASSERT_EQ(iig.edge_weight(e.j, e.i), e.weight) << label;
    }
}

void expect_parity(const lc::Circuit& circ, const std::string& label) {
    expect_qodg_parity(circ, label);
    expect_iig_parity(circ, label);
}

} // namespace

// ------------------------------------------------------------- the suite --

TEST(GraphBuildParity, EverySuiteCircuitBeforeAndAfterFtSynthesis) {
    const auto& suite = leqa::benchgen::paper_suite();
    ASSERT_EQ(suite.size(), 18u);
    for (const auto& entry : suite) {
        const lc::Circuit pre = leqa::benchgen::make_benchmark(entry.name);
        expect_parity(pre, entry.name + " (pre-FT)");
        const lc::Circuit ft = leqa::synth::ft_synthesize(pre).circuit;
        expect_parity(ft, entry.name + " (FT)");
        if (HasFatalFailure()) return;
    }
}

// ------------------------------------------------------------ edge cases --

TEST(GraphBuildParity, ZeroQubits) {
    const lc::Circuit circ(0);
    expect_parity(circ, "zero qubits");
    const lq::Qodg graph(circ);
    EXPECT_EQ(graph.num_edges(), 1u); // start -> end
}

TEST(GraphBuildParity, UntouchedQubits) {
    lc::Circuit circ(6);
    circ.h(1).cnot(1, 4).t(4); // qubits 0, 2, 3, 5 never touched
    expect_parity(circ, "untouched qubits");
    const lq::Qodg graph(circ);
    // start feeds the first gates on qubits 1 and 4 and, once, the end node.
    EXPECT_EQ(as_vector(graph.successors(graph.start())),
              (std::vector<lg::NodeId>{1, 2, graph.end()}));
}

TEST(GraphBuildParity, CnotFeedingBothOperandsOfTheNextCnot) {
    lc::Circuit circ(3);
    circ.cnot(0, 1).cnot(1, 0).cnot(0, 1).cnot(2, 0).cnot(0, 2);
    expect_parity(circ, "parallel-edge merge");
    const lq::Qodg graph(circ);
    // Gate 2 reads both outputs of gate 1: one merged edge.
    EXPECT_EQ(as_vector(graph.predecessors(2)), (std::vector<lg::NodeId>{1}));
    const leqa::iig::Iig iig(circ);
    EXPECT_EQ(iig.edge_weight(0, 1), 3u);
    EXPECT_EQ(iig.edge_weight(0, 2), 2u);
}

TEST(GraphBuildParity, SpilledMultiControlledGates) {
    lc::Circuit circ(9);
    const std::vector<lc::Qubit> wide{0, 1, 2, 3, 4, 5};
    const std::vector<lc::Qubit> reversed{7, 5, 3, 1};
    circ.h(0).cnot(2, 5).mcx(wide, 8).t(3).mcx(reversed, 0).cnot(8, 6);
    circ.add_gate(leqa::circuit::make_mcswap({6, 4, 2, 0}, 1, 8));
    circ.mcx(wide, 7).mcx(wide, 7);
    expect_parity(circ, "spilled MCX");
}

TEST(GraphBuildParity, RandomPreFtCircuits) {
    // Mixed widths with many repeated last writers, deterministic.
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    const auto draw = [&](std::uint64_t bound) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state % bound;
    };
    for (int round = 0; round < 20; ++round) {
        const std::size_t qubits = 2 + draw(12);
        lc::Circuit circ(qubits);
        for (int g = 0; g < 200; ++g) {
            std::vector<lc::Qubit> picked;
            const std::size_t width = 1 + draw(std::min<std::size_t>(qubits, 7));
            while (picked.size() < width) {
                const auto q = static_cast<lc::Qubit>(draw(qubits));
                if (std::find(picked.begin(), picked.end(), q) == picked.end()) {
                    picked.push_back(q);
                }
            }
            if (width == 1) {
                circ.t(picked[0]);
            } else {
                circ.mcx(std::span<const lc::Qubit>(picked).first(width - 1), picked.back());
            }
        }
        expect_parity(circ, "random round " + std::to_string(round));
    }
}
