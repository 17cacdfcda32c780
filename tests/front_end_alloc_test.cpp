// Heap allocations per FT op of the front end: loading an FT netlist (native
// QASM or OpenQASM), FT synthesis and the QODG and IIG builds must not
// allocate per gate, and the graph builds must stay within a byte budget per
// FT op (bytes a build asks for are bytes it touches for the first time).
// A counting operator new, local to this binary, counts every allocation
// and its size made while a measured call runs; the counts are
// deterministic, so the bounds are exact on any machine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <utility>

#include <unistd.h>

#include "benchgen/suite.h"
#include "iig/iig.h"
#include "parser/io.h"
#include "parser/openqasm.h"
#include "qodg/qodg.h"
#include "synth/ft_synth.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};
} // namespace

void* operator new(std::size_t size) {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocations.fetch_add(1, std::memory_order_relaxed);
        g_bytes.fetch_add(size, std::memory_order_relaxed);
    }
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace lc = leqa::circuit;

namespace {

/// Allocations made while \p fn runs, and the bytes they asked for.
struct Allocations {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};

template <class Fn>
Allocations measure_allocations(Fn&& fn) {
    g_allocations.store(0);
    g_bytes.store(0);
    g_counting.store(true);
    fn();
    g_counting.store(false);
    return {g_allocations.load(), g_bytes.load()};
}

template <class Fn>
std::uint64_t count_allocations(Fn&& fn) {
    return measure_allocations(std::forward<Fn>(fn)).count;
}

/// Bound from the front-end contract: at most one allocation per ten FT ops.
constexpr double kMaxAllocationsPerFtOp = 0.1;

/// Byte budgets of the graph builds per FT op on gf2^64mult, set just above
/// the deterministic counts of the one-pass builds (QODG 23.6 bytes per FT
/// op: node rows and both CSRs; IIG 4.9: the bucketed upper endpoints and
/// the edge list).  The edge-list QODG build with per-node records and the
/// pair-sort IIG build with its symmetric adjacency, which they replaced,
/// asked for 69.3 and 24.6.
constexpr double kMaxQodgBytesPerFtOp = 25.0;
constexpr double kMaxIigBytesPerFtOp = 5.5;

std::string temp_path(const std::string& suffix) {
    return (std::filesystem::temp_directory_path() /
            ("leqa_front_end_alloc_" + std::to_string(::getpid()) + suffix))
        .string();
}

/// gf2^64mult before and after FT synthesis, and its FT netlist on disk in
/// the native and the OpenQASM form.
struct Inputs {
    lc::Circuit pre = leqa::benchgen::make_benchmark("gf2^64mult");
    lc::Circuit ft = leqa::synth::ft_synthesize(pre).circuit;
    std::string path = temp_path(".ft.qasm");
    std::string openqasm_path = temp_path(".ft.openqasm.qasm");

    Inputs() {
        leqa::parser::save_netlist(ft, path);
        leqa::parser::write_file(openqasm_path, leqa::parser::write_openqasm(ft));
    }
    ~Inputs() {
        std::filesystem::remove(path);
        std::filesystem::remove(openqasm_path);
    }
    Inputs(const Inputs&) = delete;
    Inputs& operator=(const Inputs&) = delete;
};

const Inputs& inputs() {
    static const Inputs shared;
    return shared;
}

double per_ft_op(std::uint64_t amount) {
    return static_cast<double>(amount) / static_cast<double>(inputs().ft.size());
}

// Each test takes the shared inputs before counting starts, so building
// them is never counted.

TEST(FrontEndAllocations, LoadNetlistOfFtNetlist) {
    const Inputs& in = inputs();
    lc::Circuit loaded;
    const auto allocations =
        count_allocations([&] { loaded = leqa::parser::load_netlist(in.path); });
    EXPECT_TRUE(loaded.same_structure(in.ft));
    EXPECT_LE(per_ft_op(allocations), kMaxAllocationsPerFtOp) << allocations;
}

TEST(FrontEndAllocations, LoadNetlistOfFtOpenQasmNetlist) {
    const Inputs& in = inputs();
    lc::Circuit loaded;
    const auto allocations =
        count_allocations([&] { loaded = leqa::parser::load_netlist(in.openqasm_path); });
    EXPECT_TRUE(loaded.same_structure(in.ft));
    EXPECT_LE(per_ft_op(allocations), kMaxAllocationsPerFtOp) << allocations;
}

TEST(FrontEndAllocations, FtSynthesizeOfPreFtCircuit) {
    const Inputs& in = inputs();
    leqa::synth::FtSynthResult result;
    const auto allocations =
        count_allocations([&] { result = leqa::synth::ft_synthesize(in.pre); });
    EXPECT_TRUE(result.circuit.same_structure(in.ft));
    EXPECT_LE(per_ft_op(allocations), kMaxAllocationsPerFtOp) << allocations;
}

TEST(FrontEndAllocations, IigConstructor) {
    const Inputs& in = inputs();
    std::size_t edges = 0;
    const auto allocations = measure_allocations([&] {
        const leqa::iig::Iig iig(in.ft);
        edges = iig.num_edges();
    });
    EXPECT_GT(edges, 0u);
    EXPECT_LE(per_ft_op(allocations.count), kMaxAllocationsPerFtOp) << allocations.count;
    EXPECT_LE(per_ft_op(allocations.bytes), kMaxIigBytesPerFtOp) << allocations.bytes;
}

TEST(FrontEndAllocations, QodgConstructor) {
    const Inputs& in = inputs();
    std::size_t nodes = 0;
    const auto allocations = measure_allocations([&] {
        const leqa::qodg::Qodg graph(in.ft);
        nodes = graph.num_nodes();
    });
    EXPECT_EQ(nodes, in.ft.size() + 2);
    EXPECT_LE(per_ft_op(allocations.count), kMaxAllocationsPerFtOp) << allocations.count;
    EXPECT_LE(per_ft_op(allocations.bytes), kMaxQodgBytesPerFtOp) << allocations.bytes;
}

TEST(FrontEndAllocations, CountsRepeatExactly) {
    const Inputs& in = inputs();
    const auto load = [&] { (void)leqa::parser::load_netlist(in.path); };
    load(); // fills any first-use caches
    EXPECT_EQ(count_allocations(load), count_allocations(load));
}

} // namespace
