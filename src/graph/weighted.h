/// \file weighted.h
/// \brief Flat undirected weighted graph (CSR adjacency, no hash maps).
///
/// Backing store of the interaction intensity graph: endpoint pairs are
/// bucketed by their lower endpoint with a counting pass, and each small
/// bucket is run-length counted into the unique, (i, j)-sorted edge list,
/// with the per-node statistics (degree, adjacent weight) accumulated on
/// the way.  No pair list, no global sort, no per-edge heap allocations and
/// no unordered_map; a weight lookup is a binary search of the edge list.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "util/error.h"

namespace leqa::graph {

class WeightedUndigraph {
public:
    /// One undirected edge (i < j).
    struct Edge {
        NodeId i = 0;
        NodeId j = 0;
        std::uint64_t weight = 0;
    };

    WeightedUndigraph() = default;

    /// Build from the endpoint pairs `for_each_pair(emit)` reports by calling
    /// `emit(a, b)`; repeated pairs accumulate weight 1 each.  Orientation is
    /// ignored ((a, b) == (b, a)); self loops are rejected.  The source runs
    /// twice — once to count each lower endpoint's pairs, once to drop the
    /// upper endpoints into those buckets — and must report the same pairs
    /// both times, so callers stream pairs straight from their own data.
    template <class ForEachPair>
    [[nodiscard]] static WeightedUndigraph from_pairs(std::size_t num_nodes,
                                                      ForEachPair&& for_each_pair);

    [[nodiscard]] std::size_t num_nodes() const { return degree_.size(); }
    /// Number of distinct undirected edges.
    [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }

    /// Number of distinct neighbors of `u`.
    [[nodiscard]] std::size_t degree(NodeId u) const { return degree_[u]; }

    /// Total weight of edges adjacent to `u`.
    [[nodiscard]] std::uint64_t adjacent_weight(NodeId u) const {
        return adjacent_weight_[u];
    }

    /// Weight between `a` and `b` (0 if absent); O(log |E|).
    [[nodiscard]] std::uint64_t weight_between(NodeId a, NodeId b) const;

    /// All distinct edges, sorted by (i, j).
    [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

private:
    /// Finish a build from the bucketed pairs: `upper[starts[lo] ..
    /// starts[lo + 1])` holds, in any order, the upper endpoint of every
    /// pair whose lower endpoint is `lo`.
    [[nodiscard]] static WeightedUndigraph from_buckets(
        std::span<const std::uint32_t> starts, std::span<const NodeId> upper);

    std::vector<std::uint32_t> degree_;          ///< per node
    std::vector<std::uint64_t> adjacent_weight_; ///< per node
    std::vector<Edge> edges_;                    ///< unique, sorted by (i, j)
};

template <class ForEachPair>
WeightedUndigraph WeightedUndigraph::from_pairs(std::size_t num_nodes,
                                                ForEachPair&& for_each_pair) {
    // Counting pass: starts[lo] counts the pairs whose lower endpoint is
    // lo; the inclusive prefix sum turns each count into its bucket's end.
    std::vector<std::uint32_t> starts(num_nodes + 1, 0);
    for_each_pair([&](NodeId a, NodeId b) {
        LEQA_REQUIRE(a < num_nodes && b < num_nodes, "edge endpoint out of range");
        LEQA_REQUIRE(a != b, "self loops are not representable");
        ++starts[std::min(a, b)];
    });
    for (std::size_t u = 1; u <= num_nodes; ++u) starts[u] += starts[u - 1];

    // Scatter pass: each bucket's cursor walks down from its end, so every
    // starts[lo] ends at its bucket's first slot.
    std::vector<NodeId> upper(starts[num_nodes]);
    for_each_pair([&](NodeId a, NodeId b) {
        upper[--starts[std::min(a, b)]] = std::max(a, b);
    });
    return from_buckets(starts, upper);
}

} // namespace leqa::graph
