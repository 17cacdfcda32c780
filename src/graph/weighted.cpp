#include "graph/weighted.h"

#include <algorithm>
#include <utility>

#include "util/error.h"

namespace leqa::graph {

WeightedUndigraph WeightedUndigraph::from_buckets(std::span<const std::uint32_t> starts,
                                                  std::span<const NodeId> upper) {
    WeightedUndigraph g;
    const std::size_t num_nodes = starts.size() - 1;

    // where[j]: 1 + index into edges_ of the current bucket's edge to j.
    // An index below the bucket's first edge belongs to an earlier bucket.
    std::vector<std::uint32_t> where(num_nodes, 0);

    // Count the distinct pairs first (where[] as a per-bucket stamp), so
    // the edge list is allocated once.
    std::size_t num_edges = 0;
    for (NodeId i = 0; i < num_nodes; ++i) {
        for (std::uint32_t e = starts[i]; e < starts[i + 1]; ++e) {
            if (where[upper[e]] != i + 1) {
                where[upper[e]] = i + 1;
                ++num_edges;
            }
        }
    }
    g.edges_.reserve(num_edges);
    std::fill(where.begin(), where.end(), 0);

    // Run-length count each bucket straight into its edges (no sort of the
    // pairs themselves), then order the bucket's few edges by j: buckets
    // are visited by ascending lower endpoint, so the edge list comes out
    // sorted by (i, j).  Per-node degree and adjacent weight accumulate as
    // each bucket closes.
    g.degree_.assign(num_nodes, 0);
    g.adjacent_weight_.assign(num_nodes, 0);
    for (NodeId i = 0; i < num_nodes; ++i) {
        const std::size_t first = g.edges_.size();
        for (std::uint32_t e = starts[i]; e < starts[i + 1]; ++e) {
            const NodeId j = upper[e];
            if (where[j] <= first) {
                g.edges_.push_back(Edge{i, j, 0});
                where[j] = static_cast<std::uint32_t>(g.edges_.size());
            }
            ++g.edges_[where[j] - 1].weight;
        }
        const auto bucket = g.edges_.begin() + static_cast<std::ptrdiff_t>(first);
        std::sort(bucket, g.edges_.end(),
                  [](const Edge& a, const Edge& b) { return a.j < b.j; });
        for (auto it = bucket; it != g.edges_.end(); ++it) {
            ++g.degree_[it->i];
            ++g.degree_[it->j];
            g.adjacent_weight_[it->i] += it->weight;
            g.adjacent_weight_[it->j] += it->weight;
        }
    }
    return g;
}

std::uint64_t WeightedUndigraph::weight_between(NodeId a, NodeId b) const {
    LEQA_REQUIRE(a < num_nodes() && b < num_nodes(), "node out of range");
    LEQA_REQUIRE(a != b, "self loops are not representable");
    const NodeId i = std::min(a, b);
    const NodeId j = std::max(a, b);
    const auto it = std::lower_bound(
        edges_.begin(), edges_.end(), std::pair{i, j},
        [](const Edge& e, const std::pair<NodeId, NodeId>& key) {
            return e.i < key.first || (e.i == key.first && e.j < key.second);
        });
    return it != edges_.end() && it->i == i && it->j == j ? it->weight : 0;
}

} // namespace leqa::graph
