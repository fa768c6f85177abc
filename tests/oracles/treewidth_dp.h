// Test oracle: exact treewidth by dynamic programming over subsets of
// eliminated vertices (Bodlaender et al.):
//   W(S) = min over v in S of max(W(S \ v), deg(S \ v, v)),
// where deg(E, v) counts the neighbors v has after eliminating E. The value
// depends only on the *set* of eliminated vertices, not their order, so the
// 2^n-state DP is independent of the branch and bound it cross-checks. Built
// only with the tests, never into libghd.
#ifndef GHD_TESTS_ORACLES_TREEWIDTH_DP_H_
#define GHD_TESTS_ORACLES_TREEWIDTH_DP_H_

#include <optional>

#include "graph/graph.h"
#include "util/bitset.h"

namespace ghd {

/// Hard cap on vertices for the subset DP (memory: 2^n bytes-ish states).
inline constexpr int kMaxDpVertices = 24;

/// Neighborhood of v after eliminating E: vertices outside E ∪ {v} reachable
/// from v through E in g. (The elimination "bag" is this set plus v.)
VertexSet NeighborsThroughEliminated(const Graph& g, const VertexSet& eliminated,
                                     int v);

/// Exact treewidth via the subset DP. Returns nullopt when
/// g.num_vertices() > kMaxDpVertices.
std::optional<int> TreewidthBySubsetDp(const Graph& g);

}  // namespace ghd

#endif  // GHD_TESTS_ORACLES_TREEWIDTH_DP_H_
