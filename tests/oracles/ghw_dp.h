// Test oracle: exact GHW by dynamic programming over subsets of eliminated
// vertices. The cover-cost of eliminating v after the set E depends only on
// (E, v) — the bag is {v} plus v's neighbors through E — so
//   G(S) = min over v in S of max(G(S \ v), exact_cover(bag(S \ v, v)))
// computes ghw(H) in 2^n states. It shares no search code with the ordering
// branch and bound or the full-subedge-closure decider, so the tests require
// all three to agree. Built only with the tests, never into libghd.
#ifndef GHD_TESTS_ORACLES_GHW_DP_H_
#define GHD_TESTS_ORACLES_GHW_DP_H_

#include <optional>

#include "hypergraph/hypergraph.h"

namespace ghd {

/// Hard cap on vertices for the GHW subset DP.
inline constexpr int kMaxGhwDpVertices = 22;

/// Exact ghw(H) via the subset DP; nullopt when the vertex count exceeds
/// kMaxGhwDpVertices.
std::optional<int> GhwBySubsetDp(const Hypergraph& h);

}  // namespace ghd

#endif  // GHD_TESTS_ORACLES_GHW_DP_H_
