// Exact GHW by dynamic programming over subsets of eliminated vertices: the
// cover-cost of eliminating v after the set E depends only on (E, v) — the
// bag is {v} plus v's neighbors through E — so
//   G(S) = min over v in S of max(G(S \ v), exact_cover(bag(S \ v, v)))
// computes ghw(H) in 2^n states. This is the third independent exact GHW
// engine (next to the ordering branch-and-bound and the full-subedge-closure
// decider); the test suite requires all three to agree.
#ifndef GHD_CORE_GHW_DP_H_
#define GHD_CORE_GHW_DP_H_

#include <optional>

#include "hypergraph/hypergraph.h"
#include "util/resource_governor.h"

namespace ghd {

/// Hard cap on vertices for the GHW subset DP.
inline constexpr int kMaxGhwDpVertices = 22;

/// Exact ghw(H) via the subset DP; nullopt when the vertex count exceeds
/// kMaxGhwDpVertices. A non-null `budget` is ticked once per DP cell and
/// charged for the table upfront; on exhaustion the DP returns nullopt
/// (inspect budget->reason() to distinguish truncation from the size cap).
std::optional<int> GhwBySubsetDp(const Hypergraph& h,
                                 Budget* budget = nullptr);

}  // namespace ghd

#endif  // GHD_CORE_GHW_DP_H_
