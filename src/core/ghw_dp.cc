#include "core/ghw_dp.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "hypergraph/flat_hypergraph.h"
#include "hypergraph/kernels.h"
#include "obs/obs.h"
#include "setcover/set_cover.h"
#include "td/treewidth_dp.h"
#include "util/check.h"
#include "util/hash_mix.h"
#include "util/set_interner.h"

namespace ghd {

std::optional<int> GhwBySubsetDp(const Hypergraph& h, Budget* budget) {
  const int n = h.num_vertices();
  if (n > kMaxGhwDpVertices) return std::nullopt;
  if (n == 0 || h.num_edges() == 0) return 0;

  const Graph primal = h.PrimalGraph();
  const VertexSet covered = h.CoveredVertices();
  const uint32_t full = (uint32_t{1} << n) - 1;
  // The table is the dominant allocation: one byte per mask, charged upfront.
  if (budget != nullptr && !budget->Charge(static_cast<size_t>(full) + 1)) {
    return std::nullopt;
  }
  std::vector<uint8_t> dp(static_cast<size_t>(full) + 1, 0);
  // Bags are interned and the cover memo is keyed by the 32-bit id: probes
  // hash one integer, and the memo stores no bitsets at all. The memo must
  // not outlive the interner that issued its keys — both are scoped to this
  // call.
  SetInterner interner;
  std::unordered_map<uint32_t, int, IdHash> cover_cache;
  auto cover_cost = [&](const VertexSet& bag) {
    const uint32_t id = interner.Intern(bag);
    const auto hit = cover_cache.find(id);
    if (hit != cover_cache.end()) {
      GHD_COUNT(kCoverCacheHits);
      return hit->second;
    }
    GHD_COUNT(kCoverCacheMisses);
    // Only edges meeting the bag can appear in a minimum cover (a disjoint
    // edge covers nothing of it), so the candidate list shrinks to the flat
    // incidence-union — word-parallel — without changing the optimum. Every
    // bag vertex is in `covered`, so feasibility is preserved too.
    std::vector<VertexSet> candidates;
    kernels::FlatEdgesIntersecting(h.Flat(), bag).ForEach([&](int e) {
      candidates.push_back(h.edge(e));
    });
    auto size = ExactSetCoverSize(bag, candidates);
    GHD_CHECK(size.has_value());
    GHD_HISTO(kCoverSize, *size);
    return cover_cache.emplace(id, *size).first->second;
  };
  auto to_vertexset = [n](uint32_t mask) {
    return VertexSet::FromWord(n, mask);
  };
  auto solve_mask = [&](uint32_t mask) {
    GHD_COUNT(kDpCells);
    int best = h.num_edges() + 1;
    for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
      const int v = std::countr_zero(bits);
      const uint32_t rest = mask & ~(uint32_t{1} << v);
      const VertexSet eliminated = to_vertexset(rest);
      VertexSet bag = NeighborsThroughEliminated(primal, eliminated, v);
      bag.Set(v);
      bag &= covered;
      const int cost = cover_cost(bag);
      best = std::min(best, std::max<int>(dp[rest], cost));
    }
    GHD_CHECK(best <= 255);
    dp[mask] = static_cast<uint8_t>(best);
  };

  GHD_SPAN_VAR(span, "ghw", "subset-dp");
  span.SetArg("vertices", n);
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (budget != nullptr && !budget->Tick()) return std::nullopt;
    solve_mask(mask);
  }
  return static_cast<int>(dp[full]);
}

}  // namespace ghd
