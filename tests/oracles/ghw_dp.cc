#include "oracles/ghw_dp.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "oracles/treewidth_dp.h"
#include "setcover/set_cover.h"
#include "util/check.h"

namespace ghd {

std::optional<int> GhwBySubsetDp(const Hypergraph& h) {
  const int n = h.num_vertices();
  if (n > kMaxGhwDpVertices) return std::nullopt;
  if (n == 0 || h.num_edges() == 0) return 0;

  const Graph primal = h.PrimalGraph();
  const VertexSet covered = h.CoveredVertices();
  const uint32_t full = (uint32_t{1} << n) - 1;
  std::vector<uint8_t> dp(static_cast<size_t>(full) + 1, 0);
  // The same bag recurs under many masks; memoize its exact cover size by
  // the bag's bit mask (n <= 22, so one word holds it).
  std::unordered_map<uint32_t, int> cover_cache;
  auto cover_cost = [&](const VertexSet& bag) {
    const auto key = static_cast<uint32_t>(bag.word_data()[0]);
    const auto hit = cover_cache.find(key);
    if (hit != cover_cache.end()) return hit->second;
    // Only edges meeting the bag can appear in a minimum cover (a disjoint
    // edge covers nothing of it). Every bag vertex is in `covered`, so a
    // cover exists.
    std::vector<VertexSet> candidates;
    for (int e = 0; e < h.num_edges(); ++e) {
      if (h.edge(e).Intersects(bag)) candidates.push_back(h.edge(e));
    }
    auto size = ExactSetCoverSize(bag, candidates);
    GHD_CHECK(size.has_value());
    return cover_cache.emplace(key, *size).first->second;
  };

  for (uint32_t mask = 1; mask <= full; ++mask) {
    int best = h.num_edges() + 1;
    for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
      const int v = std::countr_zero(bits);
      const uint32_t rest = mask & ~(uint32_t{1} << v);
      VertexSet bag = NeighborsThroughEliminated(
          primal, VertexSet::FromWord(n, rest), v);
      bag.Set(v);
      bag &= covered;
      best = std::min(best, std::max<int>(dp[rest], cover_cost(bag)));
    }
    GHD_CHECK(best <= 255);
    dp[mask] = static_cast<uint8_t>(best);
  }
  return static_cast<int>(dp[full]);
}

}  // namespace ghd
