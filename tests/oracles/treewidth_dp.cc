#include "oracles/treewidth_dp.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace ghd {

VertexSet NeighborsThroughEliminated(const Graph& g,
                                     const VertexSet& eliminated, int v) {
  // BFS from v where only eliminated vertices may be traversed; collect the
  // non-eliminated frontier.
  VertexSet result(g.num_vertices());
  VertexSet visited(g.num_vertices());
  visited.Set(v);
  std::vector<int> stack = {v};
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    g.Neighbors(u).ForEach([&](int w) {
      if (visited.Test(w)) return;
      visited.Set(w);
      if (eliminated.Test(w)) {
        stack.push_back(w);
      } else {
        result.Set(w);
      }
    });
  }
  result.Reset(v);
  return result;
}

std::optional<int> TreewidthBySubsetDp(const Graph& g) {
  const int n = g.num_vertices();
  if (n > kMaxDpVertices) return std::nullopt;
  if (n == 0) return -1;

  // dp[mask] = minimum over orderings of the eliminated set `mask` of the
  // maximum elimination degree; iterate masks in increasing popcount-free
  // order (any increasing numeric order works: mask \ {v} < mask).
  const uint32_t full = n == 32 ? 0xffffffffu : ((uint32_t{1} << n) - 1);
  std::vector<uint8_t> dp(static_cast<size_t>(full) + 1, 0);
  auto to_vertexset = [n](uint32_t mask) {
    VertexSet s(n);
    for (int v = 0; v < n; ++v) {
      if ((mask >> v) & 1) s.Set(v);
    }
    return s;
  };
  for (uint32_t mask = 1; mask <= full; ++mask) {
    int best = n;  // elimination degrees never exceed n - 1
    for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
      const int v = std::countr_zero(bits);
      const uint32_t rest = mask & ~(uint32_t{1} << v);
      const VertexSet eliminated = to_vertexset(rest);
      const int degree =
          NeighborsThroughEliminated(g, eliminated, v).Count();
      best = std::min(best, std::max<int>(dp[rest], degree));
    }
    GHD_CHECK(best <= 255);
    dp[mask] = static_cast<uint8_t>(best);
  }
  return static_cast<int>(dp[full]);
}

}  // namespace ghd
