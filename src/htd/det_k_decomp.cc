#include "htd/det_k_decomp.h"

#include <algorithm>
#include <string>

#include "core/ghw_lower.h"
#include "obs/obs.h"

namespace ghd {

KDeciderResult HypertreeWidthAtMost(const Hypergraph& h, int k,
                                    const KDeciderOptions& options) {
  return DecideWidthK(h, OriginalEdgesFamily(h), k, options);
}

HypertreeWidthResult HypertreeWidth(const Hypergraph& h, int max_k,
                                    const KDeciderOptions& options) {
  HypertreeWidthResult result;
  if (h.num_edges() == 0) {
    result.exact = true;
    result.width = 0;
    return result;
  }
  if (max_k <= 0) max_k = h.num_edges();
  // ghw <= hw, so a GHW lower bound starts the iteration.
  const int start = std::max(1, GhwLowerBound(h));
  // The iteration is a textbook k-ladder: one context shares the interner,
  // cover index, and the monotone positive memo across every rung, so states
  // proven decomposable at width k are free at k+1.
  const GuardFamily family = OriginalEdgesFamily(h);
  KLadderContext ladder(h, family);
  for (int k = start; k <= max_k; ++k) {
    GHD_COUNT(kDetKIterations);
    GHD_SPAN_VAR(span, "htd", "det-k-decomp");
    span.SetArg("k", k);
    GHD_BOARD_SET(kWidthK, k);
    GHD_ATTR_SCOPE(attr, "k=" + std::to_string(k));
    KDeciderResult r = DecideWidthK(h, family, k, options, &ladder);
    result.states_visited += r.states_visited;
    result.outcome = r.outcome;
    result.outcome.ticks = result.states_visited;
    if (!r.decided) return result;  // exact stays false
    if (r.exists) {
      result.width = k;
      result.exact = true;
      result.decomposition = std::move(r.decomposition);
      return result;
    }
    result.last_failed_k = k;
  }
  return result;
}

}  // namespace ghd
