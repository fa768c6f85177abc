// Exact treewidth by branch and bound over elimination orderings, with the
// classic reductions (simplicial / strongly almost simplicial vertices) and
// pruning rules from the QuickBB / BB-tw line of work. Anytime: on budget
// exhaustion it reports validated lower and upper bounds.
#ifndef GHD_TD_EXACT_TREEWIDTH_H_
#define GHD_TD_EXACT_TREEWIDTH_H_

#include <vector>

#include "graph/graph.h"
#include "util/resource_governor.h"

namespace ghd {

/// Budget for the exact search. Simplicial and strongly almost simplicial
/// vertices are always eliminated eagerly.
struct ExactTreewidthOptions {
  /// Wall-clock limit in seconds; <= 0 means unlimited. Ignored when
  /// `budget` is set.
  double time_limit_seconds = 0;
  /// Search node limit; <= 0 means unlimited. Ignored when `budget` is set.
  long node_budget = 0;
  /// Shared resource governor; when null a private budget is built from the
  /// two fields above. Ticked once per search node.
  Budget* budget = nullptr;
};

/// Outcome of the search. `upper_bound` always comes with a witnessing
/// elimination ordering; `exact` is true iff the search space was exhausted
/// (then lower_bound == upper_bound == treewidth). `outcome` reports why a
/// non-exact search stopped.
struct ExactTreewidthResult {
  int lower_bound = 0;
  int upper_bound = 0;
  bool exact = false;
  std::vector<int> best_ordering;
  long nodes_visited = 0;
  Outcome outcome;
};

/// Computes the treewidth of g (or bounds, under budget).
ExactTreewidthResult ExactTreewidth(const Graph& g,
                                    const ExactTreewidthOptions& options = {});

}  // namespace ghd

#endif  // GHD_TD_EXACT_TREEWIDTH_H_
