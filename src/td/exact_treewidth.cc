#include "td/exact_treewidth.h"

#include <algorithm>

#include "obs/obs.h"
#include "td/bucket_elimination.h"
#include "td/lower_bounds.h"
#include "td/ordering_heuristics.h"
#include "util/check.h"

namespace ghd {
namespace {

struct Search {
  Budget* budget = nullptr;
  long nodes = 0;

  int ub = 0;
  std::vector<int> best_ordering;
  std::vector<int> prefix;
  std::vector<char> alive;
  int alive_count = 0;

  // Records prefix + (remaining alive vertices in any order) as the
  // incumbent ordering of width `width`.
  void AcceptSolution(int width, const Graph& g) {
    ub = width;
    best_ordering = prefix;
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (alive[v]) best_ordering.push_back(v);
    }
  }

  // Explores orderings extending `prefix`; `g` is the graph with the prefix
  // eliminated, `width_so_far` the max elimination degree seen on this path.
  void Recurse(const Graph& g, int width_so_far) {
    ++nodes;
    GHD_COUNT(kTwNodes);
    if (!budget->Tick()) return;
    // Pruning rule 1: eliminating the rest in any order costs at most
    // max(width_so_far, alive_count - 1).
    const int finish_now = std::max(width_so_far, alive_count - 1);
    if (finish_now < ub) AcceptSolution(finish_now, g);
    if (alive_count - 1 <= width_so_far) return;  // Subtree already optimal.

    const int h = MinorMinWidthLowerBound(g);
    if (std::max(width_so_far, h) >= ub) return;

    // Reductions: a simplicial vertex (or an almost simplicial vertex whose
    // degree is at most a treewidth lower bound of the current graph) can be
    // eliminated next without loss of optimality.
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (!alive[v]) continue;
      const int d = g.Degree(v);
      const bool reducible =
          g.IsSimplicial(v) || (d <= h && g.IsAlmostSimplicial(v));
      if (reducible) {
        GHD_COUNT(kTwReductions);
        if (std::max(width_so_far, d) >= ub) return;
        Graph next = g;
        next.EliminateVertex(v);
        prefix.push_back(v);
        alive[v] = 0;
        --alive_count;
        Recurse(next, std::max(width_so_far, d));
        ++alive_count;
        alive[v] = 1;
        prefix.pop_back();
        return;
      }
    }

    // Branch on every alive vertex, cheapest fill first.
    std::vector<std::pair<long, int>> order;
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (!alive[v]) continue;
      order.emplace_back(static_cast<long>(g.EliminationFill(v)) *
                                 g.num_vertices() +
                             g.Degree(v),
                         v);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [key, v] : order) {
      (void)key;
      const int d = g.Degree(v);
      const int g_next = std::max(width_so_far, d);
      if (g_next >= ub) continue;
      Graph next = g;
      next.EliminateVertex(v);
      prefix.push_back(v);
      alive[v] = 0;
      --alive_count;
      Recurse(next, g_next);
      ++alive_count;
      alive[v] = 1;
      prefix.pop_back();
      if (budget->Stopped()) return;
    }
  }
};

}  // namespace

ExactTreewidthResult ExactTreewidth(const Graph& g,
                                    const ExactTreewidthOptions& options) {
  ExactTreewidthResult result;
  const int n = g.num_vertices();
  if (n == 0) {
    result.exact = true;
    result.lower_bound = result.upper_bound = -1;
    return result;
  }

  Budget local_budget(options.time_limit_seconds, options.node_budget);
  Budget* budget = options.budget != nullptr ? options.budget : &local_budget;

  Search search;
  search.budget = budget;
  search.alive.assign(n, 1);
  search.alive_count = n;

  // Warm start: min-fill ordering.
  search.best_ordering = MinFillOrdering(g);
  search.ub = EliminationWidth(g, search.best_ordering);

  const int root_lb = TreewidthLowerBound(g);
  if (root_lb >= search.ub) {
    result.lower_bound = result.upper_bound = search.ub;
    result.exact = true;
    result.best_ordering = search.best_ordering;
    return result;
  }

  {
    GHD_SPAN_VAR(span, "tw", "exact-treewidth");
    span.SetArg("vertices", n);
    search.Recurse(g, 0);
  }

  result.upper_bound = search.ub;
  result.best_ordering = search.best_ordering;
  result.nodes_visited = search.nodes;
  result.exact = !budget->Stopped();
  result.lower_bound = result.exact ? search.ub : root_lb;
  result.outcome = budget->MakeOutcome();
  result.outcome.ticks = search.nodes;
  result.outcome.complete = result.exact;
  GHD_DCHECK(EliminationWidth(g, result.best_ordering) <= result.upper_bound);
  return result;
}

}  // namespace ghd
