#include "core/ghw_exact.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "core/ghw_lower.h"
#include "core/ghw_upper.h"
#include "hypergraph/components.h"
#include "hypergraph/flat_hypergraph.h"
#include "hypergraph/kernels.h"
#include "obs/obs.h"
#include "setcover/set_cover.h"
#include "td/lower_bounds.h"
#include "util/check.h"
#include "util/hash_mix.h"
#include "util/set_interner.h"

namespace ghd {
namespace {

// State of one exact-GHW search outside the current branch: the incumbent
// (upper bound + witness ordering), the budget counters, and the exact-cover
// memo. The branch itself owns its elimination prefix and residual graph.
struct Shared {
  const Hypergraph* h;
  VertexSet covered;  // Vertices that occur in some hyperedge.
  // Stop as soon as the incumbent width is <= this value (0 = disabled);
  // set only by the decision procedure GhwAtMost.
  int stop_at_width = 0;
  Budget* budget = nullptr;

  long nodes = 0;
  bool hit_stop_width = false;
  int ub = 0;
  std::vector<int> best_ordering;

  // Exact cover sizes are reused heavily across branches (the same bag shows
  // up under many prefixes), so they are memoized search-wide. Bags are
  // interned and the memo is keyed by the 32-bit id — integer probes, no
  // bitsets in the map. Ids must not outlive `interner`; both live here.
  SetInterner interner;
  std::unordered_map<uint32_t, int, IdHash> cover_cache;

  // Candidate edges for covering `target`: only edges meeting it matter, and
  // the incidence bitsets find them word-parallel instead of scanning all
  // hyperedges inside the cover solvers.
  std::vector<VertexSet> CoverCandidates(const VertexSet& target) const {
    const FlatHypergraph& flat = h->Flat();
    std::vector<VertexSet> candidates;
    kernels::FlatEdgesIntersecting(flat, target).ForEach([&](int e) {
      candidates.push_back(flat.edge_bits().RowAsVertexSet(e));
    });
    return candidates;
  }

  // The cover cache never holds truncated values: the cover solver runs
  // unbudgeted (small exact subproblems), and the GHD_CHECK enforces it.
  // This is the same cache rule the k-decider follows for its memo — a
  // truncated run must never poison a cache entry (util/resource_governor.h).
  int ExactCoverSize(const VertexSet& bag) {
    bool inserted = false;
    const uint32_t id = interner.Intern(bag, &inserted);
    if (!inserted) {
      const auto hit = cover_cache.find(id);
      if (hit != cover_cache.end()) {
        GHD_COUNT(kCoverCacheHits);
        return hit->second;
      }
    }
    GHD_COUNT(kCoverCacheMisses);
    auto size = ExactSetCoverSize(bag, CoverCandidates(bag));
    GHD_CHECK(size.has_value());
    GHD_HISTO(kCoverSize, *size);
    budget->Charge(static_cast<size_t>((bag.universe_size() + 63) / 64) * 8 +
                   sizeof(int));
    return cover_cache.emplace(id, *size).first->second;
  }

  bool Stopped() const { return budget->Stopped(); }

  bool ShouldStop() {
    if (stop_at_width > 0 && ub <= stop_at_width) {
      hit_stop_width = true;
      return true;
    }
    ++nodes;
    GHD_COUNT(kBnbNodes);
    if (!budget->Tick()) return true;
    return hit_stop_width;
  }

  void RecordSolution(int width, std::vector<int> ordering) {
    if (width < ub) {
      GHD_COUNT(kBnbSolutions);
      GHD_BOARD_SET(kBestUb, width);
      ub = width;
      best_ordering = std::move(ordering);
    }
  }
};

// The current branch of the search: elimination prefix and alive set; the
// residual primal graph is handed down through Recurse.
struct Search {
  Shared* s;
  std::vector<int> prefix;
  std::vector<char> alive;
  int alive_count = 0;

  void AcceptSolution(int width, const Graph& g) {
    std::vector<int> ordering = prefix;
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (alive[v]) ordering.push_back(v);
    }
    s->RecordSolution(width, std::move(ordering));
  }

  void EliminateInto(Graph* g, int v) {
    g->EliminateVertex(v);
    prefix.push_back(v);
    alive[v] = 0;
    --alive_count;
  }

  void UndoEliminate(int v) {
    ++alive_count;
    alive[v] = 1;
    prefix.pop_back();
  }

  // g = primal graph with the prefix eliminated; width_so_far = max exact
  // cover size of the bags closed so far on this path. `depth` counts real
  // branch levels (simplicial eliminations do not branch).
  void Recurse(const Graph& g, int width_so_far, int depth) {
    if (s->ShouldStop()) return;
    GHD_BOARD_SET(kFrontierDepth, depth);

    if (alive_count == 0) {
      if (width_so_far < s->ub) AcceptSolution(width_so_far, g);
      return;
    }

    // Finish-now bound: remaining elimination bags are subsets of the
    // remaining vertices, so each costs at most a cover of all of them.
    VertexSet remaining(g.num_vertices());
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (alive[v]) remaining.Set(v);
    }
    remaining &= s->covered;
    const int rest_cost = static_cast<int>(
        GreedySetCover(remaining, s->CoverCandidates(remaining)).size());
    const int finish_now = std::max(width_so_far, rest_cost);
    if (finish_now < s->ub) AcceptSolution(finish_now, g);
    if (rest_cost <= width_so_far) {  // Subtree can't beat finish-now.
      GHD_COUNT(kBnbPruneFinishNow);
      return;
    }

    // Node lower bound: tw bound on the residual graph, converted through
    // the k-set-cover combination.
    const int tw_lb = MinorMinWidthLowerBound(g);
    const int node_lb = GhwLowerBoundFromTwBound(*s->h, tw_lb);
    if (std::max(width_so_far, node_lb) >= s->ub) {
      GHD_COUNT(kBnbPruneLowerBound);
      return;
    }

    // Simplicial reduction: eliminating a simplicial vertex first never
    // increases the best achievable cover-width of the subtree.
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (!alive[v] || !g.IsSimplicial(v)) continue;
      VertexSet bag = g.Neighbors(v);
      bag.Set(v);
      bag &= s->covered;
      const int cost = s->ExactCoverSize(bag);
      const int next_width = std::max(width_so_far, cost);
      if (next_width >= s->ub) return;
      Graph next = g;
      EliminateInto(&next, v);
      Recurse(next, next_width, depth);  // No branching: same depth.
      UndoEliminate(v);
      return;
    }

    // Branch over alive vertices, cheapest bag cover first.
    std::vector<std::pair<int, int>> order;  // (cost, vertex)
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (!alive[v]) continue;
      VertexSet bag = g.Neighbors(v);
      bag.Set(v);
      bag &= s->covered;
      order.emplace_back(s->ExactCoverSize(bag), v);
    }
    std::sort(order.begin(), order.end());

    for (const auto& [cost, v] : order) {
      const int next_width = std::max(width_so_far, cost);
      if (next_width >= s->ub) {
        GHD_COUNT(kBnbPruneIncumbent);
        continue;
      }
      Graph next = g;
      EliminateInto(&next, v);
      Recurse(next, next_width, depth + 1);
      UndoEliminate(v);
      if (s->Stopped() || s->hit_stop_width) return;
    }
  }
};

ExactGhwResult ExactGhwImpl(const Hypergraph& h, const ExactGhwOptions& options,
                            Budget* budget, int stop_at_width = 0) {
  ExactGhwResult result;
  if (h.num_edges() == 0 || h.num_vertices() == 0) {
    result.exact = true;
    return result;
  }

  Shared shared;
  shared.h = &h;
  shared.covered = h.CoveredVertices();
  shared.stop_at_width = stop_at_width;
  shared.budget = budget;
  const Graph primal = h.PrimalGraph();

  // Incumbent from randomized heuristics with exact covers.
  GhwUpperBoundResult warm = GhwUpperBoundMultiRestart(
      h, std::max(1, options.heuristic_restarts), options.seed,
      CoverMode::kExact);
  shared.ub = warm.width;

  const int root_lb = GhwLowerBound(h);
  if (root_lb >= warm.width ||
      (stop_at_width > 0 && warm.width <= stop_at_width)) {
    result.lower_bound = root_lb;
    result.upper_bound = warm.width;
    result.exact = root_lb >= warm.width;
    result.outcome.complete = result.exact;
    result.best_ordering = std::move(warm.ordering);
    result.best_ghd = std::move(warm.ghd);
    return result;
  }

  Search root;
  root.s = &shared;
  root.alive.assign(primal.num_vertices(), 1);
  root.alive_count = primal.num_vertices();
  {
    GHD_SPAN_VAR(span, "ghw", "exact-bnb");
    span.SetArg("warm_ub", warm.width);
    root.Recurse(primal, 0, 0);
  }

  result.upper_bound = shared.ub;
  result.nodes_visited = shared.nodes;
  result.exact = !budget->Stopped() && !shared.hit_stop_width;
  result.outcome = budget->MakeOutcome();
  result.outcome.ticks = result.nodes_visited;
  result.outcome.complete = result.exact;
  result.lower_bound = result.exact ? result.upper_bound : root_lb;
  if (shared.best_ordering.empty()) {
    result.best_ordering = std::move(warm.ordering);
    result.best_ghd = std::move(warm.ghd);
  } else {
    result.best_ordering = shared.best_ordering;
    GhwUpperBoundResult witness =
        GhwFromOrdering(h, shared.best_ordering, CoverMode::kExact);
    GHD_CHECK(witness.width <= result.upper_bound);
    result.upper_bound = witness.width;
    result.best_ghd = std::move(witness.ghd);
  }
  return result;
}

}  // namespace

ExactGhwResult ExactGhw(const Hypergraph& h, const ExactGhwOptions& options) {
  Budget local_budget(options.time_limit_seconds, options.node_budget);
  Budget* budget = options.budget != nullptr ? options.budget : &local_budget;
  return ExactGhwImpl(h, options, budget);
}

ExactGhwResult ExactGhwComponentwise(const Hypergraph& h,
                                     const ExactGhwOptions& options) {
  const std::vector<std::vector<int>> groups = ConnectedEdgeComponents(h);
  if (groups.size() <= 1) return ExactGhw(h, options);
  const std::vector<Hypergraph> parts = SplitIntoComponents(h);
  GHD_CHECK(parts.size() == groups.size());

  // One governor across every component: the deadline and node budget are
  // global. (Before the governor each component silently got its own full
  // time limit — a k-component instance could run k times the deadline.)
  Budget local_budget(options.time_limit_seconds, options.node_budget);
  Budget* budget = options.budget != nullptr ? options.budget : &local_budget;

  // Solve the components one after another, stitching in component order.
  ExactGhwResult combined;
  combined.exact = true;
  VertexSet ordered(h.num_vertices());
  int previous_root = -1;
  for (size_t p = 0; p < parts.size(); ++p) {
    const ExactGhwResult part = ExactGhwImpl(parts[p], options, budget);
    combined.exact = combined.exact && part.exact;
    combined.lower_bound = std::max(combined.lower_bound, part.lower_bound);
    combined.upper_bound = std::max(combined.upper_bound, part.upper_bound);
    combined.nodes_visited += part.nodes_visited;
    // Stitch the witness: remap the part's guard ids to original edge ids
    // and chain the component subtrees (vertex-disjoint, so per-vertex
    // connectedness is unaffected).
    const int offset = combined.best_ghd.num_nodes();
    for (int node = 0; node < part.best_ghd.num_nodes(); ++node) {
      combined.best_ghd.bags.push_back(part.best_ghd.bags[node]);
      std::vector<int> mapped;
      for (int local : part.best_ghd.guards[node]) {
        mapped.push_back(groups[p][local]);
      }
      combined.best_ghd.guards.push_back(std::move(mapped));
    }
    for (const auto& [a, b] : part.best_ghd.tree_edges) {
      combined.best_ghd.tree_edges.emplace_back(a + offset, b + offset);
    }
    if (previous_root >= 0 && part.best_ghd.num_nodes() > 0) {
      combined.best_ghd.tree_edges.emplace_back(previous_root, offset);
    }
    if (part.best_ghd.num_nodes() > 0) previous_root = offset;
    // Combined witness ordering: this part's covered vertices in the order
    // the part's solver chose.
    const VertexSet part_covered = parts[p].CoveredVertices();
    for (int v : part.best_ordering) {
      if (part_covered.Test(v) && !ordered.Test(v)) {
        ordered.Set(v);
        combined.best_ordering.push_back(v);
      }
    }
  }
  // Remaining (isolated) vertices close the ordering.
  for (int v = 0; v < h.num_vertices(); ++v) {
    if (!ordered.Test(v)) combined.best_ordering.push_back(v);
  }
  combined.outcome = budget->MakeOutcome();
  combined.outcome.ticks = combined.nodes_visited;
  combined.outcome.complete = combined.exact;
  GHD_CHECK(combined.best_ghd.Validate(h).ok());
  GHD_CHECK(combined.best_ghd.Width() <= combined.upper_bound);
  return combined;
}

std::optional<bool> GhwAtMost(const Hypergraph& h, int k,
                              const ExactGhwOptions& options) {
  GHD_CHECK(k >= 0);
  Budget local_budget(options.time_limit_seconds, options.node_budget);
  Budget* budget = options.budget != nullptr ? options.budget : &local_budget;
  ExactGhwResult r = ExactGhwImpl(h, options, budget, k);
  if (r.upper_bound <= k) return true;
  if (r.exact) return false;
  if (r.lower_bound > k) return false;
  return std::nullopt;
}

}  // namespace ghd
