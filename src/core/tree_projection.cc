#include "core/tree_projection.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "util/check.h"
#include "util/set_interner.h"

namespace ghd {

Result<Hypergraph> KFoldUnionHypergraph(const Hypergraph& h, int k,
                                        size_t max_edges, Budget* budget) {
  GHD_CHECK(k >= 1);
  Budget local_budget;
  if (budget == nullptr) budget = &local_budget;

  // Iterative frontier over edge combinations, mirroring the closure
  // enumerator in core/bip.cc: level t holds unions of t distinct edges;
  // each entry remembers the smallest edge index not yet combined in, and a
  // map keyed on interned ids keeps the minimum such index per reached set
  // (re-enqueueing on a strictly smaller arrival), which makes the sorted
  // prefix path of every union of <= k edges reachable.
  SetInterner interner;
  struct Entry {
    uint32_t id;
    int from;
  };
  std::vector<Entry> frontier;
  std::vector<Entry> next;
  std::unordered_map<uint32_t, int> best_from;
  std::vector<uint32_t> emitted;  // first-emission order

  bool overflow = false;
  auto emit = [&](const VertexSet& s, int from) -> bool {
    if (!budget->Tick()) return false;
    const uint32_t id = interner.Intern(s);
    auto it = best_from.find(id);
    if (it == best_from.end()) {
      if (emitted.size() >= max_edges) {  // would exceed the cap: give up
        overflow = true;
        return false;
      }
      best_from.emplace(id, from);
      emitted.push_back(id);
      next.push_back(Entry{id, from});
    } else if (it->second > from) {
      it->second = from;
      next.push_back(Entry{id, from});
    }
    return true;
  };

  for (int e = 0; e < h.num_edges(); ++e) {
    if (!emit(h.edge(e), e + 1)) break;
  }
  frontier.swap(next);
  for (int level = 2; level <= k && !frontier.empty() && !overflow &&
                      !budget->Stopped();
       ++level) {
    GHD_HISTO(kClosureFrontierSize, static_cast<long>(frontier.size()));
    for (const Entry& entry : frontier) {
      const VertexSet& base = interner.Resolve(entry.id);
      bool stop = false;
      for (int f = entry.from; f < h.num_edges(); ++f) {
        VertexSet s = base;
        s |= h.edge(f);
        if (s == base) continue;  // absorbed edge: no new union
        if (!emit(s, f + 1)) {
          stop = true;
          break;
        }
      }
      if (stop) break;
    }
    frontier.swap(next);
  }
  if (budget->Stopped()) {
    return Status::ResourceExhausted(
        std::string("H^[k] enumeration stopped: ") +
        StopReasonName(budget->reason()));
  }
  if (overflow) {
    return Status::ResourceExhausted("H^[k] exceeds " +
                                     std::to_string(max_edges) + " edges");
  }

  std::vector<std::string> vertex_names;
  vertex_names.reserve(h.num_vertices());
  for (int v = 0; v < h.num_vertices(); ++v) {
    vertex_names.push_back(h.vertex_name(v));
  }
  std::vector<std::string> edge_names;
  std::vector<VertexSet> unions;
  edge_names.reserve(emitted.size());
  unions.reserve(emitted.size());
  for (size_t i = 0; i < emitted.size(); ++i) {
    edge_names.push_back("u" + std::to_string(i));
    unions.push_back(interner.Resolve(emitted[i]));
  }
  return Hypergraph(std::move(vertex_names), std::move(edge_names),
                    std::move(unions));
}

TreeProjectionResult TreeProjectionExists(const Hypergraph& h,
                                          const Hypergraph& g,
                                          const KDeciderOptions& options) {
  GHD_CHECK(g.num_vertices() == h.num_vertices());
  GuardFamily family;
  family.guards = g.edges();
  family.parent_edge.assign(g.num_edges(), -1);
  KDeciderResult r = DecideWidthK(h, family, 1, options);
  TreeProjectionResult result;
  result.decided = r.decided;
  result.exists = r.decided && r.exists;
  result.states_visited = r.states_visited;
  result.outcome = r.outcome;
  if (result.exists) {
    result.witness = r.decomposition.ToTreeDecomposition();
    Status valid = result.witness.ValidateForHypergraph(h);
    if (!valid.ok()) {
      result.decided = false;
      result.exists = false;
      result.diagnostic = "witness is not a tree decomposition of H: " +
                          valid.message();
      return result;
    }
    // Every bag must fit inside some G-edge (the sandwich condition). A
    // G-edge contains the bag iff it contains every bag vertex, so the
    // candidates are the intersection of G's per-vertex incidence bitsets —
    // no rescan of all edges per bag. A violation is an engine bug (the
    // decider constructs bags as subsets of single guards); report it as
    // undecided-with-diagnostic rather than aborting the process.
    for (size_t b = 0; b < result.witness.bags.size(); ++b) {
      const VertexSet& bag = result.witness.bags[b];
      VertexSet candidates = VertexSet::Full(g.num_edges());
      bag.ForEach([&](int v) { candidates &= g.IncidentEdges(v); });
      if (candidates.Empty()) {
        result.decided = false;
        result.exists = false;
        result.diagnostic = "sandwich violation: bag " + std::to_string(b) +
                            " (" + std::to_string(bag.Count()) +
                            " vertices) fits in no G-edge";
        result.witness = TreeDecomposition{};
        return result;
      }
    }
  }
  return result;
}

TreeProjectionResult GhwAtMostViaTreeProjection(const Hypergraph& h, int k,
                                                size_t max_kfold_edges,
                                                const KDeciderOptions& options) {
  Result<Hypergraph> kfold =
      KFoldUnionHypergraph(h, k, max_kfold_edges, options.budget);
  if (!kfold.ok()) {
    TreeProjectionResult result;
    result.diagnostic = kfold.status().message();
    if (options.budget != nullptr) {
      result.outcome = options.budget->MakeOutcome();
    }
    return result;
  }
  return TreeProjectionExists(h, kfold.value(), options);
}

}  // namespace ghd
