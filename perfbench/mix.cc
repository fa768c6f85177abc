// Instance families, the stratified cold stream and the repeat pool.
// Everything here is a pure function of its seed argument.
//
// The cold stream is stratified: every family contributes the same number
// of asks with the same k and kind schedule at every seed, and the
// structured families walk a fixed parameter schedule. The seed draws the
// random families' instances, the structured instances' perturbation edges,
// and the ask order. Run-to-run differences between seeds then come from
// instance content, not from how many asks of each family a seed happened
// to draw.
#include <set>
#include <string>
#include <utility>

#include "bench.h"
#include "gen/circuits.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "hypergraph/canonical.h"
#include "util/hash_mix.h"
#include "util/rng.h"

namespace perfbench {

using namespace ghd;

namespace {

// h plus `count` random edges of `arity` vertices: turns one structured
// family member into several pairwise non-isomorphic variants.
Hypergraph WithExtraEdges(const Hypergraph& h, int count, int arity,
                          Rng* rng) {
  std::vector<std::string> vnames, enames;
  std::vector<VertexSet> edges = h.edges();
  for (int v = 0; v < h.num_vertices(); ++v) vnames.push_back(h.vertex_name(v));
  for (int e = 0; e < h.num_edges(); ++e) enames.push_back(h.edge_name(e));
  const int n = h.num_vertices();
  for (int i = 0; i < count; ++i) {
    VertexSet s(n);
    while (s.Count() < arity && s.Count() < n) s.Set(rng->UniformInt(n));
    edges.push_back(std::move(s));
    enames.push_back(std::string("x").append(std::to_string(i)));
  }
  return Hypergraph(std::move(vnames), std::move(enames), std::move(edges));
}

// h without `count` random edges.
Hypergraph WithoutEdges(const Hypergraph& h, int count, Rng* rng) {
  std::vector<int> order(h.num_edges());
  for (int e = 0; e < h.num_edges(); ++e) order[e] = e;
  rng->Shuffle(&order);
  const std::set<int> dropped(order.begin(),
                              order.begin() + std::min<size_t>(count,
                                                               order.size()));
  std::vector<std::string> vnames, enames;
  std::vector<VertexSet> edges;
  for (int v = 0; v < h.num_vertices(); ++v) vnames.push_back(h.vertex_name(v));
  for (int e = 0; e < h.num_edges(); ++e) {
    if (dropped.count(e)) continue;
    enames.push_back(h.edge_name(e));
    edges.push_back(h.edge(e));
  }
  return Hypergraph(std::move(vnames), std::move(enames), std::move(edges));
}

struct Family {
  const char* name;
  bool anytime_ok;  // the 128+-vertex cycles take seconds of heuristics
};

// The cold families: the paper's NP-hard general case (random uniform), its
// tractable classes (bounded intersection, bounded degree), the CSP-library
// circuit shapes, grids and cliques, and three >= 128-vertex families whose
// VertexSets live on the heap and run the batched kernels.
const Family kFamilies[] = {
    {"random_uniform", true}, {"bip", true},    {"bounded_degree", true},
    {"circuit", true},        {"adder", true},  {"grid", true},
    {"clique", true},         {"window", true}, {"cycle", false},
    {"tristrip", true},
};

// Member j of family f. Structured families walk a fixed parameter schedule
// in j (the seed only places perturbation edges); random families draw from
// the seed.
Hypergraph FamilyMember(const std::string& f, int j, Rng* rng) {
  static const int kGrid[][2] = {{3, 3}, {3, 4}, {3, 5}, {4, 4},
                                 {4, 5}, {5, 5}, {3, 6}, {4, 6}};
  if (f == "random_uniform") {
    const int n = 14 + j % 9;
    return RandomUniformHypergraph(n, n - 2 + j % 6, 3, rng->Next());
  }
  if (f == "bip") {
    return RandomBoundedIntersectionHypergraph(20 + j % 9, 10 + j % 7, 4, 1,
                                               rng->Next());
  }
  if (f == "bounded_degree") {
    const int n = 20 + j % 11;
    return RandomBoundedDegreeHypergraph(n, 10 + j % (2 * n / 3 - 9), 3, 2,
                                         rng->Next());
  }
  if (f == "circuit") {
    return RandomCircuitHypergraph(6 + j % 5, 14 + j % 13, rng->Next());
  }
  if (f == "adder") {
    return WithExtraEdges(AdderHypergraph(3 + j % 8), j / 8, 3, rng);
  }
  if (f == "grid") {
    const int* rc = kGrid[j % 8];
    return WithExtraEdges(Grid2dHypergraph(rc[0], rc[1]), j / 8, 2, rng);
  }
  if (f == "clique") {
    // K6..K8 minus 1..12 edges, then K6..K8 plus 3-ary edges.
    const Hypergraph clique = CliqueHypergraph(6 + j % 3);
    return j / 3 < 12 ? WithoutEdges(clique, 1 + j / 3, rng)
                      : WithExtraEdges(clique, j / 3 - 11, 3, rng);
  }
  if (f == "window") {
    return WindowPathHypergraph(128 + 8 * (j % 8), 4 + j / 8, 2 + j % 3);
  }
  if (f == "cycle") return CycleHypergraph(128 + 4 * j);
  return TriangleStripHypergraph(64 + 2 * j);  // tristrip
}

}  // namespace

Hypergraph Relabel(const Hypergraph& h, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> vperm(h.num_vertices()), eperm(h.num_edges());
  for (size_t i = 0; i < vperm.size(); ++i) vperm[i] = static_cast<int>(i);
  for (size_t i = 0; i < eperm.size(); ++i) eperm[i] = static_cast<int>(i);
  rng.Shuffle(&vperm);
  rng.Shuffle(&eperm);
  return RelabeledHypergraph(h, vperm, eperm);
}

void ColdStream(int per_family, uint64_t seed, std::vector<Item>* items,
                std::vector<Ask>* asks) {
  Rng rng(seed);
  std::set<InstanceKey> seen;
  const auto admit = [&](Item item, int k, AskKind kind) {
    if (!seen.insert(PrepareInstance(item.h).key()).second) return false;
    Ask a;
    a.item = static_cast<int>(items->size());
    a.k = k;
    a.kind = kind;
    item.class_id = a.item;
    items->push_back(std::move(item));
    asks->push_back(a);
    return true;
  };
  Item repro;
  repro.family = "clique_8";
  repro.h = CliqueHypergraph(8);
  admit(std::move(repro), 4, AskKind::kDecide);
  // The budget-bound stratum: hw = 4, but the k = 3 rung needs far more
  // than the state budget, so each ask runs the ladder into the budget
  // (100-230 ms) and meets the ladder defect. A fixed stratum keeps the
  // decide tail made of the same kind of ask at every seed.
  static const int kBudgetBound[][2] = {{6, 6}, {6, 7}, {7, 7}, {6, 8},
                                        {6, 9}};
  for (const auto& rc : kBudgetBound) {
    Item item;
    item.family = "grid" + std::to_string(rc[0]) + "x" + std::to_string(rc[1]);
    item.h = Relabel(Grid2dHypergraph(rc[0], rc[1]), rng.Next());
    admit(std::move(item), 4, AskKind::kDecide);
  }
  Item cube;
  cube.family = "hypercube_4";
  cube.h = Relabel(HypercubeHypergraph(4), rng.Next());
  admit(std::move(cube), 4, AskKind::kDecide);
  for (const Family& f : kFamilies) {
    for (int j = 0; j < per_family; ++j) {
      // k cycles through {2, 3, 4}; every fourth ask is anytime.
      const int k = 2 + j % 3;
      const AskKind kind = f.anytime_ok && j % 4 == 3 ? AskKind::kAnytime
                                                      : AskKind::kDecide;
      Item item;
      item.family = f.name;
      item.anytime_ok = f.anytime_ok;
      for (int attempt = 0;; ++attempt) {
        GHD_CHECK(attempt < 64);
        item.h = FamilyMember(f.name, j, &rng);
        if (admit(item, k, kind)) break;
      }
    }
  }
  // The family asks' order is the seed's too; the fixed head stays first.
  GHD_CHECK(asks->size() >= static_cast<size_t>(kColdFixedAsks));
  std::vector<Ask> rest(asks->begin() + kColdFixedAsks, asks->end());
  rng.Shuffle(&rest);
  std::copy(rest.begin(), rest.end(), asks->begin() + kColdFixedAsks);
}

std::vector<Item> RepeatPool() {
  struct Class {
    const char* name;
    Hypergraph (*make)();
    bool anytime_ok;
  };
  // Zipf rank = position. clique_8 and star_12 exhaust the canonicalizer's
  // node budget and fall back to exact-repeat keys; cycles, grids and
  // tristrips are highly symmetric; the 128+-vertex members run the heap
  // bitsets. Decide-only classes are those whose anytime interval the tick
  // budget leaves open (each anytime ask would solve again) or whose
  // heuristics cost seconds.
  static const Class kClasses[] = {
      {"grid2d_5", [] { return Grid2dHypergraph(5, 5); }, true},
      {"tristrip_64", [] { return TriangleStripHypergraph(64); }, true},
      {"cycle_256", [] { return CycleHypergraph(256); }, false},
      {"window_160", [] { return WindowPathHypergraph(160, 6, 3); }, true},
      {"adder_6", [] { return AdderHypergraph(6); }, true},
      {"grid_3x6", [] { return Grid2dHypergraph(3, 6); }, true},
      {"bridge_6", [] { return BridgeHypergraph(6); }, true},
      {"circuit_20", [] { return RandomCircuitHypergraph(8, 20, 7); }, false},
      {"clique_8", [] { return CliqueHypergraph(8); }, true},
      {"tristrip_32", [] { return TriangleStripHypergraph(32); }, true},
      {"uniform_16",
       [] { return RandomUniformHypergraph(16, 16, 3, 11); }, false},
      {"adder_10", [] { return AdderHypergraph(10); }, true},
      {"cycle_64", [] { return CycleHypergraph(64); }, true},
      {"bip_20",
       [] { return RandomBoundedIntersectionHypergraph(20, 14, 4, 1, 13); },
       false},
      {"window_64", [] { return WindowPathHypergraph(64, 4, 2); }, true},
      {"clique_6", [] { return CliqueHypergraph(6); }, true},
      {"hypercube_3", [] { return HypercubeHypergraph(3); }, true},
      {"bdeg_24",
       [] { return RandomBoundedDegreeHypergraph(24, 14, 3, 2, 17); }, false},
      {"star_12", [] { return StarHypergraph(12, 4); }, true},
      {"grid_3x5", [] { return Grid2dHypergraph(3, 5); }, true},
      {"bridge_10", [] { return BridgeHypergraph(10); }, true},
      {"cycle_140", [] { return CycleHypergraph(140); }, false},
      {"adder_3", [] { return AdderHypergraph(3); }, true},
      {"grid2d_4", [] { return Grid2dHypergraph(4, 4); }, false},
  };
  std::vector<Item> pool;
  for (const Class& c : kClasses) {
    Item item;
    item.family = c.name;
    item.h = c.make();
    item.anytime_ok = c.anytime_ok;
    item.class_id = static_cast<int>(pool.size());
    pool.push_back(std::move(item));
  }
  return pool;
}

uint64_t StreamDigest(const std::vector<Item>& items,
                      const std::vector<Ask>& asks) {
  uint64_t d = 0x9e3779b97f4a7c15ull;
  for (const Ask& a : asks) {
    const Hypergraph& h = items[a.item].h;
    d = HashCombine(d, static_cast<uint64_t>(a.kind == AskKind::kDecide));
    d = HashCombine(d, static_cast<uint64_t>(a.k));
    d = HashCombine(d, static_cast<uint64_t>(h.num_vertices()));
    for (const VertexSet& e : h.edges()) {
      e.ForEach([&](int v) { d = HashCombine(d, static_cast<uint64_t>(v)); });
      d = HashCombine(d, 0xffffull);
    }
  }
  return d;
}

}  // namespace perfbench
