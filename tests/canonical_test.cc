// Canonical fingerprinting: isomorphism-differential tests (random
// relabelings keep the key), symmetric families that must finish inside a
// small node budget, golden keys that persisted cache files depend on,
// near-miss pairs (same degree profiles, distinct keys), and the interaction
// with subsumed-edge reduction and witness rehydration.
#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "cache/cached_solver.h"
#include "gen/circuits.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "htd/det_k_decomp.h"
#include "hypergraph/canonical.h"
#include "hypergraph/hg_io.h"
#include "hypergraph/hypergraph_builder.h"
#include "hypergraph/reduce.h"
#include "util/rng.h"

namespace ghd {
namespace {

std::vector<int> RandomPerm(int n, Rng* rng) {
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  rng->Shuffle(&perm);
  return perm;
}

// Canonicalizes h and a random relabeling of h and asserts both agree on the
// key; returns the key.
InstanceKey ExpectInvariantKey(const Hypergraph& h, uint64_t seed) {
  const CanonicalFormResult base = Canonicalize(h);
  EXPECT_TRUE(base.canonical);
  Rng rng(seed);
  const Hypergraph scrambled = RelabeledHypergraph(
      h, RandomPerm(h.num_vertices(), &rng), RandomPerm(h.num_edges(), &rng));
  const CanonicalFormResult other = Canonicalize(scrambled);
  EXPECT_TRUE(other.canonical);
  EXPECT_EQ(base.key, other.key)
      << "key not invariant under relabeling (seed " << seed << ")";
  return base.key;
}

// A 2-uniform hypergraph from an edge list over vertices 0..n-1.
Hypergraph GraphHypergraph(int n, const std::vector<std::pair<int, int>>& es) {
  Graph g(n);
  for (const auto& [u, v] : es) g.AddEdge(u, v);
  return HypergraphBuilder::FromGraph(g);
}

Hypergraph K33() {
  std::vector<std::pair<int, int>> es;
  for (int a = 0; a < 3; ++a) {
    for (int b = 3; b < 6; ++b) es.push_back({a, b});
  }
  return GraphHypergraph(6, es);
}

TEST(CanonicalTest, KeyInvariantAcrossFamilies) {
  const Hypergraph families[] = {
      Grid2dHypergraph(3, 4),       CycleHypergraph(9),
      TriangleStripHypergraph(5),   StarHypergraph(6, 3),
      WindowPathHypergraph(20, 4, 2), CliqueHypergraph(5),
      HypercubeHypergraph(3),
  };
  uint64_t seed = 1;
  for (const Hypergraph& h : families) {
    for (int rep = 0; rep < 5; ++rep) ExpectInvariantKey(h, seed++);
  }
}

TEST(CanonicalTest, KeyInvariantOnRandomInstances) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    ExpectInvariantKey(RandomUniformHypergraph(14, 10, 3, seed), 100 + seed);
    ExpectInvariantKey(
        RandomBoundedIntersectionHypergraph(16, 9, 4, 1, seed), 200 + seed);
  }
}

TEST(CanonicalTest, RelabeledHypergraphRoundTrip) {
  const Hypergraph h = Grid2dHypergraph(3, 3);
  Rng rng(7);
  const std::vector<int> vperm = RandomPerm(h.num_vertices(), &rng);
  const std::vector<int> eperm = RandomPerm(h.num_edges(), &rng);
  const Hypergraph g = RelabeledHypergraph(h, vperm, eperm);
  ASSERT_EQ(g.num_vertices(), h.num_vertices());
  ASSERT_EQ(g.num_edges(), h.num_edges());
  for (int e = 0; e < h.num_edges(); ++e) {
    // Edge e moved to eperm[e] and carries its name; members mapped by vperm.
    EXPECT_EQ(g.edge_name(eperm[e]), h.edge_name(e));
    VertexSet expected(h.num_vertices());
    h.edge(e).ForEach([&](int v) { expected.Set(vperm[v]); });
    EXPECT_EQ(g.edge(eperm[e]), expected);
  }
}

// C6 vs two disjoint C3s: same vertex count, edge count, and degree/arity
// profiles, and plain 1-WL refinement cannot split them apart on graphs of
// this kind — telling them apart exercises the intersection profile and the
// individualization search.
TEST(CanonicalTest, DistinguishesC6FromTwoTriangles) {
  HypergraphBuilder b;
  for (int i = 0; i < 3; ++i) {
    b.AddEdge("a" + std::to_string(i),
              {"x" + std::to_string(i), "x" + std::to_string((i + 1) % 3)});
    b.AddEdge("b" + std::to_string(i),
              {"y" + std::to_string(i), "y" + std::to_string((i + 1) % 3)});
  }
  const Hypergraph two_triangles = std::move(b).Build();
  const Hypergraph c6 = CycleHypergraph(6);
  ASSERT_EQ(c6.num_vertices(), two_triangles.num_vertices());
  ASSERT_EQ(c6.num_edges(), two_triangles.num_edges());
  EXPECT_NE(Canonicalize(c6).key, Canonicalize(two_triangles).key);
}

// Petersen vs C5 x K2 (the pentagonal prism): both 3-regular on 10 vertices
// with 15 edges — a classic near-miss pair for degree-based invariants.
TEST(CanonicalTest, DistinguishesPetersenFromPrism) {
  const Graph petersen = PetersenGraph();
  HypergraphBuilder pb;
  for (int v = 0; v < petersen.num_vertices(); ++v) {
    petersen.Neighbors(v).ForEach([&](int u) {
      if (u > v) {
        pb.AddEdge("e" + std::to_string(v) + "_" + std::to_string(u),
                   {"v" + std::to_string(v), "v" + std::to_string(u)});
      }
    });
  }
  const Hypergraph petersen_h = std::move(pb).Build();

  HypergraphBuilder qb;
  auto name = [](int ring, int i) {
    return (ring == 0 ? "o" : "i") + std::to_string(i);
  };
  for (int i = 0; i < 5; ++i) {
    qb.AddEdge("o" + std::to_string(i), {name(0, i), name(0, (i + 1) % 5)});
    qb.AddEdge("i" + std::to_string(i), {name(1, i), name(1, (i + 1) % 5)});
    qb.AddEdge("s" + std::to_string(i), {name(0, i), name(1, i)});
  }
  const Hypergraph prism_h = std::move(qb).Build();
  ASSERT_EQ(petersen_h.num_vertices(), prism_h.num_vertices());
  ASSERT_EQ(petersen_h.num_edges(), prism_h.num_edges());
  EXPECT_NE(Canonicalize(petersen_h).key, Canonicalize(prism_h).key);
}

TEST(CanonicalTest, ParallelEdgesAndIsolatedVerticesAreHandled) {
  HypergraphBuilder b;
  b.AddEdge("e1", {"a", "b"});
  b.AddEdge("e2", {"a", "b"});
  b.AddEdge("e3", {"b", "c"});
  b.AddVertex("isolated1");
  b.AddVertex("isolated2");
  const Hypergraph h = std::move(b).Build();
  ExpectInvariantKey(h, 42);
}

// Highly symmetric families: orbit pruning at every level of the search plus
// the backjump on a proven automorphism keep them far below the node budget.
// The 512-node bound is 8x under the default budget, so a slide back to a
// factorial search (the budget-exhausting clique_8 or star_12 of root-only
// pruning) fails here instead of silently degrading to non-canonical keys.
TEST(CanonicalTest, SymmetricFamiliesStayCanonical) {
  std::vector<std::pair<std::string, Hypergraph>> families;
  for (int n = 6; n <= 10; ++n) {
    families.emplace_back("clique_" + std::to_string(n), CliqueHypergraph(n));
  }
  families.emplace_back("star_12_4", StarHypergraph(12, 4));
  families.emplace_back("star_20_3", StarHypergraph(20, 3));
  families.emplace_back("bridge_10", BridgeHypergraph(10));
  families.emplace_back("hypercube_4", HypercubeHypergraph(4));
  families.emplace_back("k33", K33());
  families.emplace_back("petersen",
                        HypergraphBuilder::FromGraph(PetersenGraph()));
  Rng rng(23);
  for (const auto& [name, h] : families) {
    const CanonicalFormResult base = Canonicalize(h);
    EXPECT_TRUE(base.canonical) << name;
    EXPECT_LE(base.nodes_explored, 512) << name;
    for (int rep = 0; rep < 5; ++rep) {
      const CanonicalFormResult other = Canonicalize(RelabeledHypergraph(
          h, RandomPerm(h.num_vertices(), &rng),
          RandomPerm(h.num_edges(), &rng)));
      EXPECT_TRUE(other.canonical) << name;
      EXPECT_LE(other.nodes_explored, 512) << name;
      EXPECT_EQ(base.key, other.key) << name << " relabeling " << rep;
    }
  }
}

// A 3-regular disjoint union of K4, the triangular prism and an 8-vertex
// cubic graph: 1-WL sees 18 alike vertices, and the search proves
// automorphisms inside one component while another holds the individualized
// prefix. Only those that fix the prefix may prune a node's children; an
// automorphism that moves a prefix vertex says nothing about the node's
// subtree. Folding it in anyway loses the minimum leaf on a large share of
// relabelings of this instance, so the key stops being invariant.
TEST(CanonicalTest, PruningRespectsTheIndividualizedPrefix) {
  const Hypergraph h = GraphHypergraph(
      18, {{0, 1},   {0, 2},   {0, 3},   {1, 2},   {1, 3},   {2, 3},
           {4, 6},   {4, 7},   {4, 9},   {5, 6},   {5, 7},   {5, 8},
           {6, 9},   {7, 8},   {8, 9},   {10, 11}, {10, 12}, {10, 14},
           {11, 15}, {11, 17}, {12, 13}, {12, 17}, {13, 14}, {13, 16},
           {14, 15}, {15, 16}, {16, 17}});
  for (uint64_t seed = 300; seed < 310; ++seed) ExpectInvariantKey(h, seed);
}

// Golden keys of instances that were already canonical before orbit pruning
// reached below the root. Pruning skips only automorphic images of explored
// subtrees, so the minimum leaf encoding — and with it every key a persisted
// cache file holds — must not move. A change here needs a cache format bump
// (cache/decomp_cache.cc).
TEST(CanonicalTest, PinnedKeysAreStable) {
  const std::pair<Hypergraph, const char*> pinned[] = {
      {Grid2dHypergraph(5, 5), "bbc3c95a6920fed2694bf929309d3157"},
      {CycleHypergraph(256), "66dc6ca0d34cafbf6100e1260bf04586"},
      {TriangleStripHypergraph(64), "b85af17a26d03decad73f852f8f169f4"},
      {WindowPathHypergraph(160, 6, 3), "579fafbd1e3b60ed95e2836384ae0f5c"},
      {BridgeHypergraph(6), "c5d0fd1dcfcdf025809f6c328ce51b5e"},
      {HypercubeHypergraph(4), "22d1aff0e9257941d6eea9463898cb56"},
      {RandomUniformHypergraph(16, 16, 3, 11),
       "fd62e40f211c3bc7b9a998f63065fbe5"},
  };
  for (const auto& [h, hex] : pinned) {
    const CanonicalFormResult r = Canonicalize(h);
    EXPECT_TRUE(r.canonical) << hex;
    EXPECT_EQ(r.key.ToHex(), hex);
  }
}

// Symmetric near-miss pairs: equal vertex and edge counts, both 3-regular,
// both with large automorphism groups — the pruned search must still tell
// them apart. K3,3 vs the triangular prism; the 3-cube vs two disjoint K4.
TEST(CanonicalTest, DistinguishesSymmetricNearMisses) {
  const Hypergraph prism = GraphHypergraph(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {0, 3}, {1, 4},
          {2, 5}});
  std::vector<std::pair<int, int>> k4s;
  for (int base : {0, 4}) {
    for (int a = 0; a < 4; ++a) {
      for (int b = a + 1; b < 4; ++b) k4s.push_back({base + a, base + b});
    }
  }
  const Hypergraph two_k4 = GraphHypergraph(8, k4s);
  const std::pair<Hypergraph, Hypergraph> pairs[] = {
      {K33(), prism}, {HypercubeHypergraph(3), two_k4}};
  for (const auto& [a, b] : pairs) {
    ASSERT_EQ(a.num_vertices(), b.num_vertices());
    ASSERT_EQ(a.num_edges(), b.num_edges());
    const CanonicalFormResult ka = Canonicalize(a);
    const CanonicalFormResult kb = Canonicalize(b);
    EXPECT_TRUE(ka.canonical && kb.canonical);
    EXPECT_NE(ka.key, kb.key);
  }
}

TEST(CanonicalTest, NodeBudgetFallbackIsDeterministic) {
  const Hypergraph h = CycleHypergraph(24);
  CanonicalizeOptions tight;
  tight.max_nodes = 2;
  const CanonicalFormResult a = Canonicalize(h, tight);
  const CanonicalFormResult b = Canonicalize(h, tight);
  EXPECT_FALSE(a.canonical);
  EXPECT_EQ(a.key, b.key) << "fallback keys must be deterministic";
  // The truncated key must never collide with the canonical key: exact-repeat
  // matching only.
  const CanonicalFormResult full = Canonicalize(h);
  EXPECT_TRUE(full.canonical);
  EXPECT_NE(a.key, full.key);
}

TEST(CanonicalTest, PermutationsAreValid) {
  const Hypergraph h = TriangleStripHypergraph(4);
  const CanonicalFormResult r = Canonicalize(h);
  std::vector<int> vseen(h.num_vertices(), 0);
  for (int v : r.vertex_perm) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, h.num_vertices());
    ++vseen[v];
  }
  EXPECT_TRUE(std::all_of(vseen.begin(), vseen.end(),
                          [](int c) { return c == 1; }));
  std::vector<int> eseen(h.num_edges(), 0);
  for (int e : r.edge_perm) {
    ASSERT_GE(e, 0);
    ASSERT_LT(e, h.num_edges());
    ++eseen[e];
  }
  EXPECT_TRUE(std::all_of(eseen.begin(), eseen.end(),
                          [](int c) { return c == 1; }));
}

TEST(CanonicalTest, CanonicalInstanceIsLabelIndependent) {
  // The canonical relabeling of any two isomorphic instances is the *same*
  // hypergraph up to names — the property that makes cold cache entries
  // byte-identical across re-asks.
  const Hypergraph h = Grid2dHypergraph(3, 3);
  Rng rng(11);
  const Hypergraph g = RelabeledHypergraph(
      h, RandomPerm(h.num_vertices(), &rng), RandomPerm(h.num_edges(), &rng));
  const Hypergraph ch = CanonicalInstance(PrepareInstance(h));
  const Hypergraph cg = CanonicalInstance(PrepareInstance(g));
  ASSERT_EQ(ch.num_edges(), cg.num_edges());
  for (int e = 0; e < ch.num_edges(); ++e) {
    EXPECT_EQ(ch.edge(e), cg.edge(e)) << "edge " << e;
  }
}

// --- reduction + rehydration -----------------------------------------------

TEST(CanonicalTest, ReductionPreservesVerdictsOnCorpus) {
  const char* corpus[] = {"triangle.hg", "grid3x3.hg", "acyclic_star.hg",
                         "bridge_3.hg", "example.hg"};
  for (const char* file : corpus) {
    Result<Hypergraph> parsed =
        LoadHg(std::string(GHD_DATA_DIR) + "/" + file);
    ASSERT_TRUE(parsed.ok()) << file;
    const Hypergraph& h = parsed.value();
    const ReducedHypergraph r = RemoveSubsumedEdgesMapped(h);
    const HypertreeWidthResult orig = HypertreeWidth(h);
    const HypertreeWidthResult red = HypertreeWidth(r.reduced);
    ASSERT_TRUE(orig.exact && red.exact) << file;
    EXPECT_EQ(orig.width, red.width)
        << "reduction changed hw on " << file;
  }
}

TEST(CanonicalTest, MappedReductionAgreesWithUnmapped) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const Hypergraph h = RandomUniformHypergraph(12, 9, 3, seed);
    const ReducedHypergraph r = RemoveSubsumedEdgesMapped(h);
    const Hypergraph plain = RemoveSubsumedEdges(h);
    ASSERT_EQ(r.reduced.num_edges(), plain.num_edges());
    ASSERT_EQ(static_cast<int>(r.kept_edges.size()), r.reduced.num_edges());
    for (int e = 0; e < r.reduced.num_edges(); ++e) {
      EXPECT_EQ(r.reduced.edge(e), h.edge(r.kept_edges[e]));
    }
    // Every original edge maps to a surviving superset.
    for (int e = 0; e < h.num_edges(); ++e) {
      const int s = r.superset_of[e];
      ASSERT_GE(s, 0);
      ASSERT_LT(s, r.reduced.num_edges());
      EXPECT_TRUE(h.edge(e).IsSubsetOf(r.reduced.edge(s)));
    }
  }
}

TEST(CanonicalTest, RehydratedWitnessValidatesOnScrambledInstance) {
  Rng rng(3);
  const Hypergraph base = TriangleStripHypergraph(4);
  for (int rep = 0; rep < 4; ++rep) {
    const Hypergraph ask = RelabeledHypergraph(
        base, RandomPerm(base.num_vertices(), &rng),
        RandomPerm(base.num_edges(), &rng));
    const PreparedInstance p = PrepareInstance(ask);
    // Solve on the canonical instance, store flat, rehydrate onto `ask`.
    const Hypergraph canon_h = CanonicalInstance(p);
    const KDeciderResult solved = HypertreeWidthAtMost(canon_h, 2);
    ASSERT_TRUE(solved.decided && solved.exists);
    const FlatDecomposition flat = FlattenDecomposition(solved.decomposition);
    GeneralizedHypertreeDecomposition rehydrated;
    ASSERT_TRUE(RehydrateWitness(p, flat, &rehydrated));
    EXPECT_TRUE(rehydrated.Validate(ask).ok());
    EXPECT_LE(rehydrated.Width(), 2);
  }
}

}  // namespace
}  // namespace ghd
