#include <optional>

#include "core/ghw_exact.h"
#include "core/ghw_lower.h"
#include "core/ghw_upper.h"
#include "gen/circuits.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"
#include "hypergraph/hypergraph_builder.h"

namespace ghd {
namespace {

Hypergraph SmallExample() {
  HypergraphBuilder b;
  b.AddEdge("c1", {"x1", "x2", "x3"});
  b.AddEdge("c2", {"x1", "x5", "x6"});
  b.AddEdge("c3", {"x3", "x4", "x5"});
  return std::move(b).Build();
}

TEST(ExactGhwTest, SmallExampleIsWidth2) {
  ExactGhwResult r = ExactGhw(SmallExample());
  ASSERT_TRUE(r.exact);
  EXPECT_EQ(r.upper_bound, 2);
  EXPECT_EQ(r.lower_bound, 2);
  EXPECT_TRUE(r.best_ghd.Validate(SmallExample()).ok());
}

TEST(ExactGhwTest, AcyclicFamiliesHaveGhw1) {
  EXPECT_EQ(ExactGhw(StarHypergraph(6, 3)).upper_bound, 1);
  EXPECT_EQ(ExactGhw(WindowPathHypergraph(10, 3, 1)).upper_bound, 1);
  EXPECT_EQ(ExactGhw(WindowPathHypergraph(12, 4, 4)).upper_bound, 1);
}

TEST(ExactGhwTest, CycleGhwIs2) {
  for (int n = 3; n <= 8; ++n) {
    ExactGhwResult r = ExactGhw(CycleHypergraph(n));
    ASSERT_TRUE(r.exact) << n;
    EXPECT_EQ(r.upper_bound, 2) << n;
  }
}

TEST(ExactGhwTest, CliqueGhwIsCeilHalf) {
  // ghw(K_n with 2-ary edges) = ceil(n/2): the tw-forced bag of n vertices
  // costs ceil(n/2) edges, and the single-bag decomposition achieves it.
  for (int n = 3; n <= 8; ++n) {
    ExactGhwResult r = ExactGhw(CliqueHypergraph(n));
    ASSERT_TRUE(r.exact) << n;
    EXPECT_EQ(r.upper_bound, (n + 1) / 2) << n;
  }
}

TEST(ExactGhwTest, AdderFamilyIsWidth2) {
  for (int k = 1; k <= 4; ++k) {
    ExactGhwResult r = ExactGhw(AdderHypergraph(k));
    ASSERT_TRUE(r.exact) << k;
    EXPECT_EQ(r.upper_bound, 2) << k;
  }
}

TEST(ExactGhwTest, BridgeFamilyIsWidth2) {
  for (int k = 1; k <= 3; ++k) {
    ExactGhwResult r = ExactGhw(BridgeHypergraph(k));
    ASSERT_TRUE(r.exact) << k;
    EXPECT_EQ(r.upper_bound, 2) << k;
  }
}

TEST(ExactGhwTest, Grid2dKnownValues) {
  // ghw of the n x n grid (2-ary edges) = ceil((tw+1)/2) = ceil((n+1)/2)
  // for n >= 2: grid2 -> 2, grid3 -> 2, grid4 -> 3.
  EXPECT_EQ(ExactGhw(Grid2dHypergraph(2, 2)).upper_bound, 2);
  EXPECT_EQ(ExactGhw(Grid2dHypergraph(3, 3)).upper_bound, 2);
  ExactGhwResult g4 = ExactGhw(Grid2dHypergraph(4, 4));
  ASSERT_TRUE(g4.exact);
  EXPECT_EQ(g4.upper_bound, 3);
}

TEST(ExactGhwTest, TriangleStripIsWidth2) {
  for (int k = 1; k <= 4; ++k) {
    ExactGhwResult r = ExactGhw(TriangleStripHypergraph(k));
    ASSERT_TRUE(r.exact) << k;
    EXPECT_EQ(r.upper_bound, 2) << k;
  }
}

TEST(ExactGhwTest, WitnessAlwaysValidates) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Hypergraph h = RandomUniformHypergraph(10, 8, 3, seed);
    ExactGhwResult r = ExactGhw(h);
    ASSERT_TRUE(r.exact) << seed;
    EXPECT_TRUE(r.best_ghd.Validate(h).ok()) << seed;
    EXPECT_EQ(r.best_ghd.Width(), r.upper_bound) << seed;
    EXPECT_GE(r.upper_bound, GhwLowerBound(h)) << seed;
  }
}

TEST(ExactGhwTest, SandwichedByHeuristicBounds) {
  for (uint64_t seed = 10; seed < 16; ++seed) {
    Hypergraph h = RandomUniformHypergraph(11, 9, 3, seed);
    ExactGhwResult r = ExactGhw(h);
    ASSERT_TRUE(r.exact);
    GhwUpperBoundResult heuristic =
        GhwUpperBoundMultiRestart(h, 4, seed, CoverMode::kExact);
    EXPECT_LE(r.upper_bound, heuristic.width) << seed;
  }
}

TEST(ExactGhwTest, BudgetExhaustionGivesBounds) {
  Hypergraph h = RandomUniformHypergraph(30, 25, 4, 5);
  ExactGhwOptions options;
  options.node_budget = 3;
  options.heuristic_restarts = 1;
  ExactGhwResult r = ExactGhw(h, options);
  EXPECT_LE(r.lower_bound, r.upper_bound);
  EXPECT_TRUE(r.best_ghd.Validate(h).ok());
}

TEST(ExactGhwTest, EmptyHypergraph) {
  Hypergraph h({}, {}, {});
  ExactGhwResult r = ExactGhw(h);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.upper_bound, 0);
}

TEST(ExactGhwTest, SingleEdge) {
  HypergraphBuilder b;
  b.AddEdge("e", {"a", "b", "c"});
  ExactGhwResult r = ExactGhw(std::move(b).Build());
  ASSERT_TRUE(r.exact);
  EXPECT_EQ(r.upper_bound, 1);
}

TEST(ExactGhwTest, DisconnectedComponentsTakeMax) {
  // K6 (ghw 3) next to a disjoint star (ghw 1).
  HypergraphBuilder b;
  for (int u = 0; u < 6; ++u) {
    for (int v = u + 1; v < 6; ++v) {
      b.AddEdge("k" + std::to_string(u) + "_" + std::to_string(v),
                {"a" + std::to_string(u), "a" + std::to_string(v)});
    }
  }
  b.AddEdge("s1", {"z", "z1"});
  b.AddEdge("s2", {"z", "z2"});
  ExactGhwResult r = ExactGhw(std::move(b).Build());
  ASSERT_TRUE(r.exact);
  EXPECT_EQ(r.upper_bound, 3);
}

TEST(ComponentwiseTest, MatchesMonolithicOnDisconnected) {
  // Three components of different widths: clique (3), cycle (2), star (1).
  HypergraphBuilder b;
  for (int u = 0; u < 6; ++u) {
    for (int v = u + 1; v < 6; ++v) {
      b.AddEdge("k" + std::to_string(u) + "_" + std::to_string(v),
                {"a" + std::to_string(u), "a" + std::to_string(v)});
    }
  }
  for (int i = 0; i < 5; ++i) {
    b.AddEdge("c" + std::to_string(i),
              {"b" + std::to_string(i), "b" + std::to_string((i + 1) % 5)});
  }
  b.AddEdge("s1", {"z", "z1"});
  b.AddEdge("s2", {"z", "z2"});
  Hypergraph h = std::move(b).Build();
  ExactGhwResult mono = ExactGhw(h);
  ExactGhwResult comp = ExactGhwComponentwise(h);
  ASSERT_TRUE(mono.exact && comp.exact);
  EXPECT_EQ(comp.upper_bound, mono.upper_bound);
  EXPECT_EQ(comp.upper_bound, 3);
  EXPECT_TRUE(comp.best_ghd.Validate(h).ok());
  // The stitched ordering witnesses the same width.
  EXPECT_LE(GhwWidthFromOrdering(h, comp.best_ordering, CoverMode::kExact),
            comp.upper_bound);
}

TEST(ComponentwiseTest, ConnectedInputDelegates) {
  Hypergraph h = RandomUniformHypergraph(10, 8, 3, 3);
  ExactGhwResult comp = ExactGhwComponentwise(h);
  ExactGhwResult mono = ExactGhw(h);
  ASSERT_TRUE(comp.exact && mono.exact);
  EXPECT_EQ(comp.upper_bound, mono.upper_bound);
}

TEST(ComponentwiseTest, RandomDisconnectedAgreement) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    // Two random parts over disjoint vertex pools.
    HypergraphBuilder b;
    Hypergraph p1 = RandomUniformHypergraph(7, 5, 3, seed);
    Hypergraph p2 = RandomUniformHypergraph(7, 5, 3, seed + 50);
    for (int e = 0; e < p1.num_edges(); ++e) {
      std::vector<std::string> names;
      p1.edge(e).ForEach([&](int v) { names.push_back("L" + p1.vertex_name(v)); });
      b.AddEdge("L" + std::to_string(e), names);
    }
    for (int e = 0; e < p2.num_edges(); ++e) {
      std::vector<std::string> names;
      p2.edge(e).ForEach([&](int v) { names.push_back("R" + p2.vertex_name(v)); });
      b.AddEdge("R" + std::to_string(e), names);
    }
    Hypergraph h = std::move(b).Build();
    ExactGhwResult mono = ExactGhw(h);
    ExactGhwResult comp = ExactGhwComponentwise(h);
    ASSERT_TRUE(mono.exact && comp.exact) << seed;
    EXPECT_EQ(comp.upper_bound, mono.upper_bound) << seed;
    EXPECT_TRUE(comp.best_ghd.Validate(h).ok()) << seed;
  }
}

TEST(GhwAtMostTest, DecisionMatchesExact) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Hypergraph h = RandomUniformHypergraph(10, 8, 3, seed);
    ExactGhwResult r = ExactGhw(h);
    ASSERT_TRUE(r.exact);
    for (int k = 1; k <= r.upper_bound + 1; ++k) {
      std::optional<bool> decision = GhwAtMost(h, k);
      ASSERT_TRUE(decision.has_value()) << seed << " k=" << k;
      EXPECT_EQ(*decision, k >= r.upper_bound) << seed << " k=" << k;
    }
  }
}

TEST(GhwAtMostTest, TrueForLargeK) {
  Hypergraph h = SmallExample();
  std::optional<bool> d = GhwAtMost(h, 3);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(*d);
}

}  // namespace
}  // namespace ghd
