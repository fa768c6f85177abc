// Cross-checks of the library's branch-and-bound engines against the
// test-only subset-DP oracles (tests/oracles). The B&B engines always apply
// their simplicial / almost-simplicial reductions, so agreement with the DP,
// which applies none, is also what checks that the reductions are sound.
#include "core/ghw_exact.h"
#include "gen/circuits.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"
#include "hypergraph/hypergraph_builder.h"
#include "oracles/ghw_dp.h"
#include "oracles/treewidth_dp.h"
#include "td/exact_treewidth.h"

namespace ghd {
namespace {

TEST(TreewidthDpTest, NeighborsThroughEliminated) {
  // Path 0-1-2-3; eliminating 1 connects 0 and 2 "through" it.
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  VertexSet none(4);
  EXPECT_EQ(NeighborsThroughEliminated(g, none, 0).ToVector(),
            (std::vector<int>{1}));
  VertexSet e1 = VertexSet::Of(4, {1});
  EXPECT_EQ(NeighborsThroughEliminated(g, e1, 0).ToVector(),
            (std::vector<int>{2}));
  VertexSet e12 = VertexSet::Of(4, {1, 2});
  EXPECT_EQ(NeighborsThroughEliminated(g, e12, 0).ToVector(),
            (std::vector<int>{3}));
}

TEST(TreewidthDpTest, KnownValues) {
  EXPECT_EQ(TreewidthBySubsetDp(Graph(0)), -1);
  EXPECT_EQ(TreewidthBySubsetDp(Graph(5)), 0);  // edgeless
  EXPECT_EQ(TreewidthBySubsetDp(CycleGraph(6)), 2);
  EXPECT_EQ(TreewidthBySubsetDp(CliqueGraph(6)), 5);
  EXPECT_EQ(TreewidthBySubsetDp(GridGraph(3, 3)), 3);
  EXPECT_EQ(TreewidthBySubsetDp(GridGraph(4, 4)), 4);
}

TEST(TreewidthDpTest, RefusesOversizedGraphs) {
  EXPECT_FALSE(TreewidthBySubsetDp(Graph(kMaxDpVertices + 1)).has_value());
}

// Random instances of one size (vertices of a graph, edges of a hypergraph)
// over the seeds [first, last).
struct SeedSweep {
  int size;
  uint64_t first;
  uint64_t last;
};

TEST(TreewidthDpTest, AgreesWithBranchAndBound) {
  for (const SeedSweep& sweep : {SeedSweep{13, 0, 12}, SeedSweep{12, 40, 46}}) {
    for (uint64_t seed = sweep.first; seed < sweep.last; ++seed) {
      Graph g = RandomGraph(sweep.size, 0.3, seed);
      ExactTreewidthResult bb = ExactTreewidth(g);
      ASSERT_TRUE(bb.exact) << seed;
      auto dp = TreewidthBySubsetDp(g);
      ASSERT_TRUE(dp.has_value()) << seed;
      EXPECT_EQ(*dp, bb.upper_bound) << seed;
    }
  }
}

TEST(TreewidthDpTest, AgreesOnDenseAndSparse) {
  for (double p : {0.15, 0.5, 0.85}) {
    Graph g = RandomGraph(12, p, 99);
    EXPECT_EQ(*TreewidthBySubsetDp(g), ExactTreewidth(g).upper_bound) << p;
  }
}

TEST(GhwDpTest, KnownValues) {
  EXPECT_EQ(GhwBySubsetDp(CycleHypergraph(6)), 2);
  EXPECT_EQ(GhwBySubsetDp(CliqueHypergraph(6)), 3);
  EXPECT_EQ(GhwBySubsetDp(StarHypergraph(4, 3)), 1);
  EXPECT_EQ(GhwBySubsetDp(AdderHypergraph(2)), 2);
  EXPECT_EQ(GhwBySubsetDp(TriangleStripHypergraph(3)), 2);
}

TEST(GhwDpTest, EmptyAndOversized) {
  Hypergraph empty({}, {}, {});
  EXPECT_EQ(GhwBySubsetDp(empty), 0);
  Hypergraph big = RandomUniformHypergraph(kMaxGhwDpVertices + 5, 10, 3, 1);
  EXPECT_FALSE(GhwBySubsetDp(big).has_value());
}

TEST(GhwDpTest, ThreeExactEnginesAgree) {
  for (const SeedSweep& sweep : {SeedSweep{8, 0, 12}, SeedSweep{7, 30, 36}}) {
    for (uint64_t seed = sweep.first; seed < sweep.last; ++seed) {
      Hypergraph h = RandomUniformHypergraph(10, sweep.size, 3, seed);
      ExactGhwResult ordering_engine = ExactGhw(h);
      ASSERT_TRUE(ordering_engine.exact) << seed;
      auto dp_engine = GhwBySubsetDp(h);
      ASSERT_TRUE(dp_engine.has_value()) << seed;
      EXPECT_EQ(*dp_engine, ordering_engine.upper_bound) << seed;
    }
  }
}

TEST(GhwDpTest, AgreesOnMixedArities) {
  for (uint64_t seed = 30; seed < 36; ++seed) {
    Hypergraph h = RandomUniformHypergraph(11, 6, 4, seed);
    EXPECT_EQ(*GhwBySubsetDp(h), ExactGhw(h).upper_bound) << seed;
  }
}

TEST(GhwDpTest, HandlesIsolatedVertices) {
  // Vertices never touched by edges must not distort the DP.
  HypergraphBuilder b;
  b.AddVertex("lonely1");
  b.AddEdge("e1", {"a", "b"});
  b.AddEdge("e2", {"b", "c"});
  b.AddVertex("lonely2");
  Hypergraph h = std::move(b).Build();
  EXPECT_EQ(GhwBySubsetDp(h), 1);
}

}  // namespace
}  // namespace ghd
