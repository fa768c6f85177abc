#include <algorithm>
#include <vector>

#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"
#include "hypergraph/hypergraph_builder.h"
#include "td/bucket_elimination.h"
#include "td/exact_treewidth.h"
#include "td/lower_bounds.h"
#include "td/ordering_heuristics.h"
#include "td/tree_decomposition.h"

namespace ghd {
namespace {

Graph Path(int n) {
  Graph g(n);
  for (int v = 0; v + 1 < n; ++v) g.AddEdge(v, v + 1);
  return g;
}

std::vector<int> Identity(int n) {
  std::vector<int> v(n);
  for (int i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST(TreeDecompositionTest, WidthOfBags) {
  TreeDecomposition td;
  td.bags = {VertexSet::Of(4, {0, 1}), VertexSet::Of(4, {1, 2, 3})};
  td.tree_edges = {{0, 1}};
  EXPECT_EQ(td.Width(), 2);
}

TEST(TreeDecompositionTest, ValidatorAcceptsCorrect) {
  Graph g = Path(3);
  TreeDecomposition td;
  td.bags = {VertexSet::Of(3, {0, 1}), VertexSet::Of(3, {1, 2})};
  td.tree_edges = {{0, 1}};
  EXPECT_TRUE(td.ValidateForGraph(g).ok());
}

TEST(TreeDecompositionTest, ValidatorRejectsMissingEdge) {
  Graph g = Path(3);
  TreeDecomposition td;
  td.bags = {VertexSet::Of(3, {0, 1}), VertexSet::Of(3, {2})};
  td.tree_edges = {{0, 1}};
  EXPECT_FALSE(td.ValidateForGraph(g).ok());
}

TEST(TreeDecompositionTest, ValidatorRejectsDisconnectedOccurrence) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  TreeDecomposition td;
  // Vertex 1 occurs in bags 0 and 2 but not the middle bag.
  td.bags = {VertexSet::Of(3, {0, 1}), VertexSet::Of(3, {0, 2}),
             VertexSet::Of(3, {1, 2})};
  td.tree_edges = {{0, 1}, {1, 2}};
  EXPECT_FALSE(td.ValidateForGraph(g).ok());
}

TEST(TreeDecompositionTest, ValidatorRejectsNonTree) {
  Graph g = Path(2);
  TreeDecomposition td;
  td.bags = {VertexSet::Of(2, {0, 1}), VertexSet::Of(2, {0, 1}),
             VertexSet::Of(2, {0, 1})};
  td.tree_edges = {{0, 1}};  // 3 nodes need 2 edges
  EXPECT_FALSE(td.ValidateForGraph(g).ok());
  td.tree_edges = {{0, 1}, {0, 1}};  // duplicate edge: disconnected node 2
  EXPECT_FALSE(td.ValidateForGraph(g).ok());
}

TEST(TreeDecompositionTest, ValidatorForHypergraph) {
  HypergraphBuilder b;
  b.AddEdge("e1", {"a", "b", "c"});
  b.AddEdge("e2", {"c", "d"});
  Hypergraph h = std::move(b).Build();
  TreeDecomposition td;
  td.bags = {VertexSet::Of(4, {0, 1, 2}), VertexSet::Of(4, {2, 3})};
  td.tree_edges = {{0, 1}};
  EXPECT_TRUE(td.ValidateForHypergraph(h).ok());
  // Splitting e1 across bags breaks condition 1.
  td.bags = {VertexSet::Of(4, {0, 1}), VertexSet::Of(4, {1, 2, 3})};
  EXPECT_FALSE(td.ValidateForHypergraph(h).ok());
}

TEST(BucketEliminationTest, OrderingValidation) {
  Graph g = Path(3);
  EXPECT_TRUE(IsValidOrdering(g, {0, 1, 2}));
  EXPECT_FALSE(IsValidOrdering(g, {0, 1}));
  EXPECT_FALSE(IsValidOrdering(g, {0, 1, 1}));
  EXPECT_FALSE(IsValidOrdering(g, {0, 1, 3}));
}

TEST(BucketEliminationTest, PathWidthOne) {
  Graph g = Path(5);
  EXPECT_EQ(EliminationWidth(g, Identity(5)), 1);
  TreeDecomposition td = TdFromOrdering(g, Identity(5));
  EXPECT_EQ(td.Width(), 1);
  EXPECT_TRUE(td.ValidateForGraph(g).ok());
}

TEST(BucketEliminationTest, BadOrderingGivesWorseWidth) {
  // Eliminating the middle of a star first gives a big bag.
  Graph star(5);
  for (int v = 1; v < 5; ++v) star.AddEdge(0, v);
  EXPECT_EQ(EliminationWidth(star, {0, 1, 2, 3, 4}), 4);
  EXPECT_EQ(EliminationWidth(star, {1, 2, 3, 4, 0}), 1);
}

TEST(BucketEliminationTest, EliminationBagsMatchDefinition) {
  Graph g = CycleGraph(4);
  auto bags = EliminationBags(g, {0, 1, 2, 3});
  ASSERT_EQ(bags.size(), 4u);
  EXPECT_EQ(bags[0].ToVector(), (std::vector<int>{0, 1, 3}));
  // After eliminating 0, vertices 1 and 3 become adjacent.
  EXPECT_EQ(bags[1].ToVector(), (std::vector<int>{1, 2, 3}));
}

TEST(BucketEliminationTest, StopAtWidthShortCircuits) {
  Graph g = CliqueGraph(10);
  EXPECT_GE(EliminationWidth(g, Identity(10), 3), 3);
}

TEST(BucketEliminationTest, TdValidatesOnManyGraphs) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Graph g = RandomGraph(15, 0.3, seed);
    Rng rng(seed);
    std::vector<int> ordering = Identity(15);
    rng.Shuffle(&ordering);
    TreeDecomposition td = TdFromOrdering(g, ordering);
    EXPECT_TRUE(td.ValidateForGraph(g).ok()) << "seed " << seed;
    EXPECT_EQ(td.Width(), EliminationWidth(g, ordering));
  }
}

TEST(BucketEliminationTest, DisconnectedGraphStillYieldsTree) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(3, 4);  // two components + isolated vertices
  TreeDecomposition td = TdFromOrdering(g, Identity(6));
  EXPECT_TRUE(td.ValidateForGraph(g).ok());
}

TEST(OrderingHeuristicsTest, AllProducePermutations) {
  Graph g = GridGraph(4, 4);
  Rng rng(5);
  for (OrderingHeuristic h :
       {OrderingHeuristic::kMinFill, OrderingHeuristic::kMinDegree,
        OrderingHeuristic::kMcs, OrderingHeuristic::kMinWidth,
        OrderingHeuristic::kRandom}) {
    std::vector<int> ordering = ComputeOrdering(g, h, &rng);
    EXPECT_TRUE(IsValidOrdering(g, ordering)) << OrderingHeuristicName(h);
  }
}

TEST(OrderingHeuristicsTest, MinFillOptimalOnChordalGraph) {
  // A chordal graph: min-fill finds a perfect elimination ordering.
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  g.AddEdge(2, 4);
  EXPECT_EQ(EliminationWidth(g, MinFillOrdering(g)), 2);
}

TEST(OrderingHeuristicsTest, MinFillOnCliqueIsOptimal) {
  Graph g = CliqueGraph(6);
  EXPECT_EQ(EliminationWidth(g, MinFillOrdering(g)), 5);
}

TEST(OrderingHeuristicsTest, McsOptimalOnTrees) {
  Graph g(7);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(1, 4);
  g.AddEdge(2, 5);
  g.AddEdge(2, 6);
  EXPECT_EQ(EliminationWidth(g, McsOrdering(g)), 1);
  EXPECT_EQ(EliminationWidth(g, MinDegreeOrdering(g)), 1);
}

TEST(OrderingHeuristicsTest, NamesAreStable) {
  EXPECT_EQ(OrderingHeuristicName(OrderingHeuristic::kMinFill), "min-fill");
  EXPECT_EQ(OrderingHeuristicName(OrderingHeuristic::kRandom), "random");
}

TEST(LowerBoundsTest, CliqueBoundsAreTight) {
  Graph g = CliqueGraph(6);
  EXPECT_EQ(DegeneracyLowerBound(g), 5);
  EXPECT_EQ(MinorMinWidthLowerBound(g), 5);
  EXPECT_EQ(GammaRLowerBound(g), 5);
}

TEST(LowerBoundsTest, PathBoundsAreOne) {
  Graph g = Path(10);
  EXPECT_EQ(DegeneracyLowerBound(g), 1);
  EXPECT_EQ(MinorMinWidthLowerBound(g), 1);
  EXPECT_LE(GammaRLowerBound(g), 1);
}

TEST(LowerBoundsTest, GridBounds) {
  Graph g = GridGraph(4, 4);
  EXPECT_EQ(DegeneracyLowerBound(g), 2);
  // Minor-min-width is at least degeneracy and at most tw = 4.
  const int mmw = MinorMinWidthLowerBound(g);
  EXPECT_GE(mmw, 2);
  EXPECT_LE(mmw, 4);
}

TEST(LowerBoundsTest, SoundOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Graph g = RandomGraph(12, 0.3, seed);
    ExactTreewidthResult exact = ExactTreewidth(g);
    ASSERT_TRUE(exact.exact);
    EXPECT_LE(DegeneracyLowerBound(g), exact.upper_bound) << seed;
    EXPECT_LE(MinorMinWidthLowerBound(g), exact.upper_bound) << seed;
    EXPECT_LE(GammaRLowerBound(g), exact.upper_bound) << seed;
    EXPECT_LE(TreewidthLowerBound(g), exact.upper_bound) << seed;
  }
}

TEST(LowerBoundsTest, EmptyGraph) {
  Graph g(4);
  EXPECT_EQ(DegeneracyLowerBound(g), 0);
  EXPECT_EQ(MinorMinWidthLowerBound(g), 0);
  EXPECT_EQ(GammaRLowerBound(g), 0);
}

TEST(ExactTreewidthTest, KnownSmallValues) {
  EXPECT_EQ(ExactTreewidth(Path(6)).upper_bound, 1);
  EXPECT_EQ(ExactTreewidth(CycleGraph(5)).upper_bound, 2);
  EXPECT_EQ(ExactTreewidth(CliqueGraph(7)).upper_bound, 6);
  EXPECT_EQ(ExactTreewidth(Graph(3)).upper_bound, 0);
}

TEST(ExactTreewidthTest, GridTreewidthIsN) {
  // Folklore: tw of the n x n grid is n (n >= 2).
  for (int n = 2; n <= 4; ++n) {
    ExactTreewidthResult r = ExactTreewidth(GridGraph(n, n));
    ASSERT_TRUE(r.exact) << n;
    EXPECT_EQ(r.upper_bound, n) << n;
  }
}

TEST(ExactTreewidthTest, QueenGraphBounds) {
  // queen3_3 is K9 minus the 8 knight-move pairs: dense, treewidth close to 8.
  ExactTreewidthResult r = ExactTreewidth(QueenGraph(3));
  ASSERT_TRUE(r.exact);
  EXPECT_GE(r.upper_bound, 5);  // contains K4+ cliques (rows + center)
  EXPECT_LE(r.upper_bound, 8);
  EXPECT_EQ(r.lower_bound, r.upper_bound);
}

TEST(ExactTreewidthTest, WitnessOrderingAchievesWidth) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Graph g = RandomGraph(13, 0.25, seed);
    ExactTreewidthResult r = ExactTreewidth(g);
    ASSERT_TRUE(r.exact);
    EXPECT_EQ(EliminationWidth(g, r.best_ordering), r.upper_bound);
    EXPECT_EQ(r.lower_bound, r.upper_bound);
  }
}

TEST(ExactTreewidthTest, NeverWorseThanHeuristic) {
  for (uint64_t seed = 20; seed < 26; ++seed) {
    Graph g = RandomGraph(14, 0.3, seed);
    ExactTreewidthResult r = ExactTreewidth(g);
    ASSERT_TRUE(r.exact);
    EXPECT_LE(r.upper_bound, EliminationWidth(g, MinFillOrdering(g)));
  }
}

TEST(ExactTreewidthTest, BudgetExhaustionReportsBounds) {
  Graph g = RandomGraph(30, 0.4, 7);
  ExactTreewidthOptions options;
  options.node_budget = 5;
  ExactTreewidthResult r = ExactTreewidth(g, options);
  EXPECT_FALSE(r.exact);
  EXPECT_LE(r.lower_bound, r.upper_bound);
  EXPECT_EQ(EliminationWidth(g, r.best_ordering), r.upper_bound);
}

TEST(ExactTreewidthTest, DisconnectedGraph) {
  Graph g(8);
  // K4 plus a path.
  for (int u = 0; u < 4; ++u) {
    for (int v = u + 1; v < 4; ++v) g.AddEdge(u, v);
  }
  g.AddEdge(4, 5);
  g.AddEdge(5, 6);
  ExactTreewidthResult r = ExactTreewidth(g);
  ASSERT_TRUE(r.exact);
  EXPECT_EQ(r.upper_bound, 3);
}

}  // namespace
}  // namespace ghd
