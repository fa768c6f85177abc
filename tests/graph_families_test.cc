// Parameterized treewidth sweep over named graph families with known or
// bounded widths, cross-checking both exact engines and the heuristic /
// lower-bound sandwich on every instance.
#include <string>

#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"
#include "oracles/treewidth_dp.h"
#include "td/bucket_elimination.h"
#include "td/exact_treewidth.h"
#include "td/lower_bounds.h"
#include "td/ordering_heuristics.h"

namespace ghd {
namespace {

struct FamilyCase {
  std::string name;
  Graph graph;
  int expected_tw;  // -1 = unknown (only invariants are checked)
};

std::vector<FamilyCase> Families() {
  std::vector<FamilyCase> cases;
  cases.push_back({"path10", [] {
                     Graph g(10);
                     for (int v = 0; v + 1 < 10; ++v) g.AddEdge(v, v + 1);
                     return g;
                   }(),
                   1});
  cases.push_back({"cycle8", CycleGraph(8), 2});
  cases.push_back({"clique7", CliqueGraph(7), 6});
  cases.push_back({"grid3x3", GridGraph(3, 3), 3});
  cases.push_back({"grid4x4", GridGraph(4, 4), 4});
  cases.push_back({"grid2x6", GridGraph(2, 6), 2});
  cases.push_back({"hypercube3", HypercubeGraph(3), 3});
  cases.push_back({"petersen", PetersenGraph(), 4});
  cases.push_back({"queen3", QueenGraph(3), -1});
  cases.push_back({"random_sparse", RandomGraph(14, 0.2, 5), -1});
  cases.push_back({"random_dense", RandomGraph(12, 0.6, 6), -1});
  return cases;
}

class GraphFamilies : public ::testing::TestWithParam<int> {};

TEST_P(GraphFamilies, ExactEnginesAgreeAndBoundsSandwich) {
  const FamilyCase fc = Families()[GetParam()];
  const Graph& g = fc.graph;

  ExactTreewidthResult bb = ExactTreewidth(g);
  ASSERT_TRUE(bb.exact) << fc.name;
  if (fc.expected_tw >= 0) {
    EXPECT_EQ(bb.upper_bound, fc.expected_tw) << fc.name;
  }

  if (g.num_vertices() <= kMaxDpVertices) {
    auto dp = TreewidthBySubsetDp(g);
    ASSERT_TRUE(dp.has_value()) << fc.name;
    EXPECT_EQ(*dp, bb.upper_bound) << fc.name;
  }

  // lb <= tw <= every heuristic ordering's width.
  EXPECT_LE(TreewidthLowerBound(g), bb.upper_bound) << fc.name;
  for (OrderingHeuristic heuristic :
       {OrderingHeuristic::kMinFill, OrderingHeuristic::kMinDegree,
        OrderingHeuristic::kMcs}) {
    const int width = EliminationWidth(g, ComputeOrdering(g, heuristic));
    EXPECT_GE(width, bb.upper_bound)
        << fc.name << " " << OrderingHeuristicName(heuristic);
  }

  // The witness ordering yields a validating decomposition of that width.
  TreeDecomposition td = TdFromOrdering(g, bb.best_ordering);
  EXPECT_TRUE(td.ValidateForGraph(g).ok()) << fc.name;
  EXPECT_EQ(td.Width(), bb.upper_bound) << fc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GraphFamilies,
    ::testing::Range(0, static_cast<int>(Families().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      return Families()[info.param].name;
    });

TEST(PetersenTest, Shape) {
  Graph g = PetersenGraph();
  EXPECT_EQ(g.num_vertices(), 10);
  EXPECT_EQ(g.NumEdges(), 15);
  for (int v = 0; v < 10; ++v) EXPECT_EQ(g.Degree(v), 3);  // 3-regular
}

}  // namespace
}  // namespace ghd
