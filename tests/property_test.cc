// Cross-module property tests: parameterized sweeps over instance families
// and seeds, checking the width invariants the paper's theory predicts:
//   lb <= ghw <= hw <= 3*ghw + 1,  ghw <= tw + 1,
//   every produced decomposition validates, greedy >= exact covers,
//   and the independent decision engines agree.
#include <algorithm>
#include <string>
#include <tuple>

#include "core/bip.h"
#include "core/ghw_exact.h"
#include "core/ghw_lower.h"
#include "core/fractional.h"
#include "core/ghw_upper.h"
#include "gen/circuits.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "hypergraph/acyclicity.h"
#include "hypergraph/reduce.h"
#include "gtest/gtest.h"
#include "htd/det_k_decomp.h"
#include "oracles/ghw_dp.h"
#include "td/bucket_elimination.h"
#include "td/exact_treewidth.h"
#include "td/lower_bounds.h"
#include "td/ordering_heuristics.h"

namespace ghd {
namespace {

enum class Family {
  kUniform3,
  kUniform4,
  kBoundedIntersection,
  kBoundedDegree,
  kCircuit,
  kSparse3,
};

std::string FamilyName(Family f) {
  switch (f) {
    case Family::kUniform3:
      return "uniform3";
    case Family::kUniform4:
      return "uniform4";
    case Family::kBoundedIntersection:
      return "bip";
    case Family::kBoundedDegree:
      return "bdeg";
    case Family::kCircuit:
      return "circuit";
    case Family::kSparse3:
      return "sparse3";
  }
  return "?";
}

Hypergraph MakeInstance(Family f, uint64_t seed) {
  switch (f) {
    case Family::kUniform3:
      return RandomUniformHypergraph(10, 8, 3, seed);
    case Family::kUniform4:
      return RandomUniformHypergraph(11, 7, 4, seed);
    case Family::kBoundedIntersection:
      return RandomBoundedIntersectionHypergraph(12, 8, 3, 1, seed);
    case Family::kBoundedDegree:
      return RandomBoundedDegreeHypergraph(14, 9, 3, 2, seed);
    case Family::kCircuit:
      return RandomCircuitHypergraph(3, 8, seed);
    case Family::kSparse3:
      return RandomUniformHypergraph(14, 7, 3, seed);
  }
  return RandomUniformHypergraph(8, 6, 3, seed);
}

class WidthInvariants
    : public ::testing::TestWithParam<std::tuple<Family, uint64_t>> {};

TEST_P(WidthInvariants, PaperInequalitiesHold) {
  const auto [family, seed] = GetParam();
  Hypergraph h = MakeInstance(family, seed);

  ExactGhwResult ghw = ExactGhw(h);
  ASSERT_TRUE(ghw.exact);
  HypertreeWidthResult hw = HypertreeWidth(h);
  ASSERT_TRUE(hw.exact);
  ExactTreewidthResult tw = ExactTreewidth(h.PrimalGraph());
  ASSERT_TRUE(tw.exact);

  // Lower bound soundness.
  EXPECT_LE(GhwLowerBound(h), ghw.upper_bound);
  // ghw <= hw <= 3*ghw + 1 (the paper's approximation theorem).
  EXPECT_LE(ghw.upper_bound, hw.width);
  EXPECT_LE(hw.width, 3 * ghw.upper_bound + 1);
  // One edge per bag vertex: ghw <= tw + 1.
  EXPECT_LE(ghw.upper_bound, tw.upper_bound + 1);
  // A bag of tw+1 vertices must be covered: rank-based bound.
  EXPECT_GE(ghw.upper_bound * h.Rank(), tw.upper_bound + 1);
  // Witnesses validate.
  EXPECT_TRUE(ghw.best_ghd.Validate(h).ok());
  EXPECT_TRUE(hw.decomposition.Validate(h).ok());
}

TEST_P(WidthInvariants, EnginesAgree) {
  const auto [family, seed] = GetParam();
  Hypergraph h = MakeInstance(family, seed);
  ExactGhwResult ghw = ExactGhw(h);
  ASSERT_TRUE(ghw.exact);

  // Full subedge closure decider must agree with the ordering search.
  const GuardFamily closure = FullSubedgeClosure(h).family;
  if (closure.size() > 0) {
    KDeciderResult at = DecideWidthK(h, closure, ghw.upper_bound);
    ASSERT_TRUE(at.decided);
    EXPECT_TRUE(at.exists);
    if (ghw.upper_bound > 1) {
      KDeciderResult below = DecideWidthK(h, closure, ghw.upper_bound - 1);
      ASSERT_TRUE(below.decided);
      EXPECT_FALSE(below.exists);
    }
  }

  // BIP closure decision is sound everywhere (never accepts below ghw).
  if (ghw.upper_bound > 1) {
    KDeciderResult bip = BipGhwDecide(h, ghw.upper_bound - 1);
    ASSERT_TRUE(bip.decided);
    EXPECT_FALSE(bip.exists);
  }
}

TEST_P(WidthInvariants, OrderingUpperBoundsAreOrdered) {
  const auto [family, seed] = GetParam();
  Hypergraph h = MakeInstance(family, seed);
  ExactGhwResult ghw = ExactGhw(h);
  ASSERT_TRUE(ghw.exact);

  const Graph primal = h.PrimalGraph();
  for (OrderingHeuristic heuristic :
       {OrderingHeuristic::kMinFill, OrderingHeuristic::kMinDegree,
        OrderingHeuristic::kMcs}) {
    std::vector<int> ordering = ComputeOrdering(primal, heuristic);
    const int exact_cover = GhwWidthFromOrdering(h, ordering, CoverMode::kExact);
    const int greedy_cover =
        GhwWidthFromOrdering(h, ordering, CoverMode::kGreedy);
    EXPECT_LE(ghw.upper_bound, exact_cover);
    EXPECT_LE(exact_cover, greedy_cover);
    GhwUpperBoundResult built = GhwFromOrdering(h, ordering, CoverMode::kExact);
    EXPECT_TRUE(built.ghd.Validate(h).ok());
  }
}

TEST_P(WidthInvariants, NewEnginesAndInvariantsAgree) {
  const auto [family, seed] = GetParam();
  Hypergraph h = MakeInstance(family, seed);
  ExactGhwResult ghw = ExactGhw(h);
  ASSERT_TRUE(ghw.exact);

  // Subset-DP engine agrees when the instance fits.
  if (h.num_vertices() <= kMaxGhwDpVertices) {
    auto dp = GhwBySubsetDp(h);
    ASSERT_TRUE(dp.has_value());
    EXPECT_EQ(*dp, ghw.upper_bound);
  }
  // Acyclicity characterization: GYO empties iff ghw = 1.
  EXPECT_EQ(IsAlphaAcyclic(h), ghw.upper_bound <= 1);
  // Fractional relaxation never exceeds the integral width on the witness
  // ordering.
  ASSERT_FALSE(ghw.best_ordering.empty());
  EXPECT_LE(FhwFromOrdering(h, ghw.best_ordering),
            Rational(ghw.upper_bound));
  // Subsumed-edge preprocessing preserves ghw.
  Hypergraph reduced = RemoveSubsumedEdges(h);
  ExactGhwResult reduced_ghw = ExactGhw(reduced);
  ASSERT_TRUE(reduced_ghw.exact);
  EXPECT_EQ(reduced_ghw.upper_bound, ghw.upper_bound);
}

TEST_P(WidthInvariants, TreewidthSideIsConsistent) {
  const auto [family, seed] = GetParam();
  Hypergraph h = MakeInstance(family, seed);
  const Graph primal = h.PrimalGraph();
  ExactTreewidthResult tw = ExactTreewidth(primal);
  ASSERT_TRUE(tw.exact);
  EXPECT_LE(TreewidthLowerBound(primal), tw.upper_bound);
  EXPECT_LE(tw.upper_bound, EliminationWidth(primal, MinFillOrdering(primal)));
  TreeDecomposition td = TdFromOrdering(primal, tw.best_ordering);
  EXPECT_TRUE(td.ValidateForGraph(primal).ok());
  EXPECT_TRUE(td.ValidateForHypergraph(h).ok());
  EXPECT_EQ(td.Width(), tw.upper_bound);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WidthInvariants,
    ::testing::Combine(::testing::Values(Family::kUniform3, Family::kUniform4,
                                         Family::kBoundedIntersection,
                                         Family::kBoundedDegree,
                                         Family::kCircuit, Family::kSparse3),
                       ::testing::Range<uint64_t>(0, 10)),
    [](const ::testing::TestParamInfo<std::tuple<Family, uint64_t>>& info) {
      return FamilyName(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Structured families with known exact widths, parameterized by size.
class StructuredGhw : public ::testing::TestWithParam<int> {};

TEST_P(StructuredGhw, AdderIs2) {
  const int k = GetParam();
  ExactGhwResult r = ExactGhw(AdderHypergraph(k));
  ASSERT_TRUE(r.exact);
  EXPECT_EQ(r.upper_bound, 2);
}

TEST_P(StructuredGhw, CycleIs2) {
  const int n = GetParam() + 2;  // cycles need n >= 3
  ExactGhwResult r = ExactGhw(CycleHypergraph(n));
  ASSERT_TRUE(r.exact);
  EXPECT_EQ(r.upper_bound, 2);
}

TEST_P(StructuredGhw, CliqueIsCeilHalf) {
  const int n = GetParam() + 2;
  ExactGhwResult r = ExactGhw(CliqueHypergraph(n));
  ASSERT_TRUE(r.exact);
  EXPECT_EQ(r.upper_bound, (n + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StructuredGhw, ::testing::Range(1, 6));

}  // namespace
}  // namespace ghd
