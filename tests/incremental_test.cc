// Incremental re-decomposition: ApplyEdgeDelta bookkeeping, the
// incremental-vs-scratch equivalence contract (randomized mutation sweeps
// at the 63/64/65-vertex bitset word boundaries, component splits and
// merges), delta-scoped retention, the version verdict memo, and the
// memo-poisoning sentinel under counters. The fan-out sweep (several
// solvers on ParallelFor workers sharing one cache) runs in the TSan CI job.
#include <string>
#include <vector>

#include "core/incremental.h"
#include "core/k_decider.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "hypergraph/hypergraph.h"
#include "obs/obs.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ghd {
namespace {

// From-scratch ground truth for hw(h) <= k; unbudgeted, so always decided.
bool ScratchDecide(const Hypergraph& h, int k) {
  const GuardFamily family = OriginalEdgesFamily(h);
  const KDeciderResult r = DecideWidthK(h, family, k);
  EXPECT_TRUE(r.decided);
  return r.exists;
}

EdgeDelta RemoveDelta(int edge_id) {
  EdgeDelta d;
  d.removed_edges.push_back(edge_id);
  return d;
}

EdgeDelta InsertDelta(const std::string& name, const VertexSet& vertices) {
  EdgeDelta d;
  d.inserts.push_back({name, vertices});
  return d;
}

int EdgeIdByName(const Hypergraph& h, const std::string& name) {
  for (int e = 0; e < h.num_edges(); ++e) {
    if (h.edge_name(e) == name) return e;
  }
  return -1;
}

// --- ApplyEdgeDelta bookkeeping --------------------------------------------

TEST(ApplyEdgeDeltaTest, RemoveCompactsAndMapsIds) {
  const Hypergraph base = CycleHypergraph(6);  // edges e0..e5
  const EdgeDeltaResult r = ApplyEdgeDelta(base, RemoveDelta(2));
  EXPECT_EQ(r.next.num_edges(), 5);
  EXPECT_EQ(r.next.num_vertices(), base.num_vertices());
  ASSERT_EQ(r.edge_map.size(), 6u);
  EXPECT_EQ(r.edge_map[2], -1);
  // Survivors compact in base order: 0,1 keep their ids; 3,4,5 shift down.
  EXPECT_EQ(r.edge_map[0], 0);
  EXPECT_EQ(r.edge_map[1], 1);
  EXPECT_EQ(r.edge_map[3], 2);
  EXPECT_EQ(r.edge_map[5], 4);
  for (int e = 0; e < 6; ++e) {
    if (e == 2) continue;
    EXPECT_EQ(r.next.edge(r.edge_map[e]), base.edge(e)) << e;
    EXPECT_EQ(r.next.edge_name(r.edge_map[e]), base.edge_name(e)) << e;
  }
  // Dirty region = exactly the removed edge's vertices.
  EXPECT_EQ(r.dirty_vertices, base.edge(2));
}

TEST(ApplyEdgeDeltaTest, InsertAppendsAfterSurvivors) {
  const Hypergraph base = CycleHypergraph(5);
  VertexSet chord(base.num_vertices());
  chord.Set(0);
  chord.Set(2);
  const EdgeDeltaResult r = ApplyEdgeDelta(base, InsertDelta("chord", chord));
  EXPECT_EQ(r.next.num_edges(), 6);
  ASSERT_EQ(r.inserted_edges.size(), 1u);
  EXPECT_EQ(r.inserted_edges[0], 5);
  EXPECT_EQ(r.next.edge_name(5), "chord");
  EXPECT_EQ(r.next.edge(5), chord);
  EXPECT_EQ(r.dirty_vertices, chord);
}

TEST(ApplyEdgeDeltaTest, BatchedRemoveInsertDirtyUnion) {
  const Hypergraph base = CycleHypergraph(8);
  VertexSet chord(base.num_vertices());
  chord.Set(4);
  chord.Set(6);
  EdgeDelta d;
  d.removed_edges.push_back(0);  // {v0, v1}
  d.inserts.push_back({"chord", chord});
  const EdgeDeltaResult r = ApplyEdgeDelta(base, d);
  EXPECT_EQ(r.next.num_edges(), 8);
  EXPECT_EQ(r.dirty_vertices, base.edge(0) | chord);
  // The insert lands after the 7 survivors.
  ASSERT_EQ(r.inserted_edges.size(), 1u);
  EXPECT_EQ(r.inserted_edges[0], 7);
}

// --- equivalence: every incremental verdict equals the scratch verdict -----

// One randomized sweep over `base`: remove a random live edge, sometimes
// toss in a fresh chord, decide, restore, decide again — comparing the
// incremental verdict to a from-scratch solve at every step.
void RandomizedSweep(const Hypergraph& base, int k, uint64_t seed, int rounds,
                     DecompCache* cache = nullptr) {
  Rng rng(seed);
  IncrementalOptions opts;
  opts.cache = cache;
  IncrementalSolver solver(base, opts);
  Hypergraph scratch = base;

  auto apply_both = [&](const EdgeDelta& d) {
    solver.Apply(d);
    scratch = ApplyEdgeDelta(scratch, d).next;
  };
  auto check_decide = [&](const char* what) {
    const IncrementalDecideResult r = solver.DecideHw(k);
    ASSERT_TRUE(r.decided) << what;
    EXPECT_EQ(r.exists, ScratchDecide(scratch, k))
        << what << " seed=" << seed << " v" << solver.version();
  };

  check_decide("initial");
  int chords = 0;
  for (int round = 0; round < rounds; ++round) {
    const int victim = rng.UniformInt(solver.current().num_edges());
    const std::string name = solver.current().edge_name(victim);
    const VertexSet verts = solver.current().edge(victim);
    apply_both(RemoveDelta(victim));
    check_decide("after remove");

    if (rng.Bernoulli(0.3)) {
      // A chord between two random vertices perturbs the width upward.
      VertexSet chord(solver.current().num_vertices());
      chord.Set(rng.UniformInt(solver.current().num_vertices()));
      chord.Set(rng.UniformInt(solver.current().num_vertices()));
      const std::string cname = "chord" + std::to_string(chords++);
      apply_both(InsertDelta(cname, chord));
      check_decide("after chord insert");
      const int cid = EdgeIdByName(solver.current(), cname);
      ASSERT_GE(cid, 0);
      apply_both(RemoveDelta(cid));
    }

    apply_both(InsertDelta(name, verts));
    check_decide("after restore");
  }
}

// The bitset word boundary: 63/64/65 vertices exercise the last-word mask,
// an exactly-full word, and the first two-word universe.
TEST(IncrementalEquivalenceTest, WordBoundarySweep63) {
  RandomizedSweep(CycleHypergraph(63), 2, 17, 8);
}

TEST(IncrementalEquivalenceTest, WordBoundarySweep64) {
  RandomizedSweep(CycleHypergraph(64), 2, 18, 8);
}

TEST(IncrementalEquivalenceTest, WordBoundarySweep65) {
  RandomizedSweep(CycleHypergraph(65), 2, 19, 8);
}

TEST(IncrementalEquivalenceTest, GridRefutationSweep) {
  // Grid at k = 2 is a "no": the retained state carrying the win is the
  // persistent negative store, the path the cycle sweeps never exercise.
  RandomizedSweep(Grid2dHypergraph(5, 5), 2, 23, 6);
}

// Two 4-cycles joined by a bridge edge; removing the bridge splits the
// instance into two components, re-inserting it merges them back.
Hypergraph BridgedCycles() {
  std::vector<std::string> vnames;
  for (int v = 0; v < 8; ++v) vnames.push_back("v" + std::to_string(v));
  std::vector<std::string> enames;
  std::vector<VertexSet> edges;
  auto add = [&](const std::string& name, int a, int b) {
    VertexSet e(8);
    e.Set(a);
    e.Set(b);
    enames.push_back(name);
    edges.push_back(e);
  };
  for (int i = 0; i < 4; ++i) add("a" + std::to_string(i), i, (i + 1) % 4);
  for (int i = 0; i < 4; ++i) {
    add("b" + std::to_string(i), 4 + i, 4 + (i + 1) % 4);
  }
  add("bridge", 3, 4);
  return Hypergraph(std::move(vnames), std::move(enames), std::move(edges));
}

TEST(IncrementalEquivalenceTest, ComponentSplitAndMerge) {
  const Hypergraph base = BridgedCycles();
  IncrementalSolver solver(base);
  Hypergraph scratch = base;
  for (int k : {1, 2}) {
    // Warm at this k, split the components apart, then merge them back.
    EXPECT_EQ(solver.DecideHw(k).exists, ScratchDecide(scratch, k)) << k;
    const int bridge = EdgeIdByName(solver.current(), "bridge");
    ASSERT_GE(bridge, 0);
    const VertexSet bridge_verts = solver.current().edge(bridge);
    EdgeDelta split = RemoveDelta(bridge);
    solver.Apply(split);
    scratch = ApplyEdgeDelta(scratch, split).next;
    EXPECT_EQ(solver.DecideHw(k).exists, ScratchDecide(scratch, k))
        << "split at k=" << k;
    EdgeDelta merge = InsertDelta("bridge", bridge_verts);
    solver.Apply(merge);
    scratch = ApplyEdgeDelta(scratch, merge).next;
    EXPECT_EQ(solver.DecideHw(k).exists, ScratchDecide(scratch, k))
        << "merge at k=" << k;
  }
}

// --- retention and serving layers ------------------------------------------

TEST(IncrementalSolverTest, SmallDeltaRetainsMemoState) {
  IncrementalSolver solver(CycleHypergraph(64));
  ASSERT_TRUE(solver.DecideHw(2).exists);  // bootstrap warms the ladder
  ASSERT_TRUE(solver.warm());
  const VertexSet verts = solver.current().edge(0);
  const std::string name = solver.current().edge_name(0);
  solver.Apply(RemoveDelta(0));
  EXPECT_TRUE(solver.warm());
  // A one-edge delta on a 64-cycle dirties 2 of 64 vertices: nearly all
  // memoized states live outside the dirty region and must survive.
  EXPECT_GT(solver.stats().memo_retained, 0);
  EXPECT_TRUE(solver.DecideHw(2).exists);
  solver.Apply(InsertDelta(name, verts));
  EXPECT_GT(solver.stats().memo_retained, 0);
  EXPECT_TRUE(solver.DecideHw(2).exists);
  EXPECT_EQ(solver.stats().ladder_drops, 0);
}

TEST(IncrementalSolverTest, OversizedDeltaDropsLadder) {
  IncrementalSolver solver(CycleHypergraph(16));
  ASSERT_TRUE(solver.DecideHw(2).exists);
  ASSERT_TRUE(solver.warm());
  // Remove half the edges: 16 of 16 vertices go dirty, far past the 25%
  // default threshold — the warm ladder must be dropped, not swept.
  EdgeDelta d;
  for (int e = 0; e < 8; ++e) d.removed_edges.push_back(2 * e);
  solver.Apply(d);
  EXPECT_FALSE(solver.warm());
  EXPECT_EQ(solver.stats().ladder_drops, 1);
  // The next ask bootstraps and still answers correctly (8 disjoint edges:
  // alpha-acyclic, hw = 1).
  EXPECT_TRUE(solver.DecideHw(1).exists);
  EXPECT_GT(solver.stats().full_solves, 1);
}

TEST(IncrementalSolverTest, VersionVerdictMemoServesExactRepeats) {
  IncrementalSolver solver(CycleHypergraph(32));
  ASSERT_TRUE(solver.DecideHw(2).exists);
  const VertexSet verts = solver.current().edge(3);
  const std::string name = solver.current().edge_name(3);
  // Two remove/decide/reinsert/decide rounds: every version after the first
  // round repeats an already-certified fingerprint.
  for (int round = 0; round < 2; ++round) {
    const int id = EdgeIdByName(solver.current(), name);
    ASSERT_GE(id, 0);
    solver.Apply(RemoveDelta(id));
    EXPECT_TRUE(solver.DecideHw(2).exists);
    solver.Apply(InsertDelta(name, verts));
    const IncrementalDecideResult r = solver.DecideHw(2);
    EXPECT_TRUE(r.exists);
    if (round > 0) {
      EXPECT_TRUE(r.from_cache);
    }
  }
  EXPECT_GT(solver.stats().fingerprint_served, 0);
}

TEST(IncrementalSolverTest, AttachedCacheServesAndLearns) {
  DecompCache cache;
  IncrementalOptions opts;
  opts.cache = &cache;
  IncrementalSolver solver(CycleHypergraph(24), opts);
  EXPECT_TRUE(solver.DecideHw(2).exists);
  EXPECT_GT(cache.size(), 0u);  // the bootstrap solve fed the cache
  // A second solver over an isomorphic relabeling of the same version: the
  // canonical-fingerprint cache serves it without a solve.
  IncrementalSolver other(CycleHypergraph(24), opts);
  const IncrementalDecideResult r = other.DecideHw(2);
  EXPECT_TRUE(r.decided);
  EXPECT_TRUE(r.exists);
  EXPECT_TRUE(r.from_cache);
  EXPECT_EQ(other.stats().full_solves, 0);
  EXPECT_GT(other.stats().cache_served, 0);
}

// --- sentinel: no unsound memoization, whatever the schedule ----------------

#if GHD_OBS_ENABLED
TEST(IncrementalSolverTest, SweepsNeverPoisonTheMemo) {
  obs::EnableCounters(true);
  obs::ResetCounters();
  RandomizedSweep(CycleHypergraph(64), 2, 29, 4);
  RandomizedSweep(Grid2dHypergraph(4, 4), 2, 31, 4);
  const obs::CounterSnapshot s = obs::SnapshotCounters();
  EXPECT_EQ(s.counter(obs::Counter::kDeciderMemoPoisoned), 0);
  EXPECT_GT(s.counter(obs::Counter::kDeciderStates), 0);
  EXPECT_GT(s.counter(obs::Counter::kIncrMemoRetained), 0);
  obs::ResetCounters();
  obs::EnableCounters(false);
}
#endif  // GHD_OBS_ENABLED

// TSan coverage: each solver serves one mutation stream, and the fan-out
// runs several streams at once with their cold paths consulting and feeding
// one shared cache — the sweeps must stay race-free and every verdict must
// still equal the scratch verdict.
TEST(IncrementalSolverTest, FanOutSweepsShareOneCacheAndMatchScratch) {
  DecompCache cache;
  const std::vector<Hypergraph> bases = {CycleHypergraph(64),
                                         Grid2dHypergraph(4, 4),
                                         CycleHypergraph(64),
                                         Grid2dHypergraph(4, 4)};
  ParallelFor(4, static_cast<int>(bases.size()), [&](int i) {
    RandomizedSweep(bases[i], 2, 37 + i, 4, &cache);
  });
  EXPECT_GT(cache.size(), 0u);
}

}  // namespace
}  // namespace ghd
