// Tests for the anytime portfolio driver and the fault-injection story:
//  * on every shipped instance, a 100 ms deadline still yields a validated
//    interval containing the true width (cross-checked against an unbounded
//    exact run);
//  * a fault injected at *every* tick index of the ladder never crashes,
//    never yields an invalid witness, and the certified interval is monotone
//    in the injection point (more budget can only tighten it);
//  * truncation can never poison the k-decider's memo into a wrong answer;
//  * a fault on a governor shared by fan-out workers leaves every in-flight
//    solve with a validated interval;
//  * external cancellation (the SIGINT path) stops a running driver.
#include "core/anytime.h"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/ghw_exact.h"
#include "core/k_decider.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "hypergraph/hg_io.h"
#include "util/thread_pool.h"

namespace ghd {
namespace {

// Ticks the full ladder consumes on `h` when nothing stops it, plus the
// unbounded result for cross-checking.
long UnboundedTicks(const Hypergraph& h, AnytimeGhwResult* full) {
  Budget budget;
  AnytimeOptions options;
  options.budget = &budget;
  *full = AnytimeGhw(h, options);
  return budget.ticks_used();
}

// Injects a failure at every tick index in [1, total]; asserts no crash, the
// interval always contains `true_width`, the witness always validates, and
// the bounds are monotone in the injection index (the run with fault at n is
// an execution prefix of the run with fault at n + 1, because the ladder is
// deterministic and sequential).
void SweepEveryTick(const Hypergraph& h, int true_width, long stride = 1) {
  AnytimeGhwResult full;
  const long total = UnboundedTicks(h, &full);
  ASSERT_TRUE(full.exact);
  ASSERT_EQ(full.upper_bound, true_width);

  int prev_lb = 0;
  int prev_ub = h.num_edges() + 1;
  for (long n = 1; n <= total; n += stride) {
    Budget budget;
    budget.InjectFailureAfter(n);
    AnytimeOptions options;
    options.budget = &budget;
    AnytimeGhwResult r = AnytimeGhw(h, options);
    ASSERT_LE(r.lower_bound, true_width) << "fault at tick " << n;
    ASSERT_GE(r.upper_bound, true_width) << "fault at tick " << n;
    ASSERT_TRUE(r.witness.Validate(h).ok()) << "fault at tick " << n;
    ASSERT_LE(r.witness.Width(), r.upper_bound) << "fault at tick " << n;
    ASSERT_GE(r.lower_bound, prev_lb) << "lb regressed at tick " << n;
    ASSERT_LE(r.upper_bound, prev_ub) << "ub regressed at tick " << n;
    prev_lb = r.lower_bound;
    prev_ub = r.upper_bound;
    if (n < total) {
      EXPECT_EQ(r.outcome.stop_reason, StopReason::kFaultInjected);
    }
  }
  // Past the last tick the fault never fires and the run is exact.
  Budget budget;
  budget.InjectFailureAfter(total + 1);
  AnytimeOptions options;
  options.budget = &budget;
  AnytimeGhwResult r = AnytimeGhw(h, options);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.upper_bound, true_width);
}

struct Instance {
  const char* file;
  int width;
};

constexpr Instance kInstances[] = {
    {"acyclic_star.hg", 1}, {"adder_4.hg", 2}, {"bridge_3.hg", 2},
    {"example.hg", 2},      {"grid3x3.hg", 2}, {"triangle.hg", 2},
};

TEST(AnytimeTest, DataInstancesUnder100msDeadline) {
  for (const Instance& inst : kInstances) {
    Result<Hypergraph> parsed =
        LoadHg(std::string(GHD_DATA_DIR) + "/" + inst.file);
    ASSERT_TRUE(parsed.ok()) << inst.file;
    const Hypergraph& h = parsed.value();
    // Cross-check the width table against an unbounded exact run.
    ExactGhwResult exact = ExactGhwComponentwise(h);
    ASSERT_TRUE(exact.exact) << inst.file;
    ASSERT_EQ(exact.upper_bound, inst.width) << inst.file;

    AnytimeOptions options;
    options.deadline_seconds = 0.1;
    AnytimeGhwResult r = AnytimeGhw(h, options);
    EXPECT_LE(r.lower_bound, inst.width) << inst.file;
    EXPECT_GE(r.upper_bound, inst.width) << inst.file;
    EXPECT_TRUE(r.witness.Validate(h).ok()) << inst.file;
    EXPECT_LE(r.witness.Width(), r.upper_bound) << inst.file;
    EXPECT_FALSE(r.trail.empty()) << inst.file;
    for (size_t i = 1; i < r.trail.size(); ++i) {
      EXPECT_GE(r.trail[i].lower_bound, r.trail[i - 1].lower_bound);
      EXPECT_LE(r.trail[i].upper_bound, r.trail[i - 1].upper_bound);
    }
  }
}

TEST(AnytimeTest, ExactOnUnboundedRun) {
  AnytimeGhwResult r = AnytimeGhw(TriangleStripHypergraph(4));
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.lower_bound, r.upper_bound);
  EXPECT_EQ(r.outcome.stop_reason, StopReason::kNone);
}

TEST(AnytimeTest, EmptyHypergraphIsTrivial) {
  AnytimeGhwResult r = AnytimeGhw(Hypergraph({}, {}, {}));
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.lower_bound, 0);
  EXPECT_EQ(r.upper_bound, 0);
}

TEST(AnytimeTest, ZeroBudgetStillYieldsValidatedInterval) {
  // The heuristic rungs are tick-free, so even a budget that fires on the
  // very first tick must produce a nontrivial interval and a witness.
  const Hypergraph h = Grid2dHypergraph(3, 3);
  Budget budget;
  budget.InjectFailureAfter(1);
  AnytimeOptions options;
  options.budget = &budget;
  AnytimeGhwResult r = AnytimeGhw(h, options);
  EXPECT_GE(r.lower_bound, 1);
  EXPECT_LE(r.lower_bound, 2);
  EXPECT_GE(r.upper_bound, 2);
  EXPECT_TRUE(r.witness.Validate(h).ok());
}

TEST(FaultSweepTest, Triangle) { SweepEveryTick(LoadHg(std::string(GHD_DATA_DIR) + "/triangle.hg").value(), 2); }

TEST(FaultSweepTest, Cycle5) { SweepEveryTick(CycleHypergraph(5), 2); }

TEST(FaultSweepTest, Star) { SweepEveryTick(StarHypergraph(4, 3), 1); }

TEST(FaultSweepTest, Grid3x3) {
  // The grid's ladder is longer (subset DP + branch and bound); stride the
  // sweep to keep the test fast while still crossing every rung boundary.
  SweepEveryTick(Grid2dHypergraph(3, 3), 2, /*stride=*/7);
}

TEST(FaultSweepTest, MonotoneUnderGrowingTickBudget) {
  const Hypergraph h = Grid2dHypergraph(3, 3);
  int prev_lb = 0;
  int prev_ub = h.num_edges() + 1;
  for (long ticks = 1; ticks <= (1 << 14); ticks *= 2) {
    AnytimeOptions options;
    options.tick_budget = ticks;
    AnytimeGhwResult r = AnytimeGhw(h, options);
    ASSERT_LE(r.lower_bound, 2);
    ASSERT_GE(r.upper_bound, 2);
    ASSERT_GE(r.lower_bound, prev_lb) << "at tick budget " << ticks;
    ASSERT_LE(r.upper_bound, prev_ub) << "at tick budget " << ticks;
    prev_lb = r.lower_bound;
    prev_ub = r.upper_bound;
  }
}

TEST(FaultSweepTest, TruncationNeverPoisonsKDeciderAnswer) {
  // Regression for the cache-poisoning rule: a truncated "no" must never be
  // memoized, so whenever a fault-injected decider still claims `decided`,
  // its answer must agree with the unbudgeted truth — at every injection
  // index and for both polarities of the answer.
  const Hypergraph h = LoadHg(std::string(GHD_DATA_DIR) + "/triangle.hg").value();
  const GuardFamily family = OriginalEdgesFamily(h);
  for (int k = 1; k <= 2; ++k) {
    Budget probe;
    KDeciderOptions probe_options;
    probe_options.budget = &probe;
    KDeciderResult truth = DecideWidthK(h, family, k, probe_options);
    ASSERT_TRUE(truth.decided);
    const long total = probe.ticks_used();
    ASSERT_GT(total, 0);
    for (long n = 1; n <= total; ++n) {
      Budget budget;
      budget.InjectFailureAfter(n);
      KDeciderOptions options;
      options.budget = &budget;
      KDeciderResult r = DecideWidthK(h, family, k, options);
      if (r.decided) {
        EXPECT_EQ(r.exists, truth.exists)
            << "poisoned answer for k=" << k << " at tick " << n;
      }
    }
  }
}

// The batch commands run several instances at once under one governor, so a
// fault (or deadline, or SIGINT) fires in the middle of whichever solves are
// in flight on the ParallelFor workers. The injection index is global across
// the workers' ticks.
constexpr int kFanOutWorkers = 3;

TEST(FaultSweepTest, FanOutAnytimeRunsSurviveSharedMidRunFault) {
  const Hypergraph h = Grid2dHypergraph(3, 3);
  for (long n : {1L, 3L, 10L, 50L, 250L, 1000L}) {
    Budget budget;
    budget.InjectFailureAfter(n);
    std::vector<AnytimeGhwResult> results(kFanOutWorkers);
    ParallelFor(kFanOutWorkers, kFanOutWorkers, [&](int w) {
      AnytimeOptions options;
      options.budget = &budget;
      results[w] = AnytimeGhw(h, options);
    });
    for (const AnytimeGhwResult& r : results) {
      EXPECT_LE(r.lower_bound, 2) << "fault at tick " << n;
      EXPECT_GE(r.upper_bound, 2) << "fault at tick " << n;
      EXPECT_TRUE(r.witness.Validate(h).ok()) << "fault at tick " << n;
    }
  }
}

TEST(FaultSweepTest, FanOutKDecidersSurviveSharedMidRunFault) {
  const Hypergraph h = Grid2dHypergraph(3, 3);
  const GuardFamily family = OriginalEdgesFamily(h);
  KDeciderResult truth = DecideWidthK(h, family, 3);
  ASSERT_TRUE(truth.decided);
  for (long n : {1L, 5L, 25L, 125L, 625L}) {
    Budget budget;
    budget.InjectFailureAfter(n);
    std::vector<KDeciderResult> results(kFanOutWorkers);
    ParallelFor(kFanOutWorkers, kFanOutWorkers, [&](int w) {
      KDeciderOptions options;
      options.budget = &budget;
      results[w] = DecideWidthK(h, family, 3, options);
    });
    for (const KDeciderResult& r : results) {
      if (r.decided) {
        EXPECT_EQ(r.exists, truth.exists) << "fault at tick " << n;
      }
    }
  }
}

TEST(AnytimeTest, ExternalCancellationStopsDriver) {
  // Grid 4x4 has 2^16 subset-DP cells — far more than the driver can chew
  // through before the cancel lands; either way the result must be a valid
  // interval with a validated witness (this is the SIGINT code path).
  const Hypergraph h = Grid2dHypergraph(4, 4);
  Budget budget;
  AnytimeOptions options;
  options.budget = &budget;
  std::thread canceller([&budget] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    budget.Cancel();
  });
  AnytimeGhwResult r = AnytimeGhw(h, options);
  canceller.join();
  EXPECT_LE(r.lower_bound, r.upper_bound);
  EXPECT_LE(r.lower_bound, 3);  // tw-based bound on ghw(grid 4x4) = 2..3
  EXPECT_GE(r.upper_bound, 2);
  EXPECT_TRUE(r.witness.Validate(h).ok());
}

TEST(AnytimeTest, DeadlineIsRespectedWithinSlack) {
  const Hypergraph h = Grid2dHypergraph(4, 4);
  const auto start = std::chrono::steady_clock::now();
  AnytimeOptions options;
  options.deadline_seconds = 0.05;
  AnytimeGhwResult r = AnytimeGhw(h, options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Generous slack: the deadline is cooperative (polled every
  // kDeadlinePollPeriod ticks) and the tick-free heuristic rungs run first.
  EXPECT_LT(elapsed, 5.0);
  EXPECT_LE(r.lower_bound, r.upper_bound);
  EXPECT_TRUE(r.witness.Validate(h).ok());
}

}  // namespace
}  // namespace ghd
