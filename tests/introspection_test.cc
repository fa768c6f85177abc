// Live-introspection tests: sampler delta correctness against a
// deterministic counter script, bounded-ring honesty, one frame serving both
// the heartbeat line and the ring, the one-final-line rule on the budget-stop
// and Stop() paths, progress-board publish/snapshot/reset semantics, the
// heartbeat stream contract on a real deadline-truncated anytime run (and
// under fault injection), attribution tree accounting, and a concurrent
// publish/sample sweep that the TSan CI job runs to prove the whole surface
// is race-free.
#include "gtest/gtest.h"
#include "obs/obs.h"

#if GHD_OBS_ENABLED

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/anytime.h"
#include "gen/generators.h"
#include "hypergraph/hg_io.h"
#include "obs/sampler.h"
#include "util/resource_governor.h"

namespace ghd {
namespace {

// Restores every process-global introspection surface to its default-off
// state so this suite composes with obs_test in the same process.
class IntrospectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::EnableCounters(true);
    obs::ResetCounters();
  }
  void TearDown() override {
    obs::EnableAttribution(false);
    obs::EnableBoard(false);
    obs::ResetCounters();
    obs::EnableCounters(false);
  }
};

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

// The integer value of `"key":` in one heartbeat line; -2 when absent.
long IntField(const std::string& line, const std::string& key) {
  const size_t at = line.find("\"" + key + "\":");
  if (at == std::string::npos) return -2;
  return std::strtol(line.c_str() + at + key.size() + 3, nullptr, 10);
}

size_t CountFinalLines(const std::vector<std::string>& lines) {
  size_t finals = 0;
  for (const std::string& line : lines) {
    if (line.find("\"final\":true}") != std::string::npos) ++finals;
  }
  return finals;
}

// A cadence no test outlives: frames come only from Start, SampleNow and
// Stop, so each test scripts them exactly.
constexpr int kNoThreadFrames = 600000;

TEST_F(IntrospectionTest, SamplerDeltasFollowTheCounterScript) {
  obs::Sampler sampler;  // never Start()ed: SampleNow drives it
  sampler.SampleNow();   // frame 0: baseline (all deltas zero)
  GHD_COUNT_N(kDeciderMemoInserts, 7);
  GHD_COUNT_N(kKernelBatches, 3);
  GHD_GAUGE_MAX(kMaxGuardFamily, 41);
  sampler.SampleNow();  // frame 1: sees exactly the script above
  GHD_COUNT_N(kDeciderMemoInserts, 5);
  sampler.SampleNow();  // frame 2: only the second burst

  const std::vector<obs::MetricsSample> samples = sampler.Samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(sampler.lines_emitted(), 0u);  // no heartbeat_out, no lines
  EXPECT_EQ(samples[0].delta(obs::Counter::kDeciderMemoInserts), 0);
  EXPECT_EQ(samples[1].delta(obs::Counter::kDeciderMemoInserts), 7);
  EXPECT_EQ(samples[1].delta(obs::Counter::kKernelBatches), 3);
  EXPECT_EQ(
      samples[1].gauges[static_cast<int>(obs::Gauge::kMaxGuardFamily)], 41);
  EXPECT_EQ(samples[2].delta(obs::Counter::kDeciderMemoInserts), 5);
  EXPECT_EQ(samples[2].delta(obs::Counter::kKernelBatches), 0);
  // Rates are deltas over the measured gap, not the nominal cadence.
  if (samples[1].interval_seconds > 0) {
    EXPECT_DOUBLE_EQ(samples[1].Rate(obs::Counter::kDeciderMemoInserts),
                     7.0 / samples[1].interval_seconds);
  }
  EXPECT_EQ(sampler.samples_taken(), 3u);
  EXPECT_EQ(sampler.samples_dropped(), 0u);
#if defined(__linux__)
  EXPECT_GT(samples[1].resident_kb, 0);
#endif
}

TEST_F(IntrospectionTest, SamplerRingIsBoundedAndCountsDrops) {
  constexpr size_t kCapacity = obs::Sampler::kRingCapacity;
  obs::Sampler sampler;
  for (size_t i = 0; i < kCapacity + 6; ++i) {
    GHD_COUNT(kBnbNodes);
    sampler.SampleNow();
  }
  const std::vector<obs::MetricsSample> samples = sampler.Samples();
  ASSERT_EQ(samples.size(), kCapacity);
  EXPECT_EQ(sampler.samples_taken(), kCapacity + 6);
  EXPECT_EQ(sampler.samples_dropped(), 6u);
  // Oldest-first order survives the wraparound: each retained frame carries
  // exactly the one increment between consecutive samples, and timestamps
  // are non-decreasing.
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].delta(obs::Counter::kBnbNodes), 1) << i;
    if (i > 0) {
      EXPECT_GE(samples[i].at_seconds, samples[i - 1].at_seconds);
    }
  }
  const std::string json = sampler.ToJson();
  EXPECT_NE(json.find("\"type\":\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"samples_dropped\":6"), std::string::npos);
  EXPECT_NE(json.find("\"bnb_nodes\":1"), std::string::npos);
}

// One snapshot per frame serves both surfaces: the ticks step between
// consecutive heartbeat lines is exactly the governor_ticks delta of the
// matching ring frame.
TEST_F(IntrospectionTest, OneFrameServesHeartbeatLineAndRing) {
  Budget budget;
  std::ostringstream out;
  obs::Sampler::Options options;
  options.interval_ms = kNoThreadFrames;
  options.heartbeat_out = &out;
  options.budget = &budget;
  obs::Sampler sampler(options);
  sampler.Start();
  for (int i = 1; i <= 5; ++i) {
    for (int t = 0; t < 7 * i; ++t) budget.Tick();
    sampler.SampleNow();
  }
  for (int t = 0; t < 3; ++t) budget.Tick();
  sampler.Stop();

  const std::vector<std::string> lines = SplitLines(out.str());
  const std::vector<obs::MetricsSample> frames = sampler.Samples();
  ASSERT_EQ(lines.size(), 7u);  // seq-0, five SampleNow, closing
  ASSERT_EQ(frames.size(), lines.size());
  EXPECT_EQ(sampler.lines_emitted(), lines.size());
  for (size_t i = 1; i < lines.size(); ++i) {
    const long step =
        IntField(lines[i], "ticks") - IntField(lines[i - 1], "ticks");
    EXPECT_EQ(step, frames[i].delta(obs::Counter::kGovernorTicks)) << i;
    EXPECT_EQ(step, i < 6 ? 7 * static_cast<long>(i) : 3) << i;
  }
  EXPECT_EQ(CountFinalLines(lines), 1u);
  EXPECT_NE(lines.back().find("\"stop_reason\":\"none\",\"final\":true}"),
            std::string::npos)
      << lines.back();
}

// The first frame that sees a stopped budget writes the one final line;
// later frames, Stop()'s closing frame included, feed only the ring.
TEST_F(IntrospectionTest, BudgetStopFrameWritesTheOnlyFinalLine) {
  Budget budget;
  std::ostringstream out;
  obs::Sampler::Options options;
  options.interval_ms = kNoThreadFrames;
  options.heartbeat_out = &out;
  options.budget = &budget;
  obs::Sampler sampler(options);
  sampler.Start();
  sampler.SampleNow();
  budget.Cancel();
  sampler.SampleNow();  // sees the stop: final line
  sampler.SampleNow();
  sampler.Stop();

  const std::vector<std::string> lines = SplitLines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(CountFinalLines(lines), 1u);
  EXPECT_NE(
      lines.back().find("\"stop_reason\":\"cancelled\",\"final\":true}"),
      std::string::npos)
      << lines.back();
  EXPECT_EQ(sampler.samples_taken(), 5u);  // the ring keeps the tail
}

TEST_F(IntrospectionTest, StopWithoutStartWritesNothing) {
  std::ostringstream out;
  Budget budget;
  obs::Sampler::Options options;
  options.heartbeat_out = &out;
  options.budget = &budget;
  {
    obs::Sampler sampler(options);
    sampler.Stop();
    EXPECT_EQ(sampler.lines_emitted(), 0u);
    EXPECT_EQ(sampler.samples_taken(), 0u);
  }  // nor does the destructor
  EXPECT_TRUE(out.str().empty());
}

TEST_F(IntrospectionTest, BoardPublishesSnapshotsAndResets) {
  obs::EnableBoard(true);
  GHD_BOARD_PHASE("test-phase");
  GHD_BOARD_RUNG("exact-bnb");
  GHD_BOARD_SET(kBestLb, 2);
  GHD_BOARD_SET(kBestUb, 5);
  obs::BoardSnapshot snap = obs::SnapshotBoard();
  EXPECT_STREQ(snap.phase, "test-phase");
  EXPECT_STREQ(snap.rung, "exact-bnb");
  EXPECT_EQ(snap.slot(obs::BoardSlot::kBestLb), 2);
  EXPECT_EQ(snap.slot(obs::BoardSlot::kBestUb), 5);
  // Never-published slots stay distinguishable from legitimate zeros.
  EXPECT_EQ(snap.slot(obs::BoardSlot::kWidthK), obs::kBoardUnset);

  obs::ResetBoard();
  snap = obs::SnapshotBoard();
  EXPECT_STREQ(snap.phase, "");
  EXPECT_EQ(snap.slot(obs::BoardSlot::kBestLb), obs::kBoardUnset);

  // Disarmed: publishes are dropped and lazy expressions never evaluate.
  obs::EnableBoard(false);
  int evaluations = 0;
  GHD_BOARD_SET(kBestLb, 9);
  GHD_BOARD_LAZY(kMemoStates, (++evaluations, 7));
  EXPECT_EQ(evaluations, 0);
  EXPECT_EQ(obs::SnapshotBoard().slot(obs::BoardSlot::kBestLb),
            obs::kBoardUnset);
  obs::EnableBoard(true);
  GHD_BOARD_LAZY(kMemoStates, (++evaluations, 7));
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(obs::SnapshotBoard().slot(obs::BoardSlot::kMemoStates), 7);
}

TEST_F(IntrospectionTest, HeartbeatStreamsSchemaLinesOnDeadlineRun) {
  const auto h = LoadHg(std::string(GHD_DATA_DIR) + "/grid7x7.hg");
  ASSERT_TRUE(h.ok());
  obs::EnableBoard(true);

  Budget budget(/*deadline_seconds=*/0.1);
  std::ostringstream out;
  obs::Sampler::Options options;
  options.interval_ms = 20;
  options.heartbeat_out = &out;
  options.budget = &budget;
  obs::Sampler sampler(options);
  sampler.Start();

  AnytimeOptions anytime;
  anytime.budget = &budget;
  const AnytimeGhwResult r = AnytimeGhw(h.value(), anytime);
  sampler.Stop();

  // grid7x7 is deliberately too hard for 100ms: the run must truncate.
  EXPECT_TRUE(budget.Stopped());
  EXPECT_EQ(budget.reason(), StopReason::kDeadline);
  EXPECT_LE(r.lower_bound, r.upper_bound);

  const std::vector<std::string> lines = SplitLines(out.str());
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines.size(), sampler.lines_emitted());
  EXPECT_EQ(CountFinalLines(lines), 1u);
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    // Stable schema prefix with sequential seq numbers.
    EXPECT_EQ(line.rfind("{\"type\":\"heartbeat\",\"seq\":" +
                             std::to_string(i) + ",",
                         0),
              0u)
        << line;
    for (const char* key :
         {"\"phase\":", "\"rung\":", "\"lb\":", "\"ub\":", "\"k\":",
          "\"frontier_depth\":", "\"memo_states\":", "\"interner_sets\":",
          "\"cache_hits\":", "\"cache_misses\":", "\"ticks\":", "\"ticks_per_sec\":", "\"memo_inserts_per_sec\":",
          "\"kernel_batches_per_sec\":", "\"resident_kb\":",
          "\"bytes_charged\":", "\"deadline_fraction\":", "\"tick_fraction\":",
          "\"memory_fraction\":", "\"stop_reason\":", "\"final\":"}) {
      EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
    }
    const bool is_last = i + 1 == lines.size();
    EXPECT_NE(line.find(is_last ? "\"final\":true}" : "\"final\":false}"),
              std::string::npos)
        << line;
  }
  // The final line carries the definitive stop reason.
  EXPECT_NE(lines.back().find("\"stop_reason\":\"deadline\""),
            std::string::npos)
      << lines.back();
  // Mid-run lines saw live board state: some line published real bounds.
  bool saw_bounds = false;
  for (const std::string& line : lines) {
    if (line.find("\"lb\":-1") == std::string::npos &&
        line.find("\"ub\":-1") == std::string::npos) {
      saw_bounds = true;
    }
  }
  EXPECT_TRUE(saw_bounds);
}

TEST_F(IntrospectionTest, HeartbeatFinalLineSurvivesInjectedFault) {
  Budget budget;
  budget.InjectFailureAfter(5);
  std::ostringstream out;
  obs::Sampler::Options options;
  options.interval_ms = 50;
  options.heartbeat_out = &out;
  options.budget = &budget;
  obs::Sampler sampler(options);
  sampler.Start();

  AnytimeOptions anytime;
  anytime.budget = &budget;
  AnytimeGhw(Grid2dHypergraph(3, 3), anytime);
  sampler.Stop();

  EXPECT_TRUE(budget.Stopped());
  const std::vector<std::string> lines = SplitLines(out.str());
  // Even a run shorter than one interval opens and closes the stream.
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(CountFinalLines(lines), 1u);
  EXPECT_NE(lines.back().find("\"final\":true}"), std::string::npos);
  EXPECT_NE(lines.back().find("\"stop_reason\":\"fault-injected\""),
            std::string::npos)
      << lines.back();
}

TEST_F(IntrospectionTest, AttributionTreeAccountsItsChildren) {
  obs::EnableAttribution(true);
  {
    GHD_ATTR_SCOPE(cmd, "cmd:test");
    {
      GHD_ATTR_SCOPE(phase_a, "phase-a");
      GHD_COUNT_N(kDpCells, 11);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    {
      GHD_ATTR_SCOPE(rung, "k=" + std::to_string(3));  // dynamic label
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    {
      GHD_ATTR_SCOPE(phase_a_again, "phase-a");  // re-entry merges, not dups
    }
  }
  const obs::AttributionNode root = obs::SnapshotAttribution();
  EXPECT_EQ(root.name, "run");
  ASSERT_EQ(root.children.size(), 1u);
  const obs::AttributionNode& cmd = root.children[0];
  EXPECT_EQ(cmd.name, "cmd:test");
  EXPECT_EQ(cmd.visits, 1);
  ASSERT_EQ(cmd.children.size(), 2u);  // first-visit order, re-entry merged
  EXPECT_EQ(cmd.children[0].name, "phase-a");
  EXPECT_EQ(cmd.children[0].visits, 2);
  EXPECT_EQ(cmd.children[1].name, "k=3");

  // The validator's invariant: children never account for more than their
  // parent (thread-sequential scopes), and everything fits inside the root.
  const double child_sum =
      cmd.children[0].wall_seconds + cmd.children[1].wall_seconds;
  EXPECT_LE(child_sum, cmd.wall_seconds + 1e-6);
  EXPECT_LE(cmd.wall_seconds, root.wall_seconds + 1e-6);
  EXPECT_GE(cmd.children[0].wall_seconds, 0.002);

  // Counter deltas land on the node whose scope covered them.
  bool found = false;
  for (const auto& kv : cmd.children[0].counters) {
    if (kv.first == "dp_cells") {
      EXPECT_EQ(kv.second, 11);
      found = true;
    }
  }
  EXPECT_TRUE(found);

  std::string json;
  obs::AppendAttributionJson(root, &json);
  EXPECT_NE(json.find("\"name\":\"phase-a\""), std::string::npos);
  EXPECT_NE(json.find("\"dp_cells\":11"), std::string::npos);

  const auto top = obs::TopAttributionNodes(root, 3);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].first, "cmd:test");  // outermost scope holds the most wall

  obs::ResetAttribution();
  EXPECT_TRUE(obs::SnapshotAttribution().children.empty());
}

// The TSan job runs this: writers hammer counters and board slots while the
// sampler thread (ring frames plus heartbeat lines) and a snapshot reader
// both pull concurrently. Correctness here is "no data races and no lost
// counts".
TEST_F(IntrospectionTest, ConcurrentPublishAndSampleSweep) {
  constexpr int kWriters = 4;
  constexpr int kIterations = 20000;

  obs::EnableBoard(true);
  std::ostringstream hb_out;
  obs::Sampler::Options options;
  options.interval_ms = 1;
  options.heartbeat_out = &hb_out;
  obs::Sampler sampler(options);
  sampler.Start();

  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, &done] {
      for (int i = 0; i < kIterations; ++i) {
        GHD_COUNT(kBnbNodes);
        GHD_BOARD_SET(kFrontierDepth, i);
        GHD_BOARD_SET(kBestUb, w + 1);
        if ((i & 1023) == 0) GHD_BOARD_PHASE("sweep");
      }
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  while (done.load(std::memory_order_relaxed) < kWriters) {
    const obs::BoardSnapshot snap = obs::SnapshotBoard();
    EXPECT_GE(snap.slot(obs::BoardSlot::kFrontierDepth), obs::kBoardUnset);
    obs::SnapshotCounters();
  }
  for (std::thread& t : writers) t.join();
  sampler.Stop();

  // No lost counts: the final snapshot sums every writer's work.
  EXPECT_EQ(obs::SnapshotCounters().counter(obs::Counter::kBnbNodes),
            static_cast<long>(kWriters) * kIterations);
  EXPECT_GE(sampler.samples_taken(), 2u);
  EXPECT_EQ(sampler.lines_emitted(), sampler.samples_taken());
  const obs::BoardSnapshot final_snap = obs::SnapshotBoard();
  EXPECT_EQ(final_snap.slot(obs::BoardSlot::kFrontierDepth), kIterations - 1);
}

}  // namespace
}  // namespace ghd

#else  // !GHD_OBS_ENABLED

TEST(IntrospectionTest, DisabledBuildCompilesMacrosToNoOps) {
  int evaluations = 0;
  GHD_BOARD_PHASE("noop");
  GHD_BOARD_SET(kBestLb, 1);
  GHD_BOARD_LAZY(kMemoStates, ++evaluations);
  GHD_ATTR_SCOPE(attr, "noop");
  EXPECT_EQ(evaluations, 0);  // lazy board probes vanish entirely
}

#endif  // GHD_OBS_ENABLED
