// Observability-layer tests: counter determinism (single-threaded runs must
// produce byte-identical snapshots across invocations), loss-free totals from
// deciders on fan-out workers, snapshot aggregation, runtime gating, trace
// export structure, ring overwrite, and the RunReport JSON emitter. The whole
// suite is a placeholder in GHD_OBS=OFF builds.
#include <string>

#include "gtest/gtest.h"
#include "obs/obs.h"

#if GHD_OBS_ENABLED

#include "core/k_decider.h"
#include "gen/generators.h"
#include "htd/det_k_decomp.h"
#include "obs/run_report.h"
#include "util/thread_pool.h"

namespace ghd {
namespace {

// Leaves the process-global subsystems the way the other tests expect:
// counters zeroed + disabled, tracing disarmed.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::EnableCounters(true);
    obs::ResetCounters();
  }
  void TearDown() override {
    obs::DisableTracing();
    obs::ResetCounters();
    obs::EnableCounters(false);
  }
};

obs::CounterSnapshot RunDeciderOnce(const Hypergraph& h) {
  obs::ResetCounters();
  HypertreeWidthResult r = HypertreeWidth(h, 0);
  EXPECT_TRUE(r.exact);
  return obs::SnapshotCounters();
}

TEST_F(ObsTest, SingleThreadedRunsAreByteIdentical) {
  const Hypergraph h = Grid2dHypergraph(3, 3);
  const obs::CounterSnapshot a = RunDeciderOnce(h);
  const obs::CounterSnapshot b = RunDeciderOnce(h);
  EXPECT_TRUE(a == b);
  std::string ja, jb;
  a.AppendJson(&ja);
  b.AppendJson(&jb);
  EXPECT_EQ(ja, jb);  // byte-identical, not just numerically equal
  EXPECT_GT(a.counter(obs::Counter::kDeciderStates), 0);
  EXPECT_EQ(a.counter(obs::Counter::kDeciderMemoPoisoned), 0);
  // Tracing was off for the whole run, so no span could have been shed.
  EXPECT_EQ(a.counter(obs::Counter::kTraceSpansDropped), 0);
}

TEST_F(ObsTest, FanOutCounterTotalsAreLossFree) {
  // Each ParallelFor worker counts into its own thread-local shard, folded
  // into the totals when the worker exits. Every run is sequential and
  // deterministic, so n runs spread over any number of workers must sum to
  // exactly n times one run — no event lost or double-counted.
  const Hypergraph h = CliqueHypergraph(7);
  const obs::CounterSnapshot one = RunDeciderOnce(h);
  constexpr int kRuns = 8;
  for (int threads : {2, 8}) {
    obs::ResetCounters();
    ParallelFor(threads, kRuns, [&h](int) {
      EXPECT_TRUE(HypertreeWidth(h, 0).exact);
    });
    const obs::CounterSnapshot s = obs::SnapshotCounters();
    for (obs::Counter c : {obs::Counter::kDeciderStates,
                           obs::Counter::kDeciderMemoInserts,
                           obs::Counter::kDeciderLambdaTried,
                           obs::Counter::kInternerMisses}) {
      EXPECT_EQ(s.counter(c), kRuns * one.counter(c))
          << obs::CounterName(c) << " threads=" << threads;
    }
    EXPECT_EQ(s.counter(obs::Counter::kDeciderMemoPoisoned), 0)
        << "threads=" << threads;
  }
}

TEST_F(ObsTest, DisabledCountersRecordNothing) {
  obs::EnableCounters(false);
  GHD_COUNT(kBnbNodes);
  GHD_COUNT_N(kBnbNodes, 41);
  GHD_GAUGE_MAX(kPeakBytesCharged, 1000);
  GHD_HISTO(kCoverSize, 3);
  const obs::CounterSnapshot s = obs::SnapshotCounters();
  EXPECT_FALSE(s.AnyNonZero());
  obs::EnableCounters(true);
  GHD_COUNT_N(kBnbNodes, 41);
  EXPECT_EQ(obs::SnapshotCounters().counter(obs::Counter::kBnbNodes), 41);
}

TEST_F(ObsTest, GaugeKeepsTheMaximum) {
  GHD_GAUGE_MAX(kMaxGuardFamily, 7);
  GHD_GAUGE_MAX(kMaxGuardFamily, 3);  // lower: ignored
  GHD_GAUGE_MAX(kMaxGuardFamily, 11);
  EXPECT_EQ(obs::SnapshotCounters().gauge(obs::Gauge::kMaxGuardFamily), 11);
}

TEST_F(ObsTest, ResetClearsEverything) {
  GHD_COUNT(kLpPivots);
  GHD_GAUGE_MAX(kMaxRelationSize, 5);
  GHD_HISTO(kJoinSize, 9);
  EXPECT_TRUE(obs::SnapshotCounters().AnyNonZero());
  obs::ResetCounters();
  EXPECT_FALSE(obs::SnapshotCounters().AnyNonZero());
}

TEST_F(ObsTest, HistogramUsesLog2Buckets) {
  GHD_HISTO(kCoverSize, 0);  // bucket 0
  GHD_HISTO(kCoverSize, 1);  // bucket 1
  GHD_HISTO(kCoverSize, 2);  // bucket 2
  GHD_HISTO(kCoverSize, 3);  // bucket 2
  GHD_HISTO(kCoverSize, 4);  // bucket 3
  const auto histo =
      obs::SnapshotCounters().histos[static_cast<int>(obs::Histo::kCoverSize)];
  EXPECT_EQ(histo[0], 1);
  EXPECT_EQ(histo[1], 1);
  EXPECT_EQ(histo[2], 2);
  EXPECT_EQ(histo[3], 1);
}

TEST_F(ObsTest, CounterNamesAreStableJsonKeys) {
  for (int i = 0; i < obs::kNumCounters; ++i) {
    const std::string name = obs::CounterName(static_cast<obs::Counter>(i));
    EXPECT_FALSE(name.empty()) << i;
    EXPECT_EQ(name.find(' '), std::string::npos) << name;
  }
  EXPECT_STREQ(obs::CounterName(obs::Counter::kDeciderMemoPoisoned),
               "decider_memo_poisoned");
}

TEST_F(ObsTest, TraceExportIsChromeLoadable) {
  obs::EnableTracing();
  {
    GHD_SPAN_VAR(span, "test", "outer");
    span.SetArg("k", 3);
    GHD_SPAN_VAR(inner, "test", "inner");
  }
  EXPECT_EQ(obs::TraceEventCount(), 2u);
  // Two spans into a default-capacity ring: nothing overwritten.
  EXPECT_EQ(obs::SnapshotCounters().counter(obs::Counter::kTraceSpansDropped),
            0);
  const std::string json = obs::TraceToJson();
  obs::DisableTracing();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // complete events
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"k\": 3"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);  // lane metadata
}

TEST_F(ObsTest, SpansAreInertWhileTracingIsOff) {
  {
    GHD_SPAN_VAR(span, "test", "ignored");
  }
  obs::EnableTracing();
  EXPECT_EQ(obs::TraceEventCount(), 0u);
  obs::DisableTracing();
}

TEST_F(ObsTest, RingKeepsOnlyTheMostRecentSpans) {
  obs::EnableTracing(/*ring_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    GHD_SPAN_VAR(span, "test", "tick");
    span.SetArg("i", i);
  }
  EXPECT_EQ(obs::TraceEventCount(), 4u);
  // 10 spans through a capacity-4 ring: the 6 overwritten ones are counted,
  // so a report reader can tell a complete trace from a sheared one.
  EXPECT_EQ(obs::SnapshotCounters().counter(obs::Counter::kTraceSpansDropped),
            6);
  const std::string json = obs::TraceToJson();
  obs::DisableTracing();
  EXPECT_NE(json.find("\"i\": 9"), std::string::npos);  // newest retained
  EXPECT_EQ(json.find("\"i\": 0"), std::string::npos);  // oldest overwritten
}

TEST_F(ObsTest, ReenablingTracingClearsOldEvents) {
  obs::EnableTracing();
  {
    GHD_SPAN_VAR(span, "test", "stale");
  }
  EXPECT_EQ(obs::TraceEventCount(), 1u);
  obs::EnableTracing();  // re-arm: previous history dropped
  EXPECT_EQ(obs::TraceEventCount(), 0u);
  obs::DisableTracing();
}

TEST_F(ObsTest, RunReportEmitsRequiredSections) {
  obs::RunReport report;
  report.command = "anytime";
  report.instance_path = "data/example.hg";
  report.AddConfig("threads", "2");
  report.status = "exact";
  report.lower_bound = 2;
  report.upper_bound = 2;
  report.trail.push_back(obs::ReportTrailStep{"greedy-cover", 1, 3, 0.001});
  report.has_counters = true;
  GHD_COUNT(kLadderRungs);
  report.counters = obs::SnapshotCounters();
  const std::string json = report.ToJson();
  for (const char* key :
       {"\"schema_version\"", "\"tool\"", "\"command\"", "\"instance\"",
        "\"git_describe\"", "\"config\"", "\"outcome\"", "\"trail\"",
        "\"counters\"", "\"ladder_rungs\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // The single-line variant (for logs) must not contain raw newlines.
  EXPECT_EQ(report.ToJsonLine().find('\n'), std::string::npos);
}

}  // namespace
}  // namespace ghd

#else  // !GHD_OBS_ENABLED

TEST(ObsTest, DisabledBuildCompilesMacrosToNoOps) {
  GHD_COUNT(kBnbNodes);
  GHD_SPAN_VAR(span, "test", "noop");
  span.SetArg("k", 1);
}

#endif  // GHD_OBS_ENABLED
