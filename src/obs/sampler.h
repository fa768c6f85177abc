// Background sampler: one thread that, once per interval, takes one counter
// snapshot and one resident-memory read and turns them into a frame. Every
// frame is pushed into a bounded ring of timestamped deltas (rate-of-change
// time-series of the monotonic totals in obs/counters.h, dumped by
// --metrics-out). When a heartbeat stream is requested, the same frame is
// also rendered as one JSON line, with the ProgressBoard snapshot and the
// governor's budget fractions added.
//
// Heartbeat line schema (stable keys, documented in docs/OBSERVABILITY.md):
//   {"type":"heartbeat","seq":N,"at_seconds":T,"phase":"...","rung":"...",
//    "lb":L,"ub":U,"k":K,"frontier_depth":D,"memo_states":M,
//    "interner_sets":I,"guard_family":G,"incr_version":V,"incr_retained":R,
//    "cache_hits":H,"cache_misses":M,"ticks":N,"ticks_per_sec":R,
//    "memo_inserts_per_sec":R,"kernel_batches_per_sec":R,
//    "resident_kb":N,"bytes_charged":N,"deadline_fraction":F,
//    "tick_fraction":F,"memory_fraction":F,"stop_reason":"...","final":B}
// Board slots never published this run render as -1; budget fractions render
// as -1 when that limit is unset.
//
// Stream contract: Start() writes the seq-0 line, so even a run shorter than
// one interval opens the stream. The first frame that sees a stopped budget
// writes the one "final":true line with the definitive stop_reason, so an
// exit-3 run (deadline, tick budget, injected fault, SIGINT) ends with an
// honest last line; otherwise Stop() writes it. Stop() always takes a closing
// ring frame, so the tail of the run is not lost to cadence. Each line is one
// stream write, so concurrent stderr writers cannot split it.
//
// The hot path pays nothing for a running sampler: sampling is pull-only
// (SnapshotCounters sums the shards from the sampler thread). Once the ring
// is full the oldest frame is overwritten and `samples_dropped()` counts the
// loss. `SampleNow()` takes a frame without the thread, for tests.
#ifndef GHD_OBS_SAMPLER_H_
#define GHD_OBS_SAMPLER_H_

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.h"

namespace ghd {

class Budget;

namespace obs {

/// One timestamped delta frame: what changed since the previous frame.
struct MetricsSample {
  double at_seconds = 0;        // seconds since sampler construction
  double interval_seconds = 0;  // actual wall gap to the previous frame
  long resident_kb = 0;         // VmRSS at frame time; 0 when unavailable
  std::array<long, kNumCounters> counter_deltas{};
  std::array<long, kNumGauges> gauges{};  // absolute peaks, not deltas

  long delta(Counter c) const {
    return counter_deltas[static_cast<int>(c)];
  }
  /// delta(c) / interval_seconds; 0 for a degenerate zero-length frame.
  double Rate(Counter c) const;
};

/// Reads VmRSS in kilobytes from /proc/self/statm; 0 when the file is
/// unavailable (non-Linux).
long ResidentMemoryKb();

/// Namespace-scope (not nested) so the defaulted-argument constructor below
/// can brace-initialize it inside the class definition.
struct SamplerOptions {
  int interval_ms = 100;
  /// Heartbeat line destination; null writes no lines. The stream must
  /// outlive the sampler and tolerate writes from the sampler thread.
  std::ostream* heartbeat_out = nullptr;
  /// Optional budget for the lines' fractions and stop_reason, and for the
  /// budget-stop final line. Must outlive the sampler.
  const Budget* budget = nullptr;
};

class Sampler {
 public:
  using Options = SamplerOptions;
  static constexpr size_t kRingCapacity = 256;

  explicit Sampler(Options options = {});
  ~Sampler();  // Stop()s if still running

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Takes the seq-0 frame and launches the thread. No-op if running.
  void Start();
  /// Joins the thread and takes the closing frame, which writes the final
  /// line unless a budget-stop frame already did. No-op if not running.
  void Stop();

  /// Takes one frame immediately (serialized against the thread).
  void SampleNow();

  /// Ring contents, oldest first.
  std::vector<MetricsSample> Samples() const;
  size_t samples_taken() const;
  size_t samples_dropped() const;
  size_t lines_emitted() const;

  /// Serializes the ring as {"type":"metrics","interval_ms":..,
  /// "samples_taken":..,"samples_dropped":..,"samples":[{...},...]} with
  /// non-zero counter deltas keyed by CounterName. Input to tools/obs_top.py
  /// and the CLI's --metrics-out flag.
  std::string ToJson() const;

 private:
  void ThreadMain();
  void FrameLocked(bool closing);
  void WriteLineLocked(const MetricsSample& frame,
                       const CounterSnapshot& current, bool final_line);

  Options options_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_frame_;
  CounterSnapshot prev_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  bool final_written_ = false;
  size_t lines_ = 0;

  // Bounded ring guarded by mutex_.
  std::vector<MetricsSample> ring_;
  size_t ring_head_ = 0;  // index of the oldest frame once full
  size_t taken_ = 0;
  size_t dropped_ = 0;

  std::thread thread_;  // last: it uses every member above
};

}  // namespace obs
}  // namespace ghd

#endif  // GHD_OBS_SAMPLER_H_
