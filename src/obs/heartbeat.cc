#include "obs/heartbeat.h"

#include <cstdio>
#include <iostream>

#include "obs/metrics_sampler.h"
#include "obs/progress_board.h"
#include "util/resource_governor.h"

namespace ghd {
namespace obs {
namespace {

void AppendFixed(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  *out += buf;
}

void AppendRate(std::string* out, long delta, double seconds) {
  AppendFixed(out, seconds > 0 ? static_cast<double>(delta) / seconds : 0.0);
}

}  // namespace

Heartbeat::Heartbeat(Options options) : options_(options) {
  start_ = std::chrono::steady_clock::now();
  last_beat_ = start_;
  prev_ = SnapshotCounters();
}

Heartbeat::~Heartbeat() { Stop(); }

void Heartbeat::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  // Seq-0 line right away: a run shorter than one interval still opens the
  // stream, and downstream tails learn the schema before the first interval.
  EmitLocked(/*final_line=*/false);
  thread_ = std::thread(&Heartbeat::ThreadMain, this);
}

void Heartbeat::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) {
      // Never started (or already stopped): still honor the final-line
      // contract exactly once, e.g. a Heartbeat constructed but the run
      // faulted before Start().
      return;
    }
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
  if (!final_emitted_) EmitLocked(/*final_line=*/true);
}

void Heartbeat::ThreadMain() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_requested_) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.interval_ms);
    if (cv_.wait_until(lock, deadline,
                       [this] { return stop_requested_; })) {
      break;
    }
    // A stopped budget means the engines are unwinding: emit the honest
    // final line now, while the counters still reflect the truncated run,
    // instead of racing teardown.
    if (options_.budget != nullptr && options_.budget->Stopped()) {
      if (!final_emitted_) EmitLocked(/*final_line=*/true);
      return;
    }
    EmitLocked(/*final_line=*/false);
  }
}

void Heartbeat::EmitLocked(bool final_line) {
  const auto now = std::chrono::steady_clock::now();
  const double at = std::chrono::duration<double>(now - start_).count();
  const double gap = std::chrono::duration<double>(now - last_beat_).count();
  const CounterSnapshot current = SnapshotCounters();
  const BoardSnapshot board = SnapshotBoard();

  std::string line = "{\"type\":\"heartbeat\",\"seq\":";
  line += std::to_string(seq_);
  line += ",\"at_seconds\":";
  AppendFixed(&line, at);
  line += ",\"phase\":\"";
  line += board.phase;
  line += "\",\"rung\":\"";
  line += board.rung;
  line += '"';
  static constexpr BoardSlot kNumericSlots[] = {
      BoardSlot::kBestLb,       BoardSlot::kBestUb,
      BoardSlot::kWidthK,       BoardSlot::kFrontierDepth,
      BoardSlot::kMemoStates,   BoardSlot::kInternerSets,
      BoardSlot::kGuardFamily,  BoardSlot::kCacheHits,
      BoardSlot::kCacheMisses,  BoardSlot::kIncrVersion,
      BoardSlot::kIncrRetained,
  };
  for (BoardSlot slot : kNumericSlots) {
    line += ",\"";
    line += BoardSlotName(slot);
    line += "\":" + std::to_string(board.slot(slot));
  }
  line += ",\"ticks\":" +
          std::to_string(current.counter(Counter::kGovernorTicks));
  line += ",\"ticks_per_sec\":";
  AppendRate(&line,
             current.counter(Counter::kGovernorTicks) -
                 prev_.counter(Counter::kGovernorTicks),
             gap);
  line += ",\"memo_inserts_per_sec\":";
  AppendRate(&line,
             current.counter(Counter::kDeciderMemoInserts) -
                 prev_.counter(Counter::kDeciderMemoInserts),
             gap);
  line += ",\"kernel_batches_per_sec\":";
  AppendRate(&line,
             current.counter(Counter::kKernelBatches) -
                 prev_.counter(Counter::kKernelBatches),
             gap);
  line += ",\"resident_kb\":" + std::to_string(ResidentMemoryKb());

  const Budget* budget = options_.budget;
  line += ",\"bytes_charged\":" +
          std::to_string(budget != nullptr ? budget->bytes_charged() : 0);
  line += ",\"deadline_fraction\":";
  AppendFixed(&line, budget != nullptr ? budget->DeadlineFraction() : -1);
  line += ",\"tick_fraction\":";
  AppendFixed(&line, budget != nullptr ? budget->TickFraction() : -1);
  line += ",\"memory_fraction\":";
  AppendFixed(&line, budget != nullptr ? budget->MemoryFraction() : -1);
  line += ",\"stop_reason\":\"";
  line += StopReasonName(budget != nullptr ? budget->reason()
                                           : StopReason::kNone);
  line += final_line ? "\",\"final\":true}\n" : "\",\"final\":false}\n";

  std::ostream* out = options_.out != nullptr ? options_.out : &std::cerr;
  // One write call per line: concurrent stderr writers can interleave whole
  // lines but never split one.
  out->write(line.data(), static_cast<std::streamsize>(line.size()));
  out->flush();

  prev_ = current;
  last_beat_ = now;
  ++seq_;
  if (final_line) final_emitted_ = true;
}

size_t Heartbeat::lines_emitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return seq_;
}

}  // namespace obs
}  // namespace ghd
