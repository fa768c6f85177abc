#include "obs/sampler.h"

#include <cstdio>

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

}  // namespace

double MetricsSample::Rate(Counter c) const {
  if (interval_seconds <= 0) return 0;
  return static_cast<double>(delta(c)) / interval_seconds;
}

long ResidentMemoryKb() {
#if defined(__linux__)
  // statm field 2 is resident pages; multiply by the page size. Reading with
  // stdio keeps this allocation-light (called from the sampler thread every
  // interval).
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size_pages = 0;
  long resident_pages = 0;
  const int got = std::fscanf(f, "%ld %ld", &size_pages, &resident_pages);
  std::fclose(f);
  if (got != 2) return 0;
  // Page size is 4 KiB on every platform this library targets; sysconf would
  // be exact but is not async-signal-safe and this is an approximation gauge.
  return resident_pages * 4;
#else
  return 0;
#endif
}

Sampler::Sampler(Options options) : options_(options) {
  if (options_.interval_ms < 1) options_.interval_ms = 1;
  ring_.reserve(kRingCapacity);
  start_ = std::chrono::steady_clock::now();
  last_frame_ = start_;
  prev_ = SnapshotCounters();
}

Sampler::~Sampler() { Stop(); }

void Sampler::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  FrameLocked(/*closing=*/false);
  thread_ = std::thread(&Sampler::ThreadMain, this);
}

void Sampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
  FrameLocked(/*closing=*/true);
}

void Sampler::ThreadMain() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_requested_) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.interval_ms);
    if (cv_.wait_until(lock, deadline,
                       [this] { return stop_requested_; })) {
      break;
    }
    FrameLocked(/*closing=*/false);
  }
}

void Sampler::SampleNow() {
  std::lock_guard<std::mutex> lock(mutex_);
  FrameLocked(/*closing=*/false);
}

void Sampler::FrameLocked(bool closing) {
  const auto now = std::chrono::steady_clock::now();
  const CounterSnapshot current = SnapshotCounters();
  MetricsSample frame;
  frame.at_seconds = std::chrono::duration<double>(now - start_).count();
  frame.interval_seconds =
      std::chrono::duration<double>(now - last_frame_).count();
  frame.resident_kb = ResidentMemoryKb();
  for (int i = 0; i < kNumCounters; ++i) {
    frame.counter_deltas[i] = current.counters[i] - prev_.counters[i];
  }
  frame.gauges = current.gauges;
  prev_ = current;
  last_frame_ = now;

  if (ring_.size() < kRingCapacity) {
    ring_.push_back(frame);
  } else {
    ring_[ring_head_] = frame;
    ring_head_ = (ring_head_ + 1) % kRingCapacity;
    ++dropped_;
  }
  ++taken_;

  if (options_.heartbeat_out == nullptr || final_written_) return;
  // A stopped budget means the engines are unwinding: write the final line
  // now, while the counters still reflect the truncated run.
  const bool stopped =
      options_.budget != nullptr && options_.budget->Stopped();
  WriteLineLocked(frame, current, closing || stopped);
}

void Sampler::WriteLineLocked(const MetricsSample& frame,
                              const CounterSnapshot& current,
                              bool final_line) {
  const BoardSnapshot board = SnapshotBoard();
  std::string line = "{\"type\":\"heartbeat\",\"seq\":";
  line += std::to_string(lines_);
  line += ",\"at_seconds\":";
  AppendFixed(&line, frame.at_seconds);
  line += ",\"phase\":\"";
  line += board.phase;
  line += "\",\"rung\":\"";
  line += board.rung;
  line += '"';
  for (int i = 0; i < kNumBoardSlots; ++i) {
    line += ",\"";
    line += BoardSlotName(static_cast<BoardSlot>(i));
    line += "\":" + std::to_string(board.slots[i]);
  }
  line += ",\"cache_hits\":" +
          std::to_string(current.counter(Counter::kCacheHits));
  line += ",\"cache_misses\":" +
          std::to_string(current.counter(Counter::kCacheMisses));
  line += ",\"ticks\":" +
          std::to_string(current.counter(Counter::kGovernorTicks));
  line += ",\"ticks_per_sec\":";
  AppendFixed(&line, frame.Rate(Counter::kGovernorTicks));
  line += ",\"memo_inserts_per_sec\":";
  AppendFixed(&line, frame.Rate(Counter::kDeciderMemoInserts));
  line += ",\"kernel_batches_per_sec\":";
  AppendFixed(&line, frame.Rate(Counter::kKernelBatches));
  line += ",\"resident_kb\":" + std::to_string(frame.resident_kb);

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

  // One write call per line: concurrent stderr writers can interleave whole
  // lines but never split one.
  options_.heartbeat_out->write(line.data(),
                                static_cast<std::streamsize>(line.size()));
  options_.heartbeat_out->flush();
  ++lines_;
  if (final_line) final_written_ = true;
}

std::vector<MetricsSample> Sampler::Samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricsSample> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_head_ + i) % ring_.size()]);
  }
  return out;
}

size_t Sampler::samples_taken() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return taken_;
}

size_t Sampler::samples_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

size_t Sampler::lines_emitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

std::string Sampler::ToJson() const {
  const std::vector<MetricsSample> samples = Samples();
  std::string out = "{\"type\":\"metrics\",\"interval_ms\":";
  out += std::to_string(options_.interval_ms);
  out += ",\"samples_taken\":" + std::to_string(samples_taken());
  out += ",\"samples_dropped\":" + std::to_string(samples_dropped());
  out += ",\"samples\":[";
  for (size_t i = 0; i < samples.size(); ++i) {
    const MetricsSample& s = samples[i];
    if (i > 0) out += ',';
    out += "{\"at_seconds\":";
    AppendFixed(&out, s.at_seconds);
    out += ",\"interval_seconds\":";
    AppendFixed(&out, s.interval_seconds);
    out += ",\"resident_kb\":" + std::to_string(s.resident_kb);
    out += ",\"deltas\":{";
    bool first = true;
    for (int c = 0; c < kNumCounters; ++c) {
      if (s.counter_deltas[c] == 0) continue;
      if (!first) out += ',';
      first = false;
      out += '"';
      out += CounterName(static_cast<Counter>(c));
      out += "\":" + std::to_string(s.counter_deltas[c]);
    }
    out += "},\"gauges\":{";
    first = true;
    for (int g = 0; g < kNumGauges; ++g) {
      if (s.gauges[g] == 0) continue;
      if (!first) out += ',';
      first = false;
      out += '"';
      out += GaugeName(static_cast<Gauge>(g));
      out += "\":" + std::to_string(s.gauges[g]);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace ghd
