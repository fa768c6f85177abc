// cold_mix, repeat_mix and replay_evolve.
//
// Each workload's ask list is one *pass*; the window replays passes from a
// reset state (a fresh cache, or a fresh cache re-seeded with the warm-up
// entries) until --seconds of serving time have elapsed, so the tail of a
// run is made of many samples of the same seeded asks. Every pass must
// produce the same verdicts as the first; answers are checked as they come
// back (witnesses) and after the window (the oracle).
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/incremental.h"
#include "gen/generators.h"
#include "gen/workload_trace.h"
#include "hypergraph/canonical.h"
#include "util/hash_mix.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace ghd;
using obs::Counter;

namespace {

// A single-client workload runs on the CPU that is fastest at the moment:
// every quarter second of window time it times a short integer loop on each
// CPU it may run on and moves to the quickest. On a VM whose CPUs slow down
// and speed up independently (a busy sibling hyperthread on the host), this
// keeps the client off a CPU that a neighbour is slowing. Set-up blocks run
// on the fastest CPU too.
class FastestCpu {
 public:
  FastestCpu() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~FastestCpu() {
    if (moved_) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  // Call with the window paused.
  void MaybeMove(const Window& w) {
    if (w.ElapsedMs() < next_ms_) return;
    next_ms_ = w.ElapsedMs() + 250;
    Move();
  }
  void Move() {
    if (cpus_.size() < 2) return;
    int best = cpus_[0];
    double best_ms = 1e30;
    for (int cpu : cpus_) {
      if (!PinTo(cpu)) return;
      const double ms = std::min(Probe(), Probe());
      if (ms < best_ms) {
        best_ms = ms;
        best = cpu;
      }
    }
    PinTo(best);
  }

 private:
  bool PinTo(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) return false;
    moved_ = true;
    return true;
  }
  static double Probe() {
    const double t0 = NowMs();
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 100000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink_ = x;
    return NowMs() - t0;
  }

  static inline volatile uint64_t sink_ = 0;
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  double next_ms_ = 0;
  bool moved_ = false;
};

// Set-up repetitions. One block runs before the window; after that, one
// block runs (with the window paused) at the first pass boundary past each
// quarter of the window, so the reported median spans the whole run instead
// of its first second. A block repeats the set-up at least `min_reps` times
// and until `min_ms` have gone, at most 64 times, on the fastest CPU.
class SetupTimer {
 public:
  template <typename Fn>
  auto First(Fn fn, FastestCpu* cpu) {
    decltype(fn()) result;
    Block(cpu, 2, 50, [&] { result = fn(); });
    again_ = [fn] { fn(); };
    return result;
  }
  // Call between passes and once after the window, with the window paused.
  void Again(const Window& w, FastestCpu* cpu) {
    const double step = w.limit_ms() / 4;
    if (!again_ || step <= 0 || w.ElapsedMs() < next_ms_) return;
    while (next_ms_ <= w.ElapsedMs()) next_ms_ += step;
    Block(cpu, 1, 25, again_);
  }
  const std::vector<double>& seconds() const { return seconds_; }

 private:
  template <typename Fn>
  void Block(FastestCpu* cpu, size_t min_reps, double min_ms, Fn fn) {
    cpu->Move();
    double total_ms = 0;
    for (size_t n = 0; n < min_reps || (total_ms < min_ms && n < 64); ++n) {
      const double t0 = NowMs();
      fn();
      const double ms = NowMs() - t0;
      total_ms += ms;
      seconds_.push_back(ms / 1000.0);
    }
  }

  std::function<void()> again_;
  double next_ms_ = 0;
  std::vector<double> seconds_;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

std::string Hex(uint64_t x) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

// Latency rows of one run, per ask kind and per cause.
struct Tally {
  Samples decide_ms, anytime_ms, delta_ms, ask_ms;
  long decides = 0, decided = 0, anytimes = 0, exact = 0;
  double gap_sum = 0;
  std::map<std::string, Samples> cause_ms;

  void AddDelta(double ms) {
    ask_ms.Add(ms);
    delta_ms.Add(ms);
  }

  void Add(const Ask& ask, const AskResult& r, const std::string& cause) {
    ask_ms.Add(r.ms);
    if (!cause.empty()) cause_ms[cause].Add(r.ms);
    if (ask.kind == AskKind::kDecide) {
      decide_ms.Add(r.ms);
      ++decides;
      if (r.verdict != 'u') ++decided;
    } else {
      anytime_ms.Add(r.ms);
      ++anytimes;
      if (r.verdict == 'x') ++exact;
      gap_sum += r.ub - r.lb;
    }
  }
};

// Every pass must replay the first complete pass's verdicts exactly.
struct Determinism {
  std::string first;
  uint64_t first_ticks = 0;
  long first_decided = 0;
  bool have_first = false;
  long mismatches = 0;

  void AddPass(const std::string& verdicts, uint64_t ticks, long decided,
               bool complete) {
    if (have_first) {
      const size_t n = std::min(verdicts.size(), first.size());
      if (verdicts.compare(0, n, first, 0, n) != 0) ++mismatches;
      if (complete && verdicts != first) ++mismatches;
      return;
    }
    if (!complete) return;
    first = verdicts;
    first_ticks = ticks;
    first_decided = decided;
    have_first = true;
  }
};

void AppendVerdict(std::string* log, const AskResult& r) {
  log->push_back(r.verdict);
  if (r.verdict == 'x' || r.verdict == 'i') {
    *log += std::to_string(r.lb) + ":" + std::to_string(r.ub);
  }
  log->push_back(' ');
}

std::string RowJson(const Samples& s) {
  const auto [q, tail] = s.Tail();
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "{\"n\": %zu, \"p50_ms\": %.6g, \"p90_ms\": %.6g, "
                "\"p95_ms\": %.6g, \"p99_ms\": %.6g, \"tail_q\": %.4g, "
                "\"tail_ms\": %.6g}",
                s.n(), s.Pct(0.5), s.Pct(0.9), s.Pct(0.95), s.Pct(0.99), q,
                tail);
  return buf;
}

// The fastest repetition of every ask position over a run's passes. Every
// pass is the same work from the same reset state, so a position's fastest
// repetition is its cost with the least interference from the rest of the
// host; the end-to-end latencies are percentiles over these.
struct BestTimes {
  std::vector<double> ms;  // per position; < 0 until the position has run
  std::vector<char> decide;

  void Note(size_t pos, bool is_decide, double t) {
    if (pos >= ms.size()) {
      ms.resize(pos + 1, -1.0);
      decide.resize(pos + 1, 0);
    }
    if (ms[pos] < 0 || t < ms[pos]) ms[pos] = t;
    decide[pos] = is_decide;
  }
  Samples Decides() const {
    Samples s;
    for (size_t i = 0; i < ms.size(); ++i) {
      if (decide[i] && ms[i] >= 0) s.Add(ms[i]);
    }
    return s;
  }
  Samples All() const {
    Samples s;
    for (double t : ms) {
      if (t >= 0) s.Add(t);
    }
    return s;
  }
};

// The fields every workload reports the same way.
struct Common {
  FastestCpu cpu;
  SetupTimer setup;
  Tally tally;  // every ask of the window
  BestTimes best;
  Determinism det;
  ErrorLog errors;
  long passes = 0;
  long complete_passes = 0;

  void EndPass(const Window& w, bool complete) {
    ++passes;
    if (complete) ++complete_passes;
    setup.Again(w, &cpu);
  }
  void Record(size_t pos, const Ask& ask, const AskResult& r,
              const std::string& cause) {
    tally.Add(ask, r, cause);
    best.Note(pos, ask.kind == AskKind::kDecide, r.ms);
  }
  void RecordDelta(size_t pos, double ms) {
    tally.AddDelta(ms);
    best.Note(pos, false, ms);
  }
  // Closes the window: its length, and the peak RSS of set-up and serving,
  // read before the oracle runs.
  void CloseWindow(const Window& w) {
    window_ms = w.ElapsedMs();
    peak_rss_mb = PeakRssMb();
    setup.Again(w, &cpu);
  }
  double window_ms = 0;
  double peak_rss_mb = 0;
  uint64_t stream_digest = 0;
  long oracle_calls = 0;
  long anytime_unchecked = 0;
  double check_s = 0;  // oracle time after the window
};

// Runs the deferred oracle checks and records what they cost.
void FinishChecks(Checker* checker, Common* c) {
  const double t0 = NowMs();
  checker->Finish();
  c->check_s = (NowMs() - t0) / 1000.0;
  c->oracle_calls = checker->oracle_calls();
  c->anytime_unchecked = checker->anytime_unchecked();
}

void EndToEnd(const Common& c, long attempted, long failed, Sheet* s) {
  const Tally& t = c.tally;
  const Samples decides = c.best.Decides();
  // Asks per second of a pass served at its best: with one client, a pass
  // takes the sum of its asks' times, each at its fastest repetition.
  const Samples all = c.best.All();
  const double rps = all.Sum() > 0 ? all.n() / (all.Sum() / 1000.0) : 0.0;
  s->Set("setup_s", Median(c.setup.seconds()), "s");
  s->Set("decide_p50_ms", decides.Pct(0.5), "ms");
  s->Set("decide_tail_ms", decides.Tail().second, "ms");
  s->Set("throughput_rps", rps, "1/s");
  s->Set("decided_frac",
         t.decides > 0 ? static_cast<double>(t.decided) / t.decides : 0.0,
         "fraction");
  s->Set("verdict_ok_frac",
         attempted > 0 ? static_cast<double>(attempted - failed) / attempted
                       : 0.0,
         "fraction");
  s->Set("peak_rss_mb", c.peak_rss_mb, "MiB");
}

std::string DetailJson(const Common& c) {
  const Tally& t = c.tally;
  std::string out = "{";
  out += "\"passes\": " + std::to_string(c.passes);
  out += ", \"complete_passes\": " + std::to_string(c.complete_passes);
  out += ", \"asks_per_pass\": " + std::to_string(c.best.ms.size());
  out += ", \"window_ms\": " + std::to_string(c.window_ms);
  out += ", \"setup_s_runs\": [";
  const std::vector<double>& setup_s = c.setup.seconds();
  for (size_t i = 0; i < setup_s.size(); ++i) {
    out += (i ? ", " : "") + std::to_string(setup_s[i]);
  }
  out += "], \"stream_digest\": \"" + Hex(c.stream_digest) + "\"";
  out += ", \"verdict_digest\": \"" +
         Hex(std::hash<std::string>{}(c.det.first)) + "\"";
  out += ", \"first_pass\": {\"complete\": " +
         std::string(c.det.have_first ? "true" : "false") +
         ", \"decided\": " + std::to_string(c.det.first_decided) +
         ", \"ticks\": " + std::to_string(c.det.first_ticks) + "}";
  out += ", \"pass_mismatches\": " + std::to_string(c.det.mismatches);
  out += ", \"oracle_calls\": " + std::to_string(c.oracle_calls);
  out += ", \"check_s\": " + std::to_string(c.check_s);
  out += ", \"anytime_unchecked\": " + std::to_string(c.anytime_unchecked);
  out += ", \"errors\": " + c.errors.Json();
  out += ", \"rows\": {\"decide_best\": " + RowJson(c.best.Decides()) +
         ", \"decide\": " + RowJson(t.decide_ms) +
         ", \"anytime\": " + RowJson(t.anytime_ms) +
         ", \"delta\": " + RowJson(t.delta_ms) + ", \"ask\": " +
         RowJson(t.ask_ms);
  for (const auto& [cause, s] : t.cause_ms) {
    out += ", \"cause." + cause + "\": " + RowJson(s);
  }
  out += "}";
  if (t.anytimes > 0) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  ", \"anytime_exact_frac\": %.6g, \"anytime_gap_mean\": %.6g",
                  static_cast<double>(t.exact) / t.anytimes,
                  t.gap_sum / t.anytimes);
    out += buf;
  }
  return out + "}";
}

RunOutput Finish(const RunConfig& config, Common* c, Sheet per_layer) {
  RunOutput out;
  if (c->det.mismatches > 0) {
    c->errors.Add("nondeterministic_pass", std::to_string(c->det.mismatches),
                  false);
  }
  // An operation is an ask position of the pass: every pass repeats the same
  // asks from the same reset state, so both counts are functions of the
  // seed, not of how many passes fit in the window.
  out.attempted = static_cast<long>(c->best.All().n());
  out.failed = c->errors.failed();
  out.correct = c->errors.unexplained() == 0;
  if (config.trace) {
    out.metrics = std::move(per_layer);
  } else {
    EndToEnd(*c, out.attempted, out.failed, &out.metrics);
  }
  out.detail = DetailJson(*c);
  return out;
}

// obs.trace_overhead_frac: the composed calls' time with the counters on
// against the same calls with them off, each ask position taken at its
// fastest repetition of either kind.
struct OverheadPairs {
  BestTimes off, on;

  void Note(size_t pos, bool traced, double ms) {
    (traced ? on : off).Note(pos, false, ms);
  }
  double Frac() const {
    double sum_off = 0, sum_on = 0;
    for (size_t i = 0; i < off.ms.size() && i < on.ms.size(); ++i) {
      if (off.ms[i] < 0 || on.ms[i] < 0) continue;
      sum_off += off.ms[i];
      sum_on += on.ms[i];
    }
    return sum_off > 0 ? sum_on / sum_off - 1.0 : 0.0;
  }
};

// What every traced run ends with: the tracing overhead, and the
// memo-poisoning sentinel, which must read 0.
void FinishTraced(const OverheadPairs& overhead,
                  const obs::CounterSnapshot& counters, Sheet* sheet,
                  ErrorLog* errors) {
  sheet->Set("obs.trace_overhead_frac", overhead.Frac(), "fraction");
  if (counters.counter(Counter::kDeciderMemoPoisoned) != 0) {
    errors->Add("memo_poisoned", "decider_memo_poisoned != 0", false);
  }
}

// Starts a per-layer sheet with every catalogue metric at 0.
Sheet EmptyLayerSheet() {
  Sheet s;
  for (const auto& [name, unit] : PerLayerCatalogue()) s.Set(name, 0.0, unit);
  return s;
}

void AddAnytimeRows(const Tally& t, Sheet* s) {
  s->Set("anytime.ask_ms_p50", t.anytime_ms.Pct(0.5), "ms");
  s->Set("anytime.ask_ms_p99", t.anytime_ms.Pct(0.99), "ms");
  s->Set("anytime.exact_frac",
         t.anytimes > 0 ? static_cast<double>(t.exact) / t.anytimes : 0.0,
         "fraction");
  s->Set("anytime.gap_mean", t.anytimes > 0 ? t.gap_sum / t.anytimes : 0.0,
         "width");
}

// ---------------------------------------------------------------------------
// Cache-fronted closed loop (cold_mix, repeat_mix).
// ---------------------------------------------------------------------------

struct CacheStream {
  std::vector<Item> items;
  std::vector<Ask> asks;
  /// Entries the warm-up put in the cache; every pass starts from them.
  std::vector<std::pair<InstanceKey, CacheEntry>> warm;

  std::unique_ptr<DecompCache> FreshCache() const {
    auto cache = std::make_unique<DecompCache>();
    for (const auto& [key, entry] : warm) cache->Merge(key, entry);
    return cache;
  }
};

// The traced run alternates untraced passes (counters off, composed calls
// only) with traced passes (counters on; the composed call, then the staged
// pipeline on a cache of its own). Both caches see the same asks in the same
// order, so staged and composed verdicts must agree. Each composed call of
// either kind of pass follows the previous ask's library work, so the pair
// differs only in the counters.
RunOutput RunCacheLoop(const RunConfig& config, const CacheStream& w,
                       Common* c, bool per_cause) {
  Checker checker(&c->errors);
  Window window(config.seconds);
  LayerStats layers;
  Tally traced;
  OverheadPairs overhead;
  Samples cache_bytes;
  window.Start();
  for (long pass = 0; !window.Expired(); ++pass) {
    window.Pause();
    const bool traced_pass = config.trace && pass % 2 == 1;
    obs::EnableCounters(traced_pass);
    std::unique_ptr<DecompCache> cache = w.FreshCache();
    std::unique_ptr<DecompCache> staged_cache =
        traced_pass ? w.FreshCache() : nullptr;
    window.Resume();
    std::string verdicts;
    uint64_t ticks = 0;
    long decided = 0;
    bool complete = true;
    for (size_t i = 0; i < w.asks.size(); ++i) {
      if (window.Expired()) {
        complete = false;
        break;
      }
      const Ask& ask = w.asks[i];
      const Item& item = w.items[ask.item];
      window.Pause();
      c->cpu.MaybeMove(window);
      const obs::CounterSnapshot before =
          traced_pass ? obs::SnapshotCounters() : obs::CounterSnapshot{};
      window.Resume();
      const Served served = ServeAsk(item, ask, cache.get());
      window.Pause();
      const AskResult& r = served.r;
      const std::string cause =
          per_cause && ask.kind == AskKind::kDecide
              ? (r.from_cache ? ArrivalName(ask.arrival) : "miss")
              : "";
      if (traced_pass) {
        layers.AddCounters(before, obs::SnapshotCounters());
        const AskResult staged =
            StagedAsk(item, ask, staged_cache.get(), &layers);
        CompareStaged(staged, r, static_cast<long>(i), &layers, &c->errors);
        traced.Add(ask, r, cause);
      }
      overhead.Note(i, traced_pass, r.ms);
      c->Record(i, ask, r, cause);
      checker.Check(item, ask, served, static_cast<long>(i));
      AppendVerdict(&verdicts, r);
      ticks += static_cast<uint64_t>(r.ticks);
      if (ask.kind == AskKind::kDecide && r.verdict != 'u') ++decided;
      window.Resume();
    }
    window.Pause();
    if (traced_pass) cache_bytes.Add(static_cast<double>(cache->bytes()));
    c->det.AddPass(verdicts, ticks, decided, complete);
    c->EndPass(window, complete);
    window.Resume();
  }
  window.Pause();
  c->CloseWindow(window);
  obs::EnableCounters(false);
  FinishChecks(&checker, c);

  Sheet sheet = EmptyLayerSheet();
  if (config.trace) {
    AddLayerMetrics(layers, &sheet);
    AddAnytimeRows(traced, &sheet);
    sheet.Set("cache.bytes", cache_bytes.Mean(), "bytes");
    if (per_cause) {
      for (const char* cause : {"exact", "relabeled", "miss"}) {
        const auto it = traced.cause_ms.find(cause);
        const Samples none;
        const Samples& s = it == traced.cause_ms.end() ? none : it->second;
        sheet.Set(std::string("cache.decide_ms_p50.") + cause, s.Pct(0.5),
                  "ms");
        sheet.Set(std::string("cache.decide_ms_p99.") + cause, s.Pct(0.99),
                  "ms");
      }
    }
    FinishTraced(overhead, layers.counters, &sheet, &c->errors);
  }
  return Finish(config, c, std::move(sheet));
}

constexpr int kColdPerFamily = 32;

}  // namespace

RunOutput RunColdMix(const RunConfig& config) {
  Common c;
  CacheStream w = c.setup.First(
      [&] {
        CacheStream s;
        ColdStream(kColdPerFamily, config.seed, &s.items, &s.asks);
        return s;
      },
      &c.cpu);
  c.stream_digest = StreamDigest(w.items, w.asks);
  return RunCacheLoop(config, w, &c, /*per_cause=*/false);
}

// ---------------------------------------------------------------------------
// repeat_mix.
// ---------------------------------------------------------------------------

namespace {

// A short pass, so a run holds several and every ask position gets several
// chances at its fastest repetition.
constexpr int kRepeatAsks = 750;
constexpr int kNovelPerFamily = 1;  // 5 never-seen asks per pass, 0.7%

CacheStream RepeatSetup(uint64_t seed) {
  CacheStream s;
  const std::vector<Item> pool = RepeatPool();
  const int classes = static_cast<int>(pool.size());
  // Warm the cache with every class at the top k and, where the class takes
  // anytime asks, with an anytime ask; keep the entries so every pass
  // starts from the same state.
  DecompCache warm;
  std::vector<std::shared_ptr<const Hypergraph>> origins;
  for (const Item& item : pool) {
    const PreparedInstance p = PrepareInstance(item.h);
    CachedDecideHw(p, 4, &warm, DecideOptions());
    if (item.anytime_ok) CachedAnytimeGhw(p, AnytimeOpts(), &warm);
    CacheEntry entry;
    GHD_CHECK(warm.Lookup(p.key(), &entry));
    s.warm.push_back({p.key(), entry});
    origins.push_back(std::make_shared<const Hypergraph>(item.h));
  }
  // Never-seen asks: one member of each structured cold family at k = 2,
  // spread over the pass at seeded positions. They are the writes beside
  // the reads. Served asks cost a fraction of a millisecond, so a cold solve
  // whose cost swings with the seed (the random families, the budget-bound
  // stratum) would set the pass time by itself; clique_8 is a pool class.
  std::vector<Item> novel_items;
  std::vector<Ask> cold_asks, novel_asks;
  ColdStream(kNovelPerFamily, HashCombine(seed, 0x7e57), &novel_items,
             &cold_asks);
  for (size_t i = kColdFixedAsks; i < cold_asks.size(); ++i) {
    const std::string& f = novel_items[cold_asks[i].item].family;
    if (f == "adder" || f == "grid" || f == "clique" || f == "window" ||
        f == "tristrip") {
      novel_asks.push_back(cold_asks[i]);
    }
  }
  Rng rng(HashCombine(seed, 0x5eed));
  std::vector<char> novel_at(kRepeatAsks, 0);
  for (size_t i = 0; i < novel_asks.size(); ++i) novel_at[i] = 1;
  rng.Shuffle(&novel_at);
  // Zipf(1.1) over the pool ranks, apportioned (largest remainder) into
  // per-class quotas, so every seed sends each class the same number of
  // asks with the same k, kind and arrival counts; the seed draws their
  // order, their labelings and which ask gets which k, kind and arrival.
  const int pool_asks = kRepeatAsks - static_cast<int>(novel_asks.size());
  std::vector<double> share(classes);
  double total = 0;
  for (int i = 0; i < classes; ++i) total += 1.0 / std::pow(i + 1.0, 1.1);
  std::vector<int> quota(classes);
  int assigned = 0;
  for (int i = 0; i < classes; ++i) {
    share[i] = pool_asks / std::pow(i + 1.0, 1.1) / total;
    quota[i] = static_cast<int>(share[i]);
    assigned += quota[i];
  }
  std::vector<int> by_remainder(classes);
  for (int i = 0; i < classes; ++i) by_remainder[i] = i;
  std::stable_sort(by_remainder.begin(), by_remainder.end(), [&](int a, int b) {
    return share[a] - quota[a] > share[b] - quota[b];
  });
  for (int i = 0; assigned < pool_asks; ++i, ++assigned) {
    ++quota[by_remainder[i]];
  }
  // Per class, in arrival order: k cycles 2, 3, 4; a fifth are anytime
  // (where the class takes them); a quarter of the asks after the first
  // are exact repeats of an earlier labeling, the rest fresh relabelings.
  struct Slot {
    int k;
    bool anytime, exact;
  };
  std::vector<std::vector<Slot>> schedule(classes);
  std::vector<int> order;
  for (int c = 0; c < classes; ++c) {
    const int n = quota[c];
    std::vector<int> ks(n);
    std::vector<char> anytime(n, 0), exact(n > 0 ? n - 1 : 0, 0);
    for (int j = 0; j < n; ++j) ks[j] = 2 + j % 3;
    if (pool[c].anytime_ok) {
      std::fill(anytime.begin(), anytime.begin() + n / 5, 1);
    }
    std::fill(exact.begin(), exact.begin() + n / 4, 1);
    rng.Shuffle(&ks);
    rng.Shuffle(&anytime);
    rng.Shuffle(&exact);
    for (int j = 0; j < n; ++j) {
      schedule[c].push_back({ks[j], anytime[j] != 0, j > 0 && exact[j - 1]});
      order.push_back(c);
    }
  }
  rng.Shuffle(&order);
  std::vector<int> asked(classes, 0);
  std::vector<std::vector<int>> seen(classes);  // item ids per class
  size_t next_novel = 0, next_pool = 0;
  for (int i = 0; i < kRepeatAsks; ++i) {
    Ask a;
    if (novel_at[i]) {
      a = novel_asks[next_novel++];
      Item item = novel_items[a.item];
      item.class_id = classes + static_cast<int>(next_novel);
      a.arrival = Arrival::kNovel;
      a.item = static_cast<int>(s.items.size());
      s.items.push_back(std::move(item));
      s.asks.push_back(a);
      continue;
    }
    const int cls = order[next_pool++];
    const Slot& slot = schedule[cls][asked[cls]++];
    a.k = slot.k;
    if (slot.anytime) a.kind = AskKind::kAnytime;
    if (slot.exact) {
      a.arrival = Arrival::kExact;
      a.item = seen[cls][rng.UniformInt(static_cast<int>(seen[cls].size()))];
    } else {
      Item item = pool[cls];
      item.origin = origins[cls];
      item.h = Relabel(pool[cls].h, rng.Next());
      a.arrival = Arrival::kRelabeled;
      a.item = static_cast<int>(s.items.size());
      seen[cls].push_back(a.item);
      s.items.push_back(std::move(item));
    }
    s.asks.push_back(a);
  }
  return s;
}

}  // namespace

RunOutput RunRepeatMix(const RunConfig& config) {
  Common c;
  CacheStream w =
      c.setup.First([&] { return RepeatSetup(config.seed); }, &c.cpu);
  c.stream_digest = StreamDigest(w.items, w.asks);
  return RunCacheLoop(config, w, &c, /*per_cause=*/true);
}

// ---------------------------------------------------------------------------
// replay_evolve.
// ---------------------------------------------------------------------------

namespace {

// Events per base and pass: 100 GenerateTrace rounds of four events each.
constexpr int kReplayEvents = 400;

struct ReplayTarget {
  std::string name;
  WorkloadTrace trace;
};

// A GenerateTrace stream as generated (80% small single-edge rounds, the
// rest batched churn; k = 2), written out and parsed back as the replay
// command loads a trace file; the replay runs the parsed trace.
WorkloadTrace LoadedTrace(const Hypergraph& base, uint64_t seed) {
  TraceGenOptions opts;
  opts.k = 2;
  opts.seed = seed;
  opts.events = kReplayEvents;
  Result<WorkloadTrace> parsed =
      ParseTrace(WriteTrace(GenerateTrace(base, opts)));
  GHD_CHECK(parsed.ok());
  return std::move(parsed).value();
}

std::vector<ReplayTarget> ReplaySetup(uint64_t seed) {
  std::vector<ReplayTarget> targets;
  targets.push_back(
      {"cycle_256", LoadedTrace(CycleHypergraph(256), HashCombine(seed, 0))});
  targets.push_back(
      {"grid2d_6", LoadedTrace(Grid2dHypergraph(6, 6), HashCombine(seed, 1))});
  return targets;
}

uint64_t VersionDigest(const Hypergraph& h) {
  std::vector<uint64_t> edges;
  for (const VertexSet& e : h.edges()) {
    uint64_t d = 0x51ed;
    e.ForEach([&](int v) { d = HashCombine(d, static_cast<uint64_t>(v)); });
    edges.push_back(d);
  }
  std::sort(edges.begin(), edges.end());
  uint64_t d = static_cast<uint64_t>(h.num_vertices());
  for (uint64_t e : edges) d = HashCombine(d, e);
  return d;
}

// The from-scratch verdicts of a trace's decide events, each an unbudgeted
// DecideWidthK on the version it was asked about (memoized per version).
std::string ScratchVerdicts(const WorkloadTrace& trace, size_t decides,
                            long* oracle_calls) {
  std::string out;
  std::unordered_map<uint64_t, char> memo;
  Hypergraph current = trace.base;
  for (const TraceEvent& ev : trace.events) {
    if (out.size() >= decides) break;
    if (ev.kind == TraceEvent::Kind::kDelta) {
      EdgeDelta delta;
      GHD_CHECK(ResolveDelta(current, ev, &delta).ok());
      current = ApplyEdgeDelta(current, delta).next;
      continue;
    }
    const int k = ev.k > 0 ? ev.k : trace.default_k;
    const uint64_t key = HashCombine(VersionDigest(current), k);
    auto it = memo.find(key);
    if (it == memo.end()) {
      ++*oracle_calls;
      const KDeciderResult r =
          DecideWidthK(current, OriginalEdgesFamily(current), k);
      it = memo.emplace(key, r.decided ? (r.exists ? 'y' : 'n') : 'u').first;
    }
    out.push_back(it->second);
  }
  return out;
}

const char* CauseOf(const IncrementalStats& before,
                    const IncrementalStats& after) {
  if (after.fingerprint_served > before.fingerprint_served) {
    return "fingerprint";
  }
  if (after.incremental_solves > before.incremental_solves) return "warm";
  if (after.cache_served > before.cache_served) return "cache";
  return "bootstrap";
}

}  // namespace

RunOutput RunReplayEvolve(const RunConfig& config) {
  Common c;
  const std::vector<ReplayTarget> targets =
      c.setup.First([&] { return ReplaySetup(config.seed); }, &c.cpu);
  {
    uint64_t d = 0;
    for (const ReplayTarget& t : targets) {
      d = HashCombine(d, std::hash<std::string>{}(WriteTrace(t.trace)));
    }
    c.stream_digest = d;
  }
  Window window(config.seconds);
  Tally traced;
  Samples apply_delta_ms;
  double span_ms = 0, request_ms = 0;  // traced events
  IncrementalStats totals;
  long traced_deltas = 0, traced_decides = 0;
  obs::CounterSnapshot counters{};
  OverheadPairs overhead;
  // Ask positions: target t's events start at offset[t].
  std::vector<size_t> offset(targets.size(), 0);
  for (size_t t = 1; t < targets.size(); ++t) {
    offset[t] = offset[t - 1] + targets[t - 1].trace.events.size();
  }
  // Verdicts of each pass, per target, for the scratch comparison.
  std::vector<std::vector<std::string>> pass_verdicts(targets.size());
  window.Start();
  for (long pass = 0; !window.Expired(); ++pass) {
    const bool traced_pass = config.trace && pass % 2 == 1;
    obs::EnableCounters(traced_pass);
    std::string all_verdicts;
    uint64_t ticks = 0;
    long decided = 0;
    bool complete = true;
    for (size_t t = 0; t < targets.size() && complete; ++t) {
      const WorkloadTrace& trace = targets[t].trace;
      window.Pause();
      DecompCache cache;
      IncrementalOptions opts;
      opts.cache = &cache;
      IncrementalSolver solver(trace.base, opts);
      std::string verdicts;
      window.Resume();
      for (size_t e = 0; e < trace.events.size(); ++e) {
        if (window.Expired()) {
          complete = false;
          break;
        }
        const TraceEvent& ev = trace.events[e];
        const bool is_delta = ev.kind == TraceEvent::Kind::kDelta;
        Ask ask;
        AskResult r;
        std::string cause;
        EdgeDelta delta;
        window.Pause();
        // Traced-only work stays outside the event's interval: the copy of
        // the version a delta starts from, and the counter snapshots.
        c.cpu.MaybeMove(window);
        std::optional<Hypergraph> prev;
        if (traced_pass && is_delta) prev.emplace(solver.current());
        const obs::CounterSnapshot before =
            traced_pass ? obs::SnapshotCounters() : obs::CounterSnapshot{};
        window.Resume();
        const double ev0 = NowMs();
        double resolve_ms = 0;
        if (is_delta) {
          GHD_CHECK(ResolveDelta(solver.current(), ev, &delta).ok());
          resolve_ms = NowMs() - ev0;
          const double t0 = NowMs();
          solver.Apply(delta);
          r.ms = NowMs() - t0;
          r.verdict = 'd';
        } else {
          ask.k = ev.k > 0 ? ev.k : trace.default_k;
          const IncrementalStats stats_before = solver.stats();
          const double t0 = NowMs();
          const IncrementalDecideResult d = solver.DecideHw(ask.k);
          r.ms = NowMs() - t0;
          r.verdict = d.decided ? (d.exists ? 'y' : 'n') : 'u';
          r.ticks = d.outcome.ticks;
          cause = CauseOf(stats_before, solver.stats());
        }
        const double event_ms = NowMs() - ev0;
        window.Pause();
        if (is_delta) {
          c.RecordDelta(offset[t] + e, r.ms);
        } else {
          c.Record(offset[t] + e, ask, r, cause);
          verdicts.push_back(r.verdict);
          if (r.verdict != 'u') ++decided;
        }
        if (traced_pass) {
          const obs::CounterSnapshot after = obs::SnapshotCounters();
          for (int i = 0; i < obs::kNumCounters; ++i) {
            counters.counters[i] += after.counters[i] - before.counters[i];
          }
          span_ms += resolve_ms + r.ms;
          request_ms += event_ms;
          if (is_delta) {
            traced.delta_ms.Add(r.ms);
            ++traced_deltas;
            // The hypergraph layer's share of Apply: building the next
            // version (and its flat view) through ApplyEdgeDelta itself.
            const double t0 = NowMs();
            const EdgeDeltaResult next = ApplyEdgeDelta(*prev, delta);
            apply_delta_ms.Add(NowMs() - t0);
          } else {
            traced.Add(ask, r, cause);
            ++traced_decides;
          }
        }
        overhead.Note(offset[t] + e, traced_pass, r.ms);
        ticks += static_cast<uint64_t>(r.ticks);
        window.Resume();
      }
      window.Pause();
      if (traced_pass) {
        const IncrementalStats& s = solver.stats();
        totals.memo_retained += s.memo_retained;
        totals.memo_invalidated += s.memo_invalidated;
        totals.neg_retained += s.neg_retained;
        totals.neg_invalidated += s.neg_invalidated;
        totals.sep_retained += s.sep_retained;
        totals.sep_invalidated += s.sep_invalidated;
        totals.ladder_drops += s.ladder_drops;
      }
      all_verdicts += verdicts;
      if (complete) all_verdicts += "|";
      pass_verdicts[t].push_back(std::move(verdicts));
      window.Resume();
    }
    window.Pause();
    c.det.AddPass(all_verdicts, ticks, decided, complete);
    c.EndPass(window, complete);
    window.Resume();
  }
  window.Pause();
  c.CloseWindow(window);
  obs::EnableCounters(false);

  // Oracle: every replay verdict equals the from-scratch verdict on the same
  // version, and no unbudgeted decide comes back undecided.
  const double check0 = NowMs();
  for (size_t t = 0; t < targets.size(); ++t) {
    size_t longest = 0;
    for (const std::string& v : pass_verdicts[t]) {
      longest = std::max(longest, v.size());
    }
    const std::string scratch =
        ScratchVerdicts(targets[t].trace, longest, &c.oracle_calls);
    // The ask position of each decide event.
    std::vector<long> decide_pos;
    const std::vector<TraceEvent>& events = targets[t].trace.events;
    for (size_t e = 0; e < events.size(); ++e) {
      if (events[e].kind != TraceEvent::Kind::kDelta) {
        decide_pos.push_back(static_cast<long>(offset[t] + e));
      }
    }
    for (const std::string& v : pass_verdicts[t]) {
      for (size_t i = 0; i < v.size(); ++i) {
        if (v[i] == 'u') {
          c.errors.Add("undecided_unbudgeted", targets[t].name, false,
                       decide_pos[i]);
        } else if (v[i] != scratch[i]) {
          c.errors.Add("replay_mismatch",
                       targets[t].name + " decide #" + std::to_string(i),
                       false, decide_pos[i]);
        }
      }
    }
  }
  c.check_s = (NowMs() - check0) / 1000.0;

  Sheet sheet = EmptyLayerSheet();
  if (config.trace) {
    const auto frac = [](long a, long b) {
      return a + b > 0 ? static_cast<double>(a) / (a + b) : 0.0;
    };
    const auto c_of = [&](Counter k) {
      return static_cast<double>(counters.counter(k));
    };
    const double events = static_cast<double>(traced.ask_ms.n());
    sheet.Set("hypergraph.apply_delta_ms_p50", apply_delta_ms.Pct(0.5), "ms");
    sheet.Set("hypergraph.flat_build_ms",
              events > 0 ? c_of(Counter::kFlatBuildNs) / 1e6 / events : 0.0,
              "ms/ask");
    sheet.Set("hypergraph.kernel_batches",
              events > 0 ? c_of(Counter::kKernelBatches) / events : 0.0,
              "count/ask");
    sheet.Set("hypergraph.kernel_scalar_fallbacks",
              events > 0 ? c_of(Counter::kKernelScalarFallbacks) / events : 0.0,
              "count/ask");
    sheet.Set("incremental.apply_ms_p50", traced.delta_ms.Pct(0.5), "ms");
    sheet.Set("incremental.apply_ms_p99", traced.delta_ms.Pct(0.99), "ms");
    for (const char* cause : {"fingerprint", "warm", "cache", "bootstrap"}) {
      const auto it = traced.cause_ms.find(cause);
      const Samples none;
      const Samples& s = it == traced.cause_ms.end() ? none : it->second;
      sheet.Set(std::string("incremental.served_frac.") + cause,
                traced_decides > 0
                    ? static_cast<double>(s.n()) / traced_decides
                    : 0.0,
                "fraction");
      sheet.Set(std::string("incremental.decide_ms_p50.") + cause, s.Pct(0.5),
                "ms");
      sheet.Set(std::string("incremental.decide_ms_p99.") + cause,
                s.Pct(0.99), "ms");
    }
    sheet.Set("incremental.memo_retention",
              frac(totals.memo_retained, totals.memo_invalidated), "fraction");
    sheet.Set("incremental.neg_retention",
              frac(totals.neg_retained, totals.neg_invalidated), "fraction");
    sheet.Set("incremental.sep_retention",
              frac(totals.sep_retained, totals.sep_invalidated), "fraction");
    sheet.Set("incremental.ladder_drops",
              traced_deltas > 0
                  ? static_cast<double>(totals.ladder_drops) / traced_deltas
                  : 0.0,
              "count/delta");
    sheet.Set("k_decider.states_per_ask",
              traced_decides > 0
                  ? c_of(Counter::kDeciderStates) / traced_decides
                  : 0.0,
              "count/ask");
    sheet.Set("k_decider.memo_hit_frac",
              frac(counters.counter(Counter::kDeciderMemoHits),
                   counters.counter(Counter::kDeciderMemoMisses)),
              "fraction");
    sheet.Set("k_decider.sep_neg_hits",
              traced_decides > 0
                  ? c_of(Counter::kSeparatorNegHits) / traced_decides
                  : 0.0,
              "count/ask");
    sheet.Set("k_decider.memo_poisoned", c_of(Counter::kDeciderMemoPoisoned),
              "count");
    sheet.Set("cache.hit_frac",
              traced_decides > 0 ? c_of(Counter::kIncrCacheServed) /
                                       traced_decides
                                 : 0.0,
              "fraction");
    sheet.Set("hypergraph.canon_nodes",
              c_of(Counter::kCanonNodes) /
                  std::max(1.0, c_of(Counter::kCacheHits) +
                                    c_of(Counter::kCacheMisses)),
              "count/ask");
    sheet.Set("governor.ticks_per_ask",
              events > 0 ? c_of(Counter::kGovernorTicks) / events : 0.0,
              "count/ask");
    sheet.Set("governor.stops",
              events > 0 ? c_of(Counter::kGovernorStops) / events : 0.0,
              "count/ask");
    // Spans: ResolveDelta plus the Apply / DecideHw call; request: the
    // whole event.
    sheet.Set("trace.coverage", request_ms > 0 ? span_ms / request_ms : 0.0,
              "fraction");
    FinishTraced(overhead, counters, &sheet, &c.errors);
  }
  return Finish(config, &c, std::move(sheet));
}

}  // namespace perfbench
