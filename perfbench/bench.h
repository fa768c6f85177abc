// Shared pieces of the perfbench program: the ask model, the window clock,
// sample sets, the metric sheet, the error ledger, the verdict oracle, the
// instance mixes and the staged (traced) request pipeline.
//
// Every workload is a closed loop with one client: the next ask is sent when
// the previous one has returned. Inputs come from the --seed argument only,
// and every per-request limit is a deterministic state or tick budget, so the
// verdict stream and the decided share are exact functions of the seed.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cache/cached_solver.h"
#include "cache/decomp_cache.h"
#include "core/anytime.h"
#include "core/k_decider.h"
#include "hypergraph/hypergraph.h"
#include "obs/counters.h"

namespace perfbench {

using ghd::Hypergraph;

// Per-request limits. The state budget is the one under which the k-ladder
// defect of CachedDecideHw shows (a rung that truncates after lower rungs
// refuted is reported as a definite "no"); it is kept so the benchmark keeps
// counting that failure until the library fixes it.
inline constexpr long kStateBudget = 200000;
inline constexpr long kAnytimeTicks = 1500;
// Node budget of the exact search that gives the anytime reference ghw;
// intervals of classes it cannot finish count as unchecked.
inline constexpr long kReferenceNodes = 4000;

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall clock of the measured window. Checks and bookkeeping run with the
/// clock paused, so --seconds buys the same amount of served work whatever
/// the checks cost.
class Window {
 public:
  explicit Window(double seconds) : limit_ms_(seconds * 1000.0) {}
  void Start() { started_ = NowMs(); }
  void Pause() {
    paused_at_ = NowMs();
    paused_ = true;
  }
  void Resume() {
    excluded_ms_ += NowMs() - paused_at_;
    paused_ = false;
  }
  double ElapsedMs() const {
    return (paused_ ? paused_at_ : NowMs()) - started_ - excluded_ms_;
  }
  bool Expired() const { return ElapsedMs() >= limit_ms_; }
  double limit_ms() const { return limit_ms_; }

 private:
  double limit_ms_;
  double started_ = 0;
  double paused_at_ = 0;
  bool paused_ = false;
  double excluded_ms_ = 0;
};

/// A set of latency (or other) samples.
struct Samples {
  std::vector<double> v;
  void Add(double x) { v.push_back(x); }
  size_t n() const { return v.size(); }
  double Sum() const;
  double Mean() const;
  /// Nearest-rank percentile, q in [0, 1]; 0 when empty.
  double Pct(double q) const;
  /// The highest percentile with at least ten samples above it (the
  /// nearest-rank percentile q = (n - 10) / n), as {q, value}; {0, 0} when
  /// there are at most ten samples.
  std::pair<double, double> Tail() const;
};

/// One metric sheet: name -> (value, unit), in insertion order.
class Sheet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": u}, ...}
  std::string MetricsJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// Every check failure, by kind. `known` failures carry the signature of
/// the recorded CachedDecideHw ladder defect; anything else is unexplained
/// and makes the run incorrect. `pos` is the ask position (within a pass)
/// the failure belongs to, or -1 for a failure of the run as a whole.
class ErrorLog {
 public:
  void Add(const std::string& kind, const std::string& detail, bool known,
           long pos = -1);
  /// Failed operations: the ask positions with at least one failure in
  /// any pass, plus the failures of the run as a whole. Every pass repeats
  /// the same asks, so this does not grow with the number of passes.
  long failed() const {
    return static_cast<long>(failed_positions_.size()) + unplaced_;
  }
  long unexplained() const { return unexplained_; }
  std::string Json() const;

 private:
  std::map<std::string, long> by_kind_;
  std::vector<std::string> first_details_;
  std::set<long> failed_positions_;
  long total_ = 0;
  long unplaced_ = 0;
  long unexplained_ = 0;
};

// ---------------------------------------------------------------------------
// Instances and asks.
// ---------------------------------------------------------------------------

/// One concrete instance as a client sends it.
struct Item {
  std::string family;
  Hypergraph h{{}, {}, {}};
  /// Isomorphism class (oracle memo key; repeat_mix pool index).
  int class_id = 0;
  /// Whether anytime asks are sent for it (the anytime heuristics cost
  /// seconds on the 256-vertex cycles).
  bool anytime_ok = true;
  /// The class member in its generating labeling when this item is a
  /// relabeling of it. The ghw reference runs there: the exact search's
  /// effort depends on the labeling, ghw does not.
  std::shared_ptr<const Hypergraph> origin;
};

enum class AskKind { kDecide, kAnytime };

/// How a repeat_mix ask reached the system (the per-cause rows).
enum class Arrival { kNovel, kExact, kRelabeled };
const char* ArrivalName(Arrival a);

struct Ask {
  AskKind kind = AskKind::kDecide;
  int item = 0;
  int k = 0;
  Arrival arrival = Arrival::kNovel;
};

/// A fresh isomorphic relabeling of h drawn from `seed`.
Hypergraph Relabel(const Hypergraph& h, uint64_t seed);

/// Fills the empty vectors with the stratified cold stream: a fixed head of
/// kColdFixedAsks asks — clique_8 at k = 4 (the ladder-defect repro), then
/// the budget-bound stratum — followed by `per_family` asks of each cold
/// family in seeded order; one ask per item, items pairwise non-isomorphic
/// (distinct canonical keys).
inline constexpr int kColdFixedAsks = 7;
void ColdStream(int per_family, uint64_t seed, std::vector<Item>* items,
                std::vector<Ask>* asks);

/// The repeat_mix pool, in Zipf rank order; fixed across seeds.
std::vector<Item> RepeatPool();

/// Digest of an ask stream: edge lists of every asked item plus kind and k.
uint64_t StreamDigest(const std::vector<Item>& items,
                      const std::vector<Ask>& asks);

// ---------------------------------------------------------------------------
// Serving one ask through the public cache-fronted entry points.
// ---------------------------------------------------------------------------

struct AskResult {
  char verdict = 'u';  // decide: y / n / u; anytime: x (exact) / i
  bool from_cache = false;
  int lb = 0;
  int ub = 0;
  long ticks = 0;
  double ms = 0;  // service time of the composed call
};

ghd::KDeciderOptions DecideOptions();
ghd::AnytimeOptions AnytimeOpts();

/// A composed answer plus the raw library result the checks need.
struct Served {
  AskResult r;
  ghd::CachedDecideResult decide;
  ghd::CachedAnytimeResult anytime;
};

/// PrepareInstance + CachedDecideHw / CachedAnytimeGhw on a copy of the
/// item made outside the timed region; `r.ms` times both.
Served ServeAsk(const Item& item, const Ask& ask, ghd::DecompCache* cache);

// ---------------------------------------------------------------------------
// The oracle: independent unbudgeted answers, computed outside the window.
// ---------------------------------------------------------------------------

class Checker {
 public:
  explicit Checker(ErrorLog* errors) : errors_(errors) {}
  /// Immediate checks on a served answer (witness validity on the concrete
  /// instance, interval shape) and registration of the deferred oracle
  /// checks. `pos` is the ask's position within its pass.
  void Check(const Item& item, const Ask& ask, const Served& served,
             long pos);
  /// Runs every deferred check: each "no" against an unbudgeted
  /// DecideWidthK on the concrete labeling, each anytime interval against
  /// the reference ghw where an exact search finishes within its budget.
  void Finish();
  long anytime_unchecked() const { return anytime_unchecked_; }
  long oracle_calls() const { return oracle_calls_; }

 private:
  void CheckDecide(const Item& item, int k, const ghd::CachedDecideResult& r,
                   long pos);
  void CheckAnytime(const Item& item, const ghd::CachedAnytimeResult& r,
                    long pos);

  struct PendingNo {
    const Item* item;
    int k;
    long pos;
  };
  struct PendingInterval {
    const Item* item;
    int lb;
    int ub;
    long pos;
  };
  ErrorLog* errors_;
  std::vector<PendingNo> nos_;
  std::vector<PendingInterval> intervals_;
  std::map<std::pair<int, int>, bool> hw_memo_;  // (class, k) -> hw <= k
  // (class, k) -> the wrong "no" carries the ladder-defect signature
  std::map<std::pair<int, int>, bool> defect_memo_;
  std::map<int, std::optional<int>> ghw_memo_;   // class -> ghw
  long anytime_unchecked_ = 0;
  long oracle_calls_ = 0;
};

// ---------------------------------------------------------------------------
// Traced run: spans around each stage's own public function.
// ---------------------------------------------------------------------------

/// Per-layer accumulators filled by traced asks.
struct LayerStats {
  Samples reduce_ms, canon_ms, lookup_us, rehydrate_ms, merge_us;
  Samples relabel_ms, ladder_setup_ms, rung_ms, request_ms;
  Samples k_decider_self_ms;  // per decide ask: sum of its rung spans
  double stage_ms_sum = 0;    // every stage span
  long canon_nodes = 0, canon_fallbacks = 0, canon_calls = 0;
  long rehydrate_reject = 0;
  long rungs = 0, truncated_rungs = 0, states = 0, decide_solves = 0;
  double rung_ms_sum = 0;
  // Anytime rungs by engine: time and how often the rung tightened the
  // interval.
  std::map<std::string, Samples> engine_ms;
  std::map<std::string, long> engine_runs, engine_tightened;
  long anytime_solves = 0;
  double anytime_ms_sum = 0;
  long anytime_ticks = 0;
  // Staged vs composed verdicts that differ (beyond the recorded defect).
  long stage_mismatch = 0;
  long defect_pattern = 0;  // staged 'u' where composed says 'n'
  long served_from_cache = 0;  // composed answers served by the cache
  // Counter deltas around the composed calls.
  ghd::obs::CounterSnapshot counters{};
  long asks = 0;
  void AddCounters(const ghd::obs::CounterSnapshot& before,
                   const ghd::obs::CounterSnapshot& after);
};

/// Runs the ask through the stages CachedDecideHw / CachedAnytimeGhw
/// compose — reduce, canonicalize, lookup, rehydrate, relabel, decide per
/// k-rung or anytime, merge — each timed through its own public function,
/// on `staged_cache`. Returns the staged verdict in AskResult form.
AskResult StagedAsk(const Item& item, const Ask& ask,
                    ghd::DecompCache* staged_cache, LayerStats* layers);

/// Compares a staged verdict with the composed one. The recorded defect
/// shows as staged 'u' (a rung truncated) against composed 'n'; it is
/// counted, not flagged. Anything else is a stage mismatch.
void CompareStaged(const AskResult& staged, const AskResult& composed,
                   long pos, LayerStats* layers, ErrorLog* errors);

/// Every per-layer metric, in report order, with its unit. A traced run
/// prints all of them; a layer a workload never reaches reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerCatalogue();

/// Adds the per-layer metrics common to the cache-fronted workloads.
void AddLayerMetrics(const LayerStats& layers, Sheet* sheet);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
