// Sample statistics, the metric sheet, the error ledger, serving one ask,
// and the verdict oracle.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "bench.h"
#include "core/ghw_exact.h"

namespace perfbench {

using namespace ghd;

double Samples::Sum() const {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Samples::Mean() const { return v.empty() ? 0.0 : Sum() / v.size(); }

double Samples::Pct(double q) const {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  size_t rank = static_cast<size_t>(std::ceil(q * s.size()));
  if (rank < 1) rank = 1;
  if (rank > s.size()) rank = s.size();
  return s[rank - 1];
}

std::pair<double, double> Samples::Tail() const {
  if (n() <= 10) return {0.0, 0.0};
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t rank = s.size() - 10;  // nearest rank with ten samples above
  return {static_cast<double>(rank) / s.size(), s[rank - 1]};
}

namespace {

std::string Num(double x) {
  if (!std::isfinite(x)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", x);
  return buf;
}

// True when the wrong "no" for (item, k) carries the ladder-defect
// signature: replaying CachedDecideHw's k-ladder on the canonical instance
// under the same options, some rung <= k truncates after the rungs below it
// refuted.
bool IsLadderTruncationNo(const Item& item, int k) {
  const PreparedInstance p = PrepareInstance(item.h);
  const Hypergraph canon_h = CanonicalInstance(p);
  const GuardFamily family = OriginalEdgesFamily(canon_h);
  KLadderContext ladder(canon_h, family, 1);
  bool refuted_below = false;
  for (int kk = 1; kk <= k; ++kk) {
    const KDeciderResult r =
        DecideWidthK(canon_h, family, kk, DecideOptions(), &ladder);
    if (!r.decided) return refuted_below;
    if (r.exists) return false;
    refuted_below = true;
  }
  return false;
}

}  // namespace

void Sheet::Set(const std::string& name, double value,
                const std::string& unit) {
  for (auto& [n, vu] : entries_) {
    if (n == name) {
      vu = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

std::string Sheet::MetricsJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + entries_[i].first + "\": {\"value\": " +
           Num(entries_[i].second.first) + ", \"unit\": \"" +
           entries_[i].second.second + "\"}";
  }
  return out + "}";
}

void ErrorLog::Add(const std::string& kind, const std::string& detail,
                   bool known, long pos) {
  ++by_kind_[kind];
  ++total_;
  if (pos >= 0) {
    failed_positions_.insert(pos);
  } else {
    ++unplaced_;
  }
  if (!known) ++unexplained_;
  if (first_details_.size() < 8) first_details_.push_back(kind + ": " + detail);
}

std::string ErrorLog::Json() const {
  std::string out = "{\"total\": " + std::to_string(total_) +
                    ", \"unexplained\": " + std::to_string(unexplained_) +
                    ", \"by_kind\": {";
  bool first = true;
  for (const auto& [k, n] : by_kind_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + k + "\": " + std::to_string(n);
  }
  out += "}, \"examples\": [";
  for (size_t i = 0; i < first_details_.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + first_details_[i] + "\"";
  }
  return out + "]}";
}

const char* ArrivalName(Arrival a) {
  switch (a) {
    case Arrival::kNovel:
      return "miss";
    case Arrival::kExact:
      return "exact";
    case Arrival::kRelabeled:
      return "relabeled";
  }
  return "?";
}

KDeciderOptions DecideOptions() {
  KDeciderOptions o;
  o.state_budget = kStateBudget;
  o.num_threads = 1;
  return o;
}

AnytimeOptions AnytimeOpts() {
  AnytimeOptions o;
  o.tick_budget = kAnytimeTicks;
  o.num_threads = 1;
  return o;
}

namespace {

// CachedDecideHw / CachedAnytimeGhw on a prepared instance; `r.ms` times
// that call alone.
Served ServePrepared(const PreparedInstance& p, const Ask& ask,
                     DecompCache* cache) {
  Served s;
  AskResult& out = s.r;
  if (ask.kind == AskKind::kDecide) {
    const double t0 = NowMs();
    s.decide = CachedDecideHw(p, ask.k, cache, DecideOptions());
    out.ms = NowMs() - t0;
    out.verdict = s.decide.decided ? (s.decide.exists ? 'y' : 'n') : 'u';
    out.from_cache = s.decide.from_cache;
    out.ticks = s.decide.outcome.ticks;
  } else {
    const double t0 = NowMs();
    s.anytime = CachedAnytimeGhw(p, AnytimeOpts(), cache);
    out.ms = NowMs() - t0;
    out.verdict = s.anytime.exact ? 'x' : 'i';
    out.from_cache = s.anytime.from_cache;
    out.lb = s.anytime.lower_bound;
    out.ub = s.anytime.upper_bound;
    out.ticks = s.anytime.outcome.ticks;
  }
  return s;
}

}  // namespace

Served ServeAsk(const Item& item, const Ask& ask, DecompCache* cache) {
  Hypergraph copy = item.h;  // the client's own instance, handed over
  const double t0 = NowMs();
  const PreparedInstance p = PrepareInstance(std::move(copy));
  const double prepare_ms = NowMs() - t0;
  Served s = ServePrepared(p, ask, cache);
  s.r.ms += prepare_ms;
  return s;
}

// ---------------------------------------------------------------------------
// Checker.
// ---------------------------------------------------------------------------

void Checker::Check(const Item& item, const Ask& ask, const Served& served,
                    long pos) {
  if (ask.kind == AskKind::kDecide) {
    CheckDecide(item, ask.k, served.decide, pos);
  } else {
    CheckAnytime(item, served.anytime, pos);
  }
}

void Checker::CheckDecide(const Item& item, int k, const CachedDecideResult& r,
                          long pos) {
  if (!r.decided) return;  // budgeted: undecided is an honest answer
  if (r.exists) {
    const Status s = r.decomposition.Validate(item.h);
    if (!s.ok() || r.decomposition.Width() > k) {
      errors_->Add("invalid_witness",
                   item.family + " k=" + std::to_string(k) + " " +
                       s.ToString(),
                   false, pos);
    }
    return;
  }
  nos_.push_back({&item, k, pos});
}

void Checker::CheckAnytime(const Item& item, const CachedAnytimeResult& r,
                           long pos) {
  const bool empty = item.h.num_edges() == 0;
  bool ok = r.lower_bound <= r.upper_bound && r.exact == (r.lower_bound ==
                                                            r.upper_bound);
  if (ok && !empty) {
    ok = r.witness.Validate(item.h).ok() &&
         r.witness.Width() <= r.upper_bound;
  }
  if (!ok) {
    errors_->Add("invalid_anytime_witness",
                 item.family + " [" + std::to_string(r.lower_bound) + "," +
                     std::to_string(r.upper_bound) + "]",
                 false, pos);
    return;
  }
  intervals_.push_back({&item, r.lower_bound, r.upper_bound, pos});
}

void Checker::Finish() {
  for (const PendingNo& no : nos_) {
    const auto key = std::make_pair(no.item->class_id, no.k);
    auto it = hw_memo_.find(key);
    if (it == hw_memo_.end()) {
      ++oracle_calls_;
      const KDeciderResult ref = DecideWidthK(
          no.item->h, OriginalEdgesFamily(no.item->h), no.k);
      GHD_CHECK(ref.decided);  // unbudgeted
      it = hw_memo_.emplace(key, ref.exists).first;
    }
    if (!it->second) continue;  // the "no" is right
    auto sig = defect_memo_.find(key);
    if (sig == defect_memo_.end()) {
      sig = defect_memo_.emplace(key, IsLadderTruncationNo(*no.item, no.k))
                .first;
    }
    const bool known = sig->second;
    errors_->Add(known ? "wrong_no.ladder_truncation" : "wrong_no",
                 no.item->family + " k=" + std::to_string(no.k), known,
                 no.pos);
  }
  nos_.clear();
  for (const PendingInterval& iv : intervals_) {
    auto it = ghw_memo_.find(iv.item->class_id);
    if (it == ghw_memo_.end()) {
      ++oracle_calls_;
      ExactGhwOptions eo;
      eo.node_budget = kReferenceNodes;
      const ExactGhwResult ref = ExactGhwComponentwise(
          iv.item->origin ? *iv.item->origin : iv.item->h, eo);
      std::optional<int> ghw;
      if (ref.exact) ghw = ref.upper_bound;
      it = ghw_memo_.emplace(iv.item->class_id, ghw).first;
    }
    if (!it->second.has_value()) {
      ++anytime_unchecked_;
      continue;
    }
    const int ghw = *it->second;
    if (iv.lb > ghw || iv.ub < ghw) {
      errors_->Add("interval_miss",
                   iv.item->family + " [" + std::to_string(iv.lb) + "," +
                       std::to_string(iv.ub) + "] ghw=" +
                       std::to_string(ghw),
                   false, iv.pos);
    }
  }
  intervals_.clear();
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kb = 0;
      ss >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
