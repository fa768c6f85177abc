// The traced request pipeline: the stages CachedDecideHw and
// CachedAnytimeGhw compose, each run through its own public function and
// timed by a span in this file, plus the per-layer metrics built from them.
#include <climits>
#include <memory>
#include <string>
#include <utility>

#include "bench.h"
#include "hypergraph/canonical.h"
#include "hypergraph/reduce.h"

namespace perfbench {

using namespace ghd;
using obs::Counter;

namespace {

// Runs fn, adds its duration (scaled: 1 = ms, 1000 = us) to `s` and to the
// stage total, and returns fn's result.
template <typename Fn>
auto Span(LayerStats* L, Samples* s, double scale, Fn&& fn) {
  const double t0 = NowMs();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    const double ms = NowMs() - t0;
    s->Add(ms * scale);
    L->stage_ms_sum += ms;
  } else {
    auto r = fn();
    const double ms = NowMs() - t0;
    s->Add(ms * scale);
    L->stage_ms_sum += ms;
    return r;
  }
}

AskResult StagedDecide(PreparedInstance& p, int k, DecompCache* cache,
                       LayerStats* L) {
  AskResult out;
  CacheEntry entry;
  const bool hit = Span(L, &L->lookup_us, 1000.0,
                        [&] { return cache->Lookup(p.key(), &entry); });
  if (hit) {
    if (entry.hw_ub >= 0 && entry.hw_ub <= k) {
      GeneralizedHypertreeDecomposition d;
      const bool ok = Span(L, &L->rehydrate_ms, 1.0, [&] {
        return RehydrateWitness(p, entry.hw_witness, &d);
      });
      if (ok) {
        out.verdict = 'y';
        out.from_cache = true;
        return out;
      }
      ++L->rehydrate_reject;
    }
    if (entry.hw_lb > k) {
      out.verdict = 'n';
      out.from_cache = true;
      return out;
    }
  }
  const Hypergraph canon_h =
      Span(L, &L->relabel_ms, 1.0, [&] { return CanonicalInstance(p); });
  GuardFamily family;
  std::unique_ptr<KLadderContext> ladder;
  Span(L, &L->ladder_setup_ms, 1.0, [&] {
    family = OriginalEdgesFamily(canon_h);
    ladder = std::make_unique<KLadderContext>(canon_h, family, 1);
  });
  CacheEntry learned;
  learned.hw_lb = canon_h.num_edges() > 0 ? 1 : 0;
  const int start_k = entry.hw_lb > 1 ? entry.hw_lb : 1;
  ++L->decide_solves;
  double self_ms = 0;
  for (int kk = start_k; kk <= k; ++kk) {
    const KDeciderResult r = Span(L, &L->rung_ms, 1.0, [&] {
      return DecideWidthK(canon_h, family, kk, DecideOptions(), ladder.get());
    });
    self_ms += L->rung_ms.v.back();
    ++L->rungs;
    L->states += r.states_visited;
    out.ticks = r.outcome.ticks;
    if (!r.decided) {
      // A truncated rung certifies nothing: the honest verdict is undecided,
      // whatever the rungs below it refuted.
      ++L->truncated_rungs;
      out.verdict = 'u';
      break;
    }
    if (r.exists) {
      out.verdict = 'y';
      learned.hw_ub = kk;
      learned.hw_witness = FlattenDecomposition(r.decomposition);
      break;
    }
    out.verdict = 'n';
    learned.hw_lb = kk + 1;
  }
  L->k_decider_self_ms.Add(self_ms);
  L->rung_ms_sum += self_ms;
  if (learned.hw_lb > 1 || learned.hw_ub >= 0) {
    Span(L, &L->merge_us, 1000.0, [&] { cache->Merge(p.key(), learned); });
  }
  if (out.verdict == 'y') {
    GeneralizedHypertreeDecomposition d;
    Span(L, &L->rehydrate_ms, 1.0,
         [&] { return RehydrateWitness(p, learned.hw_witness, &d); });
  }
  return out;
}

AskResult StagedAnytime(PreparedInstance& p, DecompCache* cache,
                        LayerStats* L) {
  AskResult out;
  CacheEntry entry;
  const bool hit = Span(L, &L->lookup_us, 1000.0,
                        [&] { return cache->Lookup(p.key(), &entry); });
  if (hit && entry.ghw_ub >= 0 && entry.ghw_lb == entry.ghw_ub) {
    GeneralizedHypertreeDecomposition d;
    const bool ok = Span(L, &L->rehydrate_ms, 1.0, [&] {
      return RehydrateWitness(p, entry.ghw_witness, &d);
    });
    if (ok) {
      out.verdict = 'x';
      out.lb = entry.ghw_lb;
      out.ub = entry.ghw_ub;
      out.from_cache = true;
      return out;
    }
    ++L->rehydrate_reject;
  }
  const Hypergraph canon_h =
      Span(L, &L->relabel_ms, 1.0, [&] { return CanonicalInstance(p); });
  Samples anytime_ms;
  const AnytimeGhwResult r = Span(L, &anytime_ms, 1.0, [&] {
    return AnytimeGhw(canon_h, AnytimeOpts());
  });
  ++L->anytime_solves;
  L->anytime_ms_sum += anytime_ms.Sum();
  L->anytime_ticks += r.outcome.ticks;
  int prev_lb = 0, prev_ub = INT_MAX;
  for (const AnytimeStep& step : r.trail) {
    L->engine_ms[step.engine].Add(step.rung_seconds * 1000.0);
    ++L->engine_runs[step.engine];
    if (step.lower_bound > prev_lb || step.upper_bound < prev_ub) {
      ++L->engine_tightened[step.engine];
    }
    prev_lb = step.lower_bound;
    prev_ub = step.upper_bound;
  }
  CacheEntry learned;
  learned.ghw_lb = r.lower_bound;
  if (r.upper_bound > 0 && !r.witness.bags.empty()) {
    learned.ghw_ub = r.upper_bound;
  }
  Span(L, &L->merge_us, 1000.0, [&] {
    if (learned.ghw_ub >= 0) {
      learned.ghw_witness = FlattenDecomposition(r.witness);
    }
    cache->Merge(p.key(), learned);
  });
  if (learned.ghw_ub >= 0) {
    GeneralizedHypertreeDecomposition d;
    Span(L, &L->rehydrate_ms, 1.0,
         [&] { return RehydrateWitness(p, learned.ghw_witness, &d); });
  }
  out.verdict = r.exact ? 'x' : 'i';
  out.lb = r.lower_bound;
  out.ub = r.upper_bound;
  out.ticks = r.outcome.ticks;
  return out;
}

}  // namespace

AskResult StagedAsk(const Item& item, const Ask& ask, DecompCache* cache,
                    LayerStats* L) {
  PreparedInstance p;
  p.original = item.h;  // the client's own copy, made before the request
  const double t0 = NowMs();
  p.reduction = Span(L, &L->reduce_ms, 1.0,
                     [&] { return RemoveSubsumedEdgesMapped(p.original); });
  p.canon = Span(L, &L->canon_ms, 1.0,
                 [&] { return Canonicalize(p.reduction.reduced); });
  ++L->canon_calls;
  L->canon_nodes += p.canon.nodes_explored;
  if (!p.canon.canonical) ++L->canon_fallbacks;
  AskResult out = ask.kind == AskKind::kDecide
                      ? StagedDecide(p, ask.k, cache, L)
                      : StagedAnytime(p, cache, L);
  out.ms = NowMs() - t0;
  L->request_ms.Add(out.ms);
  return out;
}

void CompareStaged(const AskResult& staged, const AskResult& composed,
                   long pos, LayerStats* L, ErrorLog* errors) {
  ++L->asks;
  if (composed.from_cache) ++L->served_from_cache;
  if (staged.verdict == composed.verdict && staged.lb == composed.lb &&
      staged.ub == composed.ub) {
    return;
  }
  if (staged.verdict == 'u' && composed.verdict == 'n') {
    ++L->defect_pattern;
    return;
  }
  ++L->stage_mismatch;
  errors->Add("stage_mismatch",
              std::string("staged ") + staged.verdict + " composed " +
                  composed.verdict,
              false, pos);
}

void LayerStats::AddCounters(const obs::CounterSnapshot& before,
                             const obs::CounterSnapshot& after) {
  for (int i = 0; i < obs::kNumCounters; ++i) {
    counters.counters[i] += after.counters[i] - before.counters[i];
  }
}

const std::vector<std::pair<std::string, std::string>>& PerLayerCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> kCatalogue = {
      {"hypergraph.reduce_ms_p50", "ms"},
      {"hypergraph.canon_ms_p50", "ms"},
      {"hypergraph.canon_ms_p99", "ms"},
      {"hypergraph.canon_share", "fraction"},
      {"hypergraph.canon_nodes", "count/ask"},
      {"hypergraph.canon_fallback_frac", "fraction"},
      {"hypergraph.flat_build_ms", "ms/ask"},
      {"hypergraph.kernel_batches", "count/ask"},
      {"hypergraph.kernel_scalar_fallbacks", "count/ask"},
      {"hypergraph.apply_delta_ms_p50", "ms"},
      {"cache.lookup_us_p50", "us"},
      {"cache.hit_frac", "fraction"},
      {"cache.rehydrate_ms_p50", "ms"},
      {"cache.rehydrate_reject", "count/ask"},
      {"cache.merge_us_p50", "us"},
      {"cache.bytes", "bytes"},
      {"cache.evictions", "count/ask"},
      {"cache.decide_ms_p50.exact", "ms"},
      {"cache.decide_ms_p99.exact", "ms"},
      {"cache.decide_ms_p50.relabeled", "ms"},
      {"cache.decide_ms_p99.relabeled", "ms"},
      {"cache.decide_ms_p50.miss", "ms"},
      {"cache.decide_ms_p99.miss", "ms"},
      {"k_decider.self_ms_p50", "ms"},
      {"k_decider.self_ms_p99", "ms"},
      {"k_decider.states_per_ask", "count/ask"},
      {"k_decider.ns_per_state", "ns"},
      {"k_decider.rungs_per_ask", "count/ask"},
      {"k_decider.memo_hit_frac", "fraction"},
      {"k_decider.sep_neg_hits", "count/ask"},
      {"k_decider.truncated_rungs", "count/ask"},
      {"k_decider.truncated_no", "count"},
      {"k_decider.memo_poisoned", "count"},
      {"anytime.ask_ms_p50", "ms"},
      {"anytime.ask_ms_p99", "ms"},
      {"anytime.exact_frac", "fraction"},
      {"anytime.gap_mean", "width"},
      {"anytime.rung_ms.lower-bound", "ms"},
      {"anytime.rung_ms.greedy-cover", "ms"},
      {"anytime.rung_ms.multi-restart", "ms"},
      {"anytime.rung_ms.subset-dp", "ms"},
      {"anytime.rung_ms.exact-bnb", "ms"},
      {"anytime.rung_ms.det-k-decomp", "ms"},
      {"anytime.rung_tightened_frac.lower-bound", "fraction"},
      {"anytime.rung_tightened_frac.greedy-cover", "fraction"},
      {"anytime.rung_tightened_frac.multi-restart", "fraction"},
      {"anytime.rung_tightened_frac.subset-dp", "fraction"},
      {"anytime.rung_tightened_frac.exact-bnb", "fraction"},
      {"anytime.rung_tightened_frac.det-k-decomp", "fraction"},
      {"anytime.bnb_nodes", "count/ask"},
      {"anytime.ns_per_tick", "ns"},
      {"incremental.apply_ms_p50", "ms"},
      {"incremental.apply_ms_p99", "ms"},
      {"incremental.served_frac.fingerprint", "fraction"},
      {"incremental.served_frac.warm", "fraction"},
      {"incremental.served_frac.cache", "fraction"},
      {"incremental.served_frac.bootstrap", "fraction"},
      {"incremental.decide_ms_p50.fingerprint", "ms"},
      {"incremental.decide_ms_p99.fingerprint", "ms"},
      {"incremental.decide_ms_p50.warm", "ms"},
      {"incremental.decide_ms_p99.warm", "ms"},
      {"incremental.decide_ms_p50.cache", "ms"},
      {"incremental.decide_ms_p99.cache", "ms"},
      {"incremental.decide_ms_p50.bootstrap", "ms"},
      {"incremental.decide_ms_p99.bootstrap", "ms"},
      {"incremental.memo_retention", "fraction"},
      {"incremental.neg_retention", "fraction"},
      {"incremental.sep_retention", "fraction"},
      {"incremental.ladder_drops", "count/delta"},
      {"governor.ticks_per_ask", "count/ask"},
      {"governor.stops", "count/ask"},
      {"trace.coverage", "fraction"},
      {"obs.trace_overhead_frac", "fraction"},
  };
  return kCatalogue;
}

void AddLayerMetrics(const LayerStats& L, Sheet* sheet) {
  const auto per = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto c = [&](Counter k) {
    return static_cast<double>(L.counters.counter(k));
  };
  const double asks = static_cast<double>(L.asks);
  sheet->Set("hypergraph.reduce_ms_p50", L.reduce_ms.Pct(0.5), "ms");
  sheet->Set("hypergraph.canon_ms_p50", L.canon_ms.Pct(0.5), "ms");
  sheet->Set("hypergraph.canon_ms_p99", L.canon_ms.Pct(0.99), "ms");
  sheet->Set("hypergraph.canon_share",
             per(L.canon_ms.Sum(), L.request_ms.Sum()), "fraction");
  sheet->Set("hypergraph.canon_nodes", per(L.canon_nodes, L.canon_calls),
             "count/ask");
  sheet->Set("hypergraph.canon_fallback_frac",
             per(L.canon_fallbacks, L.canon_calls), "fraction");
  sheet->Set("hypergraph.flat_build_ms",
             per(c(Counter::kFlatBuildNs) / 1e6, asks), "ms/ask");
  sheet->Set("hypergraph.kernel_batches", per(c(Counter::kKernelBatches), asks),
             "count/ask");
  sheet->Set("hypergraph.kernel_scalar_fallbacks",
             per(c(Counter::kKernelScalarFallbacks), asks), "count/ask");
  sheet->Set("cache.lookup_us_p50", L.lookup_us.Pct(0.5), "us");
  sheet->Set("cache.hit_frac", per(L.served_from_cache, asks), "fraction");
  sheet->Set("cache.rehydrate_ms_p50", L.rehydrate_ms.Pct(0.5), "ms");
  sheet->Set("cache.rehydrate_reject", per(L.rehydrate_reject, asks),
             "count/ask");
  sheet->Set("cache.merge_us_p50", L.merge_us.Pct(0.5), "us");
  sheet->Set("cache.evictions", per(c(Counter::kCacheEvictions), asks),
             "count/ask");
  sheet->Set("k_decider.self_ms_p50", L.k_decider_self_ms.Pct(0.5), "ms");
  sheet->Set("k_decider.self_ms_p99", L.k_decider_self_ms.Pct(0.99), "ms");
  sheet->Set("k_decider.states_per_ask",
             per(static_cast<double>(L.states), L.decide_solves), "count/ask");
  sheet->Set("k_decider.ns_per_state",
             per(L.rung_ms_sum * 1e6, static_cast<double>(L.states)), "ns");
  sheet->Set("k_decider.rungs_per_ask", per(L.rungs, L.decide_solves),
             "count/ask");
  sheet->Set("k_decider.memo_hit_frac",
             per(c(Counter::kDeciderMemoHits),
                 c(Counter::kDeciderMemoHits) + c(Counter::kDeciderMemoMisses)),
             "fraction");
  sheet->Set("k_decider.sep_neg_hits", per(c(Counter::kSeparatorNegHits), asks),
             "count/ask");
  sheet->Set("k_decider.truncated_rungs",
             per(L.truncated_rungs, L.decide_solves), "count/ask");
  sheet->Set("k_decider.truncated_no", static_cast<double>(L.defect_pattern),
             "count");
  sheet->Set("k_decider.memo_poisoned", c(Counter::kDeciderMemoPoisoned),
             "count");
  for (const char* engine : {"lower-bound", "greedy-cover", "multi-restart",
                             "subset-dp", "exact-bnb", "det-k-decomp"}) {
    const auto ms = L.engine_ms.find(engine);
    const auto runs = L.engine_runs.find(engine);
    const auto tight = L.engine_tightened.find(engine);
    const double n = runs == L.engine_runs.end() ? 0 : runs->second;
    sheet->Set(std::string("anytime.rung_ms.") + engine,
               ms == L.engine_ms.end() ? 0.0 : ms->second.Mean(), "ms");
    sheet->Set(std::string("anytime.rung_tightened_frac.") + engine,
               per(tight == L.engine_tightened.end() ? 0 : tight->second, n),
               "fraction");
  }
  sheet->Set("anytime.bnb_nodes", per(c(Counter::kBnbNodes), L.anytime_solves),
             "count/ask");
  sheet->Set("anytime.ns_per_tick",
             per(L.anytime_ms_sum * 1e6, static_cast<double>(L.anytime_ticks)),
             "ns");
  sheet->Set("governor.ticks_per_ask", per(c(Counter::kGovernorTicks), asks),
             "count/ask");
  sheet->Set("governor.stops", per(c(Counter::kGovernorStops), asks),
             "count/ask");
  sheet->Set("trace.coverage", per(L.stage_ms_sum, L.request_ms.Sum()),
             "fraction");
}

}  // namespace perfbench
