// Suite harness — the width-k decider on the standard families.
//
// Runs the sequential width-k decider (hypertree width via det-k-decomp
// normal form) on every StandardSuite instance and reports per-instance
// wall-clock and states explored. Also measures the fan-out: the whole suite
// spread across threads, one instance per index, checking that every
// instance's width matches its sequential row.
//
// Results land in BENCH_suite.json (see suite.h); pass --full for the larger
// sizes and --threads N to set the fan-out thread count (default: hardware).
#include <algorithm>
#include <iostream>
#include <sstream>
#include <vector>

#include "htd/det_k_decomp.h"
#include "obs/obs.h"
#include "suite.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace ghd;
  const bool full = bench::WantFull(argc, argv);
  const bool force = bench::WantForce(argc, argv);
#if GHD_OBS_ENABLED
  ghd::obs::EnableCounters(true);
  ghd::obs::EnableAttribution(true);  // feeds the v6 "attr_top" extra
#endif
  const int max_threads =
      EffectiveThreads(bench::ThreadsArg(argc, argv, /*fallback=*/0));

  // States cap per decision so the table stays interactive; undecided runs
  // are reported as such.
  const long budget = full ? 5000000 : 500000;
  // Schema v6: each instance is run `repeats` times and the record carries
  // the p50/p99 of the walls, so one scheduler hiccup can't masquerade as a
  // regression in the tracked trajectory.
  const int repeats = full ? 5 : 3;

  std::cout << "suite: width-k decider on the standard families\n"
            << "       (fan-out widths must match the sequential rows)\n\n";

  std::vector<bench::NamedInstance> suite = bench::StandardSuite(full);
  std::vector<bench::BenchRecord> records;
  Table table({"instance", "n", "m", "hw", "ms", "states"});
  std::vector<int> widths;  // per instance; -1 = budget-undecided

  for (const auto& [name, h] : suite) {
    KDeciderOptions options;
    options.state_budget = budget;
    std::vector<double> walls;
    walls.reserve(repeats);
    HypertreeWidthResult r;
    for (int rep = 0; rep < repeats; ++rep) {
      // Reset per repeat: the record's counters/attribution describe one
      // run, not `repeats` of them.
#if GHD_OBS_ENABLED
      ghd::obs::ResetCounters();
      ghd::obs::ResetAttribution();
#endif
      WallTimer t;
      r = HypertreeWidth(h, 0, options);
      walls.push_back(t.ElapsedMillis());
    }
    const double ms = bench::Percentile(walls, 0.5);
    const double p99 = bench::Percentile(walls, 0.99);
    const int width = r.exact ? r.width : -1;  // -1 = budget-undecided
    widths.push_back(width);
    table.AddRow({name, Table::Cell(h.num_vertices()),
                  Table::Cell(h.num_edges()),
                  r.exact ? Table::Cell(r.width) : "-",
                  Table::Cell(ms, 2),
                  Table::Cell(static_cast<int>(r.states_visited))});
    bench::BenchRecord record;
    record.instance = name;
    record.wall_ms = ms;
    record.states = r.states_visited;
    record.threads = 1;
    record.extra.emplace_back("width", std::to_string(width));
    record.extra.emplace_back("decided", r.exact ? "true" : "false");
    {
      std::ostringstream percentiles;
      percentiles.precision(4);
      percentiles << std::fixed << ms;
      record.extra.emplace_back("wall_ms_p50", percentiles.str());
      percentiles.str("");
      percentiles << p99;
      record.extra.emplace_back("wall_ms_p99", percentiles.str());
    }
#if GHD_OBS_ENABLED
    const ghd::obs::CounterSnapshot snap = ghd::obs::SnapshotCounters();
    std::string counters_json;
    snap.AppendJson(&counters_json);
    record.extra.emplace_back("counters", counters_json);
    // Schema v3: fraction of VertexSets this run kept in inline storage
    // (the small-set optimization's hit rate; see docs/OBSERVABILITY.md).
    const long inline_sets = snap.counter(obs::Counter::kBitsetInlineSets);
    const long heap_sets = snap.counter(obs::Counter::kBitsetHeapSets);
    if (inline_sets + heap_sets > 0) {
      std::ostringstream rate;
      rate.precision(4);
      rate << std::fixed
           << static_cast<double>(inline_sets) /
                  static_cast<double>(inline_sets + heap_sets);
      record.extra.emplace_back("inline_set_hit_rate", rate.str());
    }
    // Schema v6: where the last repeat's wall went (k-ladder rungs).
    record.extra.emplace_back("attr_top", bench::AttrTopJson(3));
#endif
    records.push_back(std::move(record));
  }
  table.Print(std::cout);

  // Fan-out: the whole suite spread across threads, one instance per index —
  // the serving-style throughput number, and the only place threads run.
  // Repeated like the rows, after one untimed pass: on a 4-vCPU VM, a
  // fan-out started right after the single-threaded rows ran at 1.0x in
  // every trial after an idle pause, and at 2x+ once its CPUs were busy.
  bool widths_agree = true;
  for (int threads : {1, max_threads}) {
    std::vector<double> walls;
    for (int rep = -1; rep < repeats; ++rep) {  // rep -1: untimed warm-up
      std::vector<int> fanout_widths(suite.size(), -2);
      WallTimer t;
      ParallelFor(threads, static_cast<int>(suite.size()), [&](int i) {
        KDeciderOptions options;
        options.state_budget = budget;
        const HypertreeWidthResult r =
            HypertreeWidth(suite[i].hypergraph, 0, options);
        fanout_widths[i] = r.exact ? r.width : -1;
      });
      if (rep >= 0) walls.push_back(t.ElapsedMillis());
      if (fanout_widths != widths) widths_agree = false;
    }
    const double ms = bench::Percentile(walls, 0.5);
    std::cout << "\nfan-out: whole suite at " << threads << " thread(s): "
              << ms << " ms (p50 of " << repeats << ")";
    bench::BenchRecord record;
    record.instance = "_suite_fanout";
    record.wall_ms = ms;
    record.threads = threads;
    std::ostringstream spread;
    spread.precision(4);
    spread << std::fixed << *std::min_element(walls.begin(), walls.end());
    record.extra.emplace_back("wall_ms_min", spread.str());
    spread.str("");
    spread << *std::max_element(walls.begin(), walls.end());
    record.extra.emplace_back("wall_ms_max", spread.str());
    records.push_back(std::move(record));
    if (threads == max_threads) break;  // max_threads may be 1
  }

  std::cout << "\n\nresult: widths "
            << (widths_agree ? "identical" : "DIFFER (BUG)")
            << " between the sequential rows and the fan-out.\n";
  bench::WriteBenchJson("suite", full, records, force);
  return widths_agree ? 0 : 1;
}
