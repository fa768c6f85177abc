// Experiment E11 — anytime quality trajectory of the degradation ladder.
//
// Paper motivation: exact GHW is NP-hard (already for ghw <= 3) but the
// hypertree-width ladder gives polynomial fallbacks within factor 3. The
// anytime driver operationalizes that: this harness measures, per instance,
// how fast the certified interval [lb, ub] tightens as the tick budget grows
// — the "quality vs budget" curve — and records the unbounded ladder's
// provenance trail (which rung produced each improvement, at what time).
#include <iostream>
#include <string>
#include <vector>

#include "core/anytime.h"
#include "obs/obs.h"
#include "suite.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace ghd;
  const bool full = bench::WantFull(argc, argv);
  const bool force = bench::WantForce(argc, argv);
#if GHD_OBS_ENABLED
  obs::EnableCounters(true);
#endif
  std::cout << "E11: anytime interval quality vs tick budget\n"
            << "    (ladder: lower bounds -> greedy covers -> subset DP -> "
               "exact B&B -> det-k-decomp)\n\n";

  Table table({"instance", "budget", "lb", "ub", "gap", "ms", "stop"});
  std::vector<bench::BenchRecord> records;
  const std::vector<long> budgets = full
      ? std::vector<long>{1, 10, 100, 1000, 10000, 100000, 0}
      : std::vector<long>{1, 100, 10000, 0};  // 0 = unlimited

  for (const bench::NamedInstance& inst : bench::ExactSuite(full)) {
    for (long ticks : budgets) {
      Budget budget;
      if (ticks > 0) budget.SetTickBudget(ticks);
      AnytimeOptions options;
      options.budget = &budget;
#if GHD_OBS_ENABLED
      obs::ResetCounters();
#endif
      WallTimer t;
      AnytimeGhwResult r = AnytimeGhw(inst.hypergraph, options);
      const double ms = t.ElapsedMillis();

      const std::string label = ticks > 0 ? std::to_string(ticks) : "inf";
      table.AddRow({inst.name, label, Table::Cell(r.lower_bound),
                    Table::Cell(r.upper_bound),
                    Table::Cell(r.upper_bound - r.lower_bound),
                    Table::Cell(ms, 2),
                    r.exact ? "exact" : StopReasonName(r.outcome.stop_reason)});

      bench::BenchRecord record;
      record.instance = inst.name;
      record.wall_ms = ms;
      record.states = budget.ticks_used();
      record.threads = 1;
      record.extra.emplace_back("tick_budget", std::to_string(ticks));
      record.extra.emplace_back("lb", std::to_string(r.lower_bound));
      record.extra.emplace_back("ub", std::to_string(r.upper_bound));
      record.extra.emplace_back("exact", r.exact ? "true" : "false");
      record.extra.emplace_back(
          "stop", std::string("\"") + StopReasonName(r.outcome.stop_reason) +
                      "\"");
      // The unbounded run also reports its provenance trail so the JSON
      // captures which rung closed the interval.
      if (ticks == 0 && !r.trail.empty()) {
        std::string trail = "\"";
        for (size_t i = 0; i < r.trail.size(); ++i) {
          if (i > 0) trail += ";";
          trail += r.trail[i].engine + ":[" +
                   std::to_string(r.trail[i].lower_bound) + "," +
                   std::to_string(r.trail[i].upper_bound) + "]";
        }
        trail += "\"";
        record.extra.emplace_back("trail", trail);
      }
#if GHD_OBS_ENABLED
      std::string counters_json;
      obs::SnapshotCounters().AppendJson(&counters_json);
      record.extra.emplace_back("counters", counters_json);
#endif
      records.push_back(std::move(record));
    }
  }
  table.Print(std::cout);
  std::cout << "\nresult: the interval is valid at every budget (the "
               "heuristic rungs are\ntick-free) and tightens monotonically to "
               "exact as the budget grows.\n";
  bench::WriteBenchJson("anytime", full, records, force);
  return 0;
}
