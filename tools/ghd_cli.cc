// ghd_cli — command-line front end for the library.
//
//   ghd_cli stats     <file.hg>          structural statistics + acyclicity
//   ghd_cli bounds    <file.hg>          fast ghw lower/upper bounds
//   ghd_cli ghw       <file.hg> [secs]   exact GHW (budgeted)
//   ghd_cli anytime   <file.hg>          degradation-ladder interval for ghw
//   ghd_cli hw        <file.hg> [states] exact hypertree width (budgeted)
//   ghd_cli bip       <file.hg> [k]      ghw <= k over the BIP subedge
//                                        closure (polynomial on bounded-
//                                        intersection classes; default k=2)
//   ghd_cli tw        <file.hg> [secs]   exact treewidth of the primal graph
//   ghd_cli fhw       <file.hg>          fractional hypertree width upper bound
//   ghd_cli components <file.hg>        connected components with stats
//   ghd_cli td        <file.hg>          min-fill tree decomposition as PACE .td
//   ghd_cli decompose <file.hg>          best GHD found, as Graphviz DOT
//   ghd_cli decide-many  <manifest> [k]  batched hw <= k over a manifest of
//                                        .hg paths: instances are reduced,
//                                        canonicalized, and deduplicated up
//                                        front; one solve per isomorphism
//                                        class, duplicates served from the
//                                        decomposition cache (default k=2)
//   ghd_cli anytime-many <manifest>      batched anytime ghw intervals with
//                                        the same canonicalize/dedup front end
//   ghd_cli replay    <file.trace> [k]   stream a mutate+decide workload trace
//                                        (ghd_gen trace) through the
//                                        incremental solver: small deltas
//                                        sweep the warm decider memo instead
//                                        of re-solving, repeats of a seen
//                                        isomorphism class come from the
//                                        decomposition cache. Prints verdicts
//                                        on stdout, per-event p50/p99 latency
//                                        and retention counters on stderr
//
// Batch flags (decide-many / anytime-many):
//   --cache-file=F   load the decomposition cache from F before solving (when
//                    F exists) and save it back after — warm runs of the same
//                    manifest are then served entirely from cache
//   --cache-mb=N     cache byte budget in MiB (default 64; LRU eviction past
//                    it)
//   --no-cache       disable the cache entirely: every manifest line is
//                    solved independently (the cold baseline of
//                    bench/repeat_traffic)
//   --out=F          write the per-instance results JSON to F as well as
//                    stdout. The JSON is deterministic — verdicts, widths,
//                    and keys only, no timings — so a cold and a warm run of
//                    the same manifest produce byte-identical files (CI's
//                    cache-smoke asserts exactly that)
//   --threads N      instances solved at once (1 = one at a time, the
//                    default; 0 = all hardware threads). Every solve is
//                    sequential; threads only spread the manifest's
//                    instances. A usage error on every other command.
//
// Global flags:
//   --timeout-ms N   wall-clock deadline for the budgeted commands; overrides
//                    the positional seconds budget
//   --memory-mb N    approximate memory budget for the search caches
//   --seed N         RNG seed for the randomized heuristics (default 1)
//   --no-simd        force the portable scalar batch kernels even when the
//                    CPU supports AVX2 (equivalent to GHD_FORCE_SCALAR=1;
//                    results are bit-identical, only throughput changes)
//   --counters       print the engine counter table to stderr after the run
//   --trace-out=F    write a Chrome trace_event JSON (chrome://tracing,
//                    Perfetto) of the run's spans, one lane per thread
//   --report-out=F   write the machine-readable RunReport JSON (schema in
//                    tools/report_schema.json); includes the hierarchical
//                    attribution profile (phase -> rung wall/tick shares)
//   --heartbeat-ms=N emit a progress heartbeat JSON line to stderr every N
//                    milliseconds (phase, rung, certified [lb,ub], frontier
//                    depth, memo/interner occupancy, rates, budget
//                    fractions); the final line carries the stop_reason.
//                    Pipe into tools/obs_top.py for a live dashboard.
//   --metrics-out=F  write the sampler's ring of timestamped counter deltas
//                    (rate-of-change time-series) as JSON. One sampler
//                    thread serves both flags, every --heartbeat-ms
//                    milliseconds when given and every 100 otherwise.
//   --verbose        echo the full resolved configuration to stderr
//
// The observability flags need a build with GHD_OBS=ON (the default); a
// GHD_OBS=OFF binary warns and ignores them. See docs/OBSERVABILITY.md.
//
// All budgeted commands share one resource governor: SIGINT cancels it
// cooperatively, and the best validated bounds found so far are still
// printed. Exit codes: 0 = decided/complete, 3 = truncated by a budget or
// SIGINT (bounds printed are valid but not tight), 1 = I/O error, 2 = usage.
//
// Files use the HyperBench / detkdecomp .hg format.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cache/cached_solver.h"
#include "core/anytime.h"
#include "core/incremental.h"
#include "gen/workload_trace.h"
#include "core/bip.h"
#include "core/ghw_exact.h"
#include "core/ghw_lower.h"
#include "core/fractional.h"
#include "core/ghw_upper.h"
#include "htd/det_k_decomp.h"
#include "hypergraph/acyclicity.h"
#include "hypergraph/components.h"
#include "hypergraph/dot_export.h"
#include "hypergraph/hg_io.h"
#include "hypergraph/kernels.h"
#include "hypergraph/stats.h"
#include "obs/obs.h"
#include "td/bucket_elimination.h"
#include "td/exact_treewidth.h"
#include "td/pace_io.h"
#include "td/ordering_heuristics.h"
#include "util/resource_governor.h"
#include "util/thread_pool.h"

#if GHD_OBS_ENABLED
#include "obs/run_report.h"
#include "obs/sampler.h"
#endif

#include <optional>

namespace {

constexpr int kExitDecided = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitTruncated = 3;

// The governor shared by every budgeted command, reachable from the SIGINT
// handler. Budget::Cancel is async-signal-safe (one relaxed atomic store).
ghd::Budget* g_budget = nullptr;

extern "C" void HandleSigint(int) {
  if (g_budget != nullptr) g_budget->Cancel();
}

int Usage() {
  std::cerr
      << "usage: ghd_cli <stats|bounds|ghw|anytime|hw|bip|tw|fhw|components|"
         "td|decompose>\n               <file.hg> [budget] "
         "[--timeout-ms N] [--memory-mb N] [--seed N] [--no-simd]\n"
         "               "
         "[--counters] [--trace-out=FILE] [--report-out=FILE] [--verbose]\n"
         "               [--heartbeat-ms N] [--metrics-out=FILE]\n"
         "       ghd_cli <decide-many|anytime-many> <manifest> [k]\n"
         "               [--cache-file=FILE] [--cache-mb N] [--no-cache] "
         "[--out=FILE] [--threads N]\n"
         "       ghd_cli replay <file.trace> [k]\n"
         "               [--cache-file=FILE] [--cache-mb N] [--no-cache]\n";
  return kExitUsage;
}

// Everything the epilogue needs to assemble a RunReport, collected by the
// command branches without referencing the obs API (so a GHD_OBS=OFF build
// compiles the branches unchanged).
struct CliRun {
  int lower_bound = 0;
  int upper_bound = 0;
  std::vector<ghd::AnytimeStep> trail;
};

// ---------------------------------------------------------------------------
// decide-many / anytime-many: the batched repeat-traffic front end.

struct BatchParams {
  std::string command;
  std::string manifest_path;
  std::string cache_file;
  std::string out_file;
  bool use_cache = true;
  long cache_mb = 64;
  int k = 2;
  int num_threads = 1;
  long seed = 1;
  ghd::Budget* governor = nullptr;
};

// Manifest lines are .hg paths, one per line, '%' comments and blanks
// skipped, relative paths resolved against the manifest's directory.
bool ReadManifest(const std::string& manifest_path,
                  std::vector<std::string>* labels,
                  std::vector<std::string>* paths) {
  std::ifstream in(manifest_path);
  if (!in) return false;
  const size_t slash = manifest_path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "" : manifest_path.substr(0, slash + 1);
  std::string line;
  while (std::getline(in, line)) {
    const size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos || line[begin] == '%') continue;
    const size_t end = line.find_last_not_of(" \t\r");
    const std::string entry = line.substr(begin, end - begin + 1);
    labels->push_back(entry);
    paths->push_back(entry[0] == '/' ? entry : dir + entry);
  }
  return true;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

int RunBatchCommand(const BatchParams& bp) {
  using namespace ghd;
  std::vector<std::string> labels, paths;
  if (!ReadManifest(bp.manifest_path, &labels, &paths) || paths.empty()) {
    std::cerr << "error: cannot read manifest (or it is empty): "
              << bp.manifest_path << "\n";
    return kExitError;
  }
  const int n = static_cast<int>(paths.size());

  // Load + reduce + canonicalize every instance up front (cheap relative to
  // one solve; see BM_Canonicalize).
  std::vector<PreparedInstance> prepared;
  prepared.reserve(n);
  for (const std::string& path : paths) {
    Result<Hypergraph> parsed = LoadHg(path);
    if (!parsed.ok()) {
      std::cerr << "error: " << parsed.status().ToString() << "\n";
      return kExitError;
    }
    prepared.push_back(PrepareInstance(parsed.value()));
  }

  std::optional<DecompCache> cache;
  if (bp.use_cache) {
    DecompCache::Options copts;
    copts.max_bytes = static_cast<size_t>(bp.cache_mb) << 20;
    copts.governor = bp.governor;
    cache.emplace(copts);
    if (!bp.cache_file.empty()) {
      const Status loaded = cache->Load(bp.cache_file);
      if (!loaded.ok() && loaded.code() != StatusCode::kNotFound) {
        std::cerr << "warning: ignoring cache file: " << loaded.ToString()
                  << "\n";
      }
    }
  }
  DecompCache* cache_ptr = cache.has_value() ? &*cache : nullptr;

  // Deduplicate: one representative per InstanceKey solves; with the cache
  // on, every other manifest line is served from its entry.
  std::unordered_map<InstanceKey, int, InstanceKeyHash> first_of;
  std::vector<int> reps;
  std::vector<char> is_rep(n, 0);
  for (int i = 0; i < n; ++i) {
    if (first_of.emplace(prepared[i].key(), i).second) {
      reps.push_back(i);
      is_rep[i] = 1;
    }
  }

  const bool decide = bp.command == "decide-many";
  std::vector<CachedDecideResult> decide_results(n);
  std::vector<CachedAnytimeResult> anytime_results(n);
  auto solve_one = [&](int i) {
    if (decide) {
      KDeciderOptions options;
      options.budget = bp.governor;
      decide_results[i] = CachedDecideHw(prepared[i], bp.k, cache_ptr,
                                         options);
    } else {
      AnytimeOptions options;
      options.budget = bp.governor;
      options.seed = static_cast<uint64_t>(bp.seed);
      anytime_results[i] = CachedAnytimeGhw(prepared[i], options, cache_ptr);
    }
  };
  // Pass 1: unique keys (the only real solves when the cache is armed).
  ParallelFor(bp.num_threads, static_cast<int>(reps.size()),
              [&](int idx) { solve_one(reps[idx]); });
  // Pass 2: duplicates — cache hits when armed, independent solves under
  // --no-cache (the cold baseline the bench compares against).
  ParallelFor(bp.num_threads, n, [&](int i) {
    if (!is_rep[i]) solve_one(i);
  });

  // Deterministic results JSON: verdicts, widths, keys — never timings or
  // hit flags, so cold and warm runs emit byte-identical bytes.
  std::string json = "[\n";
  int undecided = 0;
  long served_from_cache = 0;
  for (int i = 0; i < n; ++i) {
    json += "  {\"instance\": ";
    AppendJsonString(&json, labels[i]);
    json += ", \"key\": \"" + prepared[i].key().ToHex() + "\"";
    if (decide) {
      const CachedDecideResult& r = decide_results[i];
      json += ", \"k\": " + std::to_string(bp.k);
      json += std::string(", \"decided\": ") + (r.decided ? "true" : "false");
      if (r.decided) {
        json += std::string(", \"exists\": ") + (r.exists ? "true" : "false");
      }
      if (r.width >= 0) json += ", \"width\": " + std::to_string(r.width);
      if (!r.decided) ++undecided;
      if (r.from_cache) ++served_from_cache;
    } else {
      const CachedAnytimeResult& r = anytime_results[i];
      json += ", \"lb\": " + std::to_string(r.lower_bound);
      json += ", \"ub\": " + std::to_string(r.upper_bound);
      json += std::string(", \"exact\": ") + (r.exact ? "true" : "false");
      if (!r.exact) ++undecided;
      if (r.from_cache) ++served_from_cache;
    }
    json += i + 1 < n ? "},\n" : "}\n";
  }
  json += "]\n";
  std::cout << json;
  if (!bp.out_file.empty()) {
    std::ofstream out(bp.out_file);
    if (!out) {
      std::cerr << "error: cannot write results to " << bp.out_file << "\n";
      return kExitError;
    }
    out << json;
  }

  std::cerr << bp.command << ": instances=" << n << " unique_keys="
            << reps.size() << " duplicates=" << (n - reps.size())
            << " served_from_cache=" << served_from_cache
            << " undecided=" << undecided;
  if (cache_ptr != nullptr) {
    std::cerr << " cache_entries=" << cache_ptr->size()
              << " cache_bytes=" << cache_ptr->bytes();
  }
  std::cerr << "\n";

  if (cache_ptr != nullptr && !bp.cache_file.empty()) {
    const Status saved = cache_ptr->Save(bp.cache_file);
    if (!saved.ok()) {
      std::cerr << "warning: cache not saved: " << saved.ToString() << "\n";
    }
  }
  return undecided == 0 ? kExitDecided : kExitTruncated;
}

// ---------------------------------------------------------------------------
// replay: stream a workload trace through the incremental solver.

struct ReplayParams {
  std::string trace_path;
  std::string cache_file;
  bool use_cache = true;
  long cache_mb = 64;
  int k_override = 0;  // 0 = the trace's default k
  ghd::Budget* governor = nullptr;
};

// Nearest-rank percentile over a sorted copy (same convention as the bench
// suite's Percentile helper; duplicated here so tools/ does not link bench/).
double PercentileMs(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(q * (samples.size() - 1) + 0.5);
  return samples[rank < samples.size() ? rank : samples.size() - 1];
}

int RunReplayCommand(const ReplayParams& rp) {
  using namespace ghd;
  Result<WorkloadTrace> loaded = LoadTrace(rp.trace_path);
  if (!loaded.ok()) {
    std::cerr << "error: " << loaded.status().ToString() << "\n";
    return kExitError;
  }
  const WorkloadTrace& trace = loaded.value();
  const int default_k = rp.k_override > 0 ? rp.k_override : trace.default_k;

  std::optional<DecompCache> cache;
  if (rp.use_cache) {
    DecompCache::Options copts;
    copts.max_bytes = static_cast<size_t>(rp.cache_mb) << 20;
    copts.governor = rp.governor;
    cache.emplace(copts);
    if (!rp.cache_file.empty()) {
      const Status cache_loaded = cache->Load(rp.cache_file);
      if (!cache_loaded.ok() &&
          cache_loaded.code() != StatusCode::kNotFound) {
        std::cerr << "warning: ignoring cache file: "
                  << cache_loaded.ToString() << "\n";
      }
    }
  }

  IncrementalOptions opts;
  opts.budget = rp.governor;
  opts.cache = cache.has_value() ? &*cache : nullptr;
  IncrementalSolver solver(trace.base, opts);

  std::vector<double> event_ms, decide_ms;
  event_ms.reserve(trace.events.size());
  long decides = 0, yes = 0, no = 0, undecided = 0;
  for (size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& ev = trace.events[i];
    const auto start = std::chrono::steady_clock::now();
    if (ev.kind == TraceEvent::Kind::kDelta) {
      EdgeDelta delta;
      const Status s = ResolveDelta(solver.current(), ev, &delta);
      if (!s.ok()) {
        std::cerr << "error: event " << i << ": " << s.ToString() << "\n";
        return kExitError;
      }
      solver.Apply(delta);
    } else {
      const int k = ev.k > 0 ? ev.k : default_k;
      const IncrementalDecideResult r = solver.DecideHw(k);
      ++decides;
      if (!r.decided) {
        ++undecided;
      } else if (r.exists) {
        ++yes;
      } else {
        ++no;
      }
      std::cout << "v" << solver.version() << " hw<=" << k << ": "
                << (r.decided ? (r.exists ? "yes" : "no") : "undecided")
                << "\n";
    }
    const auto end = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    event_ms.push_back(ms);
    if (ev.kind == TraceEvent::Kind::kDecide) decide_ms.push_back(ms);
  }

  std::cout << "replay: events=" << trace.events.size()
            << " decides=" << decides << " yes=" << yes << " no=" << no
            << " undecided=" << undecided << "\n";

  const IncrementalStats& st = solver.stats();
  const long memo_total = st.memo_retained + st.memo_invalidated;
  std::cerr << "replay: deltas=" << st.deltas_applied
            << " incremental_solves=" << st.incremental_solves
            << " full_solves=" << st.full_solves
            << " cache_served=" << st.cache_served
            << " fingerprint_served=" << st.fingerprint_served
            << " ladder_drops=" << st.ladder_drops << "\n";
  std::cerr << "replay: incr_memo_retained=" << st.memo_retained
            << " incr_memo_invalidated=" << st.memo_invalidated
            << " incr_neg_retained=" << st.neg_retained
            << " incr_sep_retained=" << st.sep_retained
            << " memo_retention="
            << (memo_total > 0
                    ? static_cast<double>(st.memo_retained) / memo_total
                    : 0.0)
            << "\n";
  std::cerr << "replay: event_ms_p50=" << PercentileMs(event_ms, 0.50)
            << " event_ms_p99=" << PercentileMs(event_ms, 0.99)
            << " decide_ms_p50=" << PercentileMs(decide_ms, 0.50)
            << " decide_ms_p99=" << PercentileMs(decide_ms, 0.99) << "\n";

  if (cache.has_value() && !rp.cache_file.empty()) {
    const Status saved = cache->Save(rp.cache_file);
    if (!saved.ok()) {
      std::cerr << "warning: cache not saved: " << saved.ToString() << "\n";
    }
  }
  return undecided == 0 ? kExitDecided : kExitTruncated;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ghd;
  // Split flags from positional arguments.
  int num_threads = 1;
  bool threads_given = false;
  long timeout_ms = 0;
  long memory_mb = 0;
  long seed = 1;
  long heartbeat_ms = 0;
  long cache_mb = 64;
  bool want_counters = false;
  bool verbose = false;
  bool no_cache = false;
  std::string trace_out;
  std::string report_out;
  std::string metrics_out;
  std::string cache_file;
  std::string out_file;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto long_flag = [&](const char* name, long* out) {
      const std::string prefix = std::string(name) + "=";
      if (arg == name) {
        if (i + 1 >= argc) return false;
        *out = std::atol(argv[++i]);
        return true;
      }
      if (arg.rfind(prefix, 0) == 0) {
        *out = std::atol(arg.c_str() + prefix.size());
        return true;
      }
      return false;
    };
    auto string_flag = [&](const char* name, std::string* out) {
      const std::string prefix = std::string(name) + "=";
      if (arg == name) {
        if (i + 1 >= argc) return false;
        *out = argv[++i];
        return true;
      }
      if (arg.rfind(prefix, 0) == 0) {
        *out = arg.substr(prefix.size());
        return true;
      }
      return false;
    };
    long threads_value = 0;
    if (long_flag("--threads", &threads_value)) {
      num_threads = static_cast<int>(threads_value);
      threads_given = true;
    } else if (long_flag("--timeout-ms", &timeout_ms) ||
               long_flag("--memory-mb", &memory_mb) ||
               long_flag("--seed", &seed) ||
               long_flag("--heartbeat-ms", &heartbeat_ms) ||
               long_flag("--cache-mb", &cache_mb)) {
      if (timeout_ms < 0 || memory_mb < 0 || heartbeat_ms < 0 ||
          cache_mb < 1) {
        return Usage();
      }
    } else if (string_flag("--trace-out", &trace_out) ||
               string_flag("--report-out", &report_out) ||
               string_flag("--metrics-out", &metrics_out) ||
               string_flag("--cache-file", &cache_file) ||
               string_flag("--out", &out_file)) {
      // handled in the epilogue / batch commands
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--counters") {
      want_counters = true;
    } else if (arg == "--no-simd") {
      kernels::ForceScalarKernels(true);
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      args.push_back(arg);
    }
  }
  if (args.size() < 2) return Usage();
  const std::string command = args[0];
  // Threads spread the instances of a manifest; a single search is
  // sequential, so the flag means nothing anywhere else.
  if (threads_given && command != "decide-many" && command != "anytime-many") {
    std::cerr << "error: --threads applies only to decide-many and "
                 "anytime-many\n";
    return Usage();
  }

#if GHD_OBS_ENABLED
  // Heartbeat lines, sampler deltas, and attribution deltas all derive from
  // the counter snapshots, so any live surface arms the counters too.
  if (want_counters || !report_out.empty() || heartbeat_ms > 0 ||
      !metrics_out.empty()) {
    obs::EnableCounters(true);
  }
  if (!trace_out.empty()) obs::EnableTracing();
  if (heartbeat_ms > 0) obs::EnableBoard(true);
  if (!report_out.empty()) obs::EnableAttribution(true);
#else
  if (want_counters || !report_out.empty() || !trace_out.empty() ||
      heartbeat_ms > 0 || !metrics_out.empty()) {
    std::cerr << "warning: this binary was built with GHD_OBS=OFF; "
                 "--counters/--trace-out/--report-out/--heartbeat-ms/"
                 "--metrics-out are ignored\n";
  }
#endif

  if (verbose) {
    std::cerr << "config: command=" << command << " instance=" << args[1]
              << " threads=" << num_threads << " seed=" << seed
              << " timeout_ms=" << timeout_ms << " memory_mb=" << memory_mb
              << " budget_arg=" << (args.size() > 2 ? args[2] : "(default)")
              << " kernel_dispatch="
              << kernels::KernelDispatchName(kernels::SelectedDispatch())
#if GHD_OBS_ENABLED
              << " git=" << obs::BuildGitDescribe()
#endif
              << "\n";
  }

  // The batch commands take a manifest (or trace) instead of one .hg
  // instance; they load their inputs themselves inside the dispatch.
  const bool batch_command = command == "decide-many" ||
                             command == "anytime-many" || command == "replay";
  Hypergraph h{{}, {}, {}};
  if (!batch_command) {
    Result<Hypergraph> parsed = LoadHg(args[1]);
    if (!parsed.ok()) {
      std::cerr << "error: " << parsed.status().ToString() << "\n";
      return kExitError;
    }
    h = parsed.value();
  }
  const double budget_arg = args.size() > 2 ? std::atof(args[2].c_str()) : 30.0;

  // One governor for the whole invocation; --timeout-ms overrides the
  // positional seconds budget, SIGINT cancels cooperatively, and
  // GHD_FAULT_TICKS arms deterministic fault injection for tests.
  Budget governor;
  const double deadline_seconds =
      timeout_ms > 0 ? static_cast<double>(timeout_ms) / 1000.0 : 0.0;
  if (memory_mb > 0) {
    governor.SetMemoryBudget(static_cast<size_t>(memory_mb) * 1024 * 1024);
  }
  governor.InjectFailureFromEnv();
  g_budget = &governor;
  std::signal(SIGINT, HandleSigint);

#if GHD_OBS_ENABLED
  // The sampler starts before the dispatch so even instant runs emit a seq-0
  // heartbeat, and stops right after it so the final heartbeat line and the
  // closing ring frame reflect the finished (or truncated) run.
  std::optional<obs::Sampler> sampler;
  if (heartbeat_ms > 0 || !metrics_out.empty()) {
    obs::Sampler::Options sampler_options;
    if (heartbeat_ms > 0) {
      sampler_options.interval_ms = static_cast<int>(heartbeat_ms);
      sampler_options.heartbeat_out = &std::cerr;
    }
    sampler_options.budget = &governor;
    sampler.emplace(sampler_options);
    sampler->Start();
  }
#endif

  CliRun run;
  auto dispatch = [&]() -> int {
    if (command == "stats") {
      std::cout << StatsToString(ComputeStats(h)) << "\n";
      std::cout << (IsAlphaAcyclic(h) ? "alpha-acyclic (ghw = 1)"
                                      : "cyclic (ghw >= 2)")
                << "\n";
      return kExitDecided;
    }
    if (command == "bounds") {
      GhwUpperBoundResult ub = GhwUpperBoundMultiRestart(
          h, 8, static_cast<uint64_t>(seed), CoverMode::kExact);
      run.lower_bound = GhwLowerBound(h);
      run.upper_bound = ub.width;
      std::cout << "ghw lower bound: " << run.lower_bound << "\n";
      std::cout << "ghw upper bound: " << run.upper_bound << "\n";
      return kExitDecided;
    }
    if (command == "ghw") {
      governor.SetDeadlineSeconds(deadline_seconds > 0 ? deadline_seconds
                                                       : budget_arg);
      ExactGhwOptions options;
      options.budget = &governor;
      options.seed = static_cast<uint64_t>(seed);
      ExactGhwResult r = ExactGhwComponentwise(h, options);
      run.lower_bound = r.lower_bound;
      run.upper_bound = r.upper_bound;
      if (r.exact) {
        std::cout << "ghw = " << r.upper_bound << "\n";
        return kExitDecided;
      }
      std::cout << "ghw in [" << r.lower_bound << ", " << r.upper_bound
                << "] (" << StopReasonName(r.outcome.stop_reason) << ")\n";
      return kExitTruncated;
    }
    if (command == "anytime") {
      AnytimeOptions options;
      options.budget = &governor;
      if (deadline_seconds > 0) governor.SetDeadlineSeconds(deadline_seconds);
      options.seed = static_cast<uint64_t>(seed);
      AnytimeGhwResult r = AnytimeGhw(h, options);
      run.lower_bound = r.lower_bound;
      run.upper_bound = r.upper_bound;
      run.trail = r.trail;
      if (r.exact) {
        std::cout << "ghw = " << r.upper_bound << "\n";
      } else {
        std::cout << "ghw in [" << r.lower_bound << ", " << r.upper_bound
                  << "] (" << StopReasonName(r.outcome.stop_reason) << ")\n";
      }
      std::cerr << "ladder:\n";
      for (const AnytimeStep& step : r.trail) {
        std::cerr << "  " << step.engine << " -> [" << step.lower_bound
                  << ", " << step.upper_bound << "] @" << step.at_seconds
                  << "s (+" << step.rung_seconds << "s)\n";
      }
      return r.exact ? kExitDecided : kExitTruncated;
    }
    if (command == "hw") {
      if (deadline_seconds > 0) {
        governor.SetDeadlineSeconds(deadline_seconds);
      } else {
        governor.SetTickBudget(args.size() > 2 ? std::atol(args[2].c_str())
                                               : 2000000);
      }
      KDeciderOptions options;
      options.budget = &governor;
      HypertreeWidthResult r = HypertreeWidth(h, 0, options);
      if (r.exact) {
        run.lower_bound = run.upper_bound = r.width;
        std::cout << "hw = " << r.width << "\n";
        return kExitDecided;
      }
      run.lower_bound = r.last_failed_k + 1;
      run.upper_bound = h.num_edges();
      std::cout << "hw > " << r.last_failed_k << " ("
                << StopReasonName(r.outcome.stop_reason) << ")\n";
      return kExitTruncated;
    }
    if (command == "bip") {
      const int k = args.size() > 2 ? std::atoi(args[2].c_str()) : 2;
      if (k < 1) return Usage();
      if (deadline_seconds > 0) {
        governor.SetDeadlineSeconds(deadline_seconds);
      } else {
        governor.SetTickBudget(20000000);
      }
      SubedgeClosureOptions closure;
      closure.max_union_arity = k;
      closure.budget = &governor;
      KDeciderOptions options;
      options.budget = &governor;
      KDeciderResult r = BipGhwDecide(h, k, closure, options);
      run.lower_bound = 1;
      run.upper_bound = h.num_edges();
      if (r.decided) {
        if (r.exists) {
          run.upper_bound = k;
          std::cout << "ghw <= " << k << " (BIP closure, validated witness)\n";
        } else {
          // A refutation over the closure (a superset of the original edges)
          // implies hw > k, hence ghw >= ceil(k/3) by the approximation
          // theorem; it is exactly ghw > k on bounded-intersection classes.
          run.lower_bound = (k + 2) / 3;
          std::cout << "ghw > " << k << " over the arity-" << k
                    << " subedge closure (exact on BIP classes; in general "
                       "implies hw > " << k << ")\n";
        }
        return kExitDecided;
      }
      std::cout << "undecided at k = " << k << " ("
                << StopReasonName(r.outcome.stop_reason) << ")\n";
      return kExitTruncated;
    }
    if (command == "fhw") {
      const Rational fhw = FhwUpperBound(h, OrderingHeuristic::kMinFill);
      std::cout << "fhw <= " << fhw.ToString() << "\n";
      return kExitDecided;
    }
    if (command == "tw") {
      governor.SetDeadlineSeconds(deadline_seconds > 0 ? deadline_seconds
                                                       : budget_arg);
      ExactTreewidthOptions options;
      options.budget = &governor;
      ExactTreewidthResult r = ExactTreewidth(h.PrimalGraph(), options);
      run.lower_bound = r.lower_bound;
      run.upper_bound = r.upper_bound;
      if (r.exact) {
        std::cout << "tw = " << r.upper_bound << "\n";
        return kExitDecided;
      }
      std::cout << "tw in [" << r.lower_bound << ", " << r.upper_bound
                << "] (" << StopReasonName(r.outcome.stop_reason) << ")\n";
      return kExitTruncated;
    }
    if (command == "td") {
      const Graph primal = h.PrimalGraph();
      TreeDecomposition td = TdFromOrdering(primal, MinFillOrdering(primal));
      std::cout << WritePaceTreeDecomposition(td, primal.num_vertices());
      std::cerr << "width " << td.Width() << " (min-fill heuristic)\n";
      run.lower_bound = 0;
      run.upper_bound = td.Width();
      return kExitDecided;
    }
    if (command == "components") {
      const auto parts = SplitIntoComponents(h);
      std::cout << parts.size() << " connected component(s)\n";
      for (size_t p = 0; p < parts.size(); ++p) {
        std::cout << "  [" << p << "] "
                  << StatsToString(ComputeStats(parts[p])) << "\n";
      }
      return kExitDecided;
    }
    if (command == "replay") {
      if (deadline_seconds > 0) governor.SetDeadlineSeconds(deadline_seconds);
      ReplayParams rp;
      rp.trace_path = args[1];
      rp.cache_file = cache_file;
      rp.use_cache = !no_cache;
      rp.cache_mb = cache_mb;
      rp.k_override = args.size() > 2 ? std::atoi(args[2].c_str()) : 0;
      if (args.size() > 2 && rp.k_override < 1) return Usage();
      rp.governor = &governor;
      return RunReplayCommand(rp);
    }
    if (batch_command) {
      if (deadline_seconds > 0) governor.SetDeadlineSeconds(deadline_seconds);
      BatchParams bp;
      bp.command = command;
      bp.manifest_path = args[1];
      bp.cache_file = cache_file;
      bp.out_file = out_file;
      bp.use_cache = !no_cache;
      bp.cache_mb = cache_mb;
      if (command == "decide-many") {
        bp.k = args.size() > 2 ? std::atoi(args[2].c_str()) : 2;
        if (bp.k < 1) return Usage();
      }
      bp.num_threads = num_threads;
      bp.seed = seed;
      bp.governor = &governor;
      return RunBatchCommand(bp);
    }
    if (command == "decompose") {
      governor.SetDeadlineSeconds(deadline_seconds > 0 ? deadline_seconds
                                                       : budget_arg);
      ExactGhwOptions options;
      options.budget = &governor;
      options.seed = static_cast<uint64_t>(seed);
      ExactGhwResult r = ExactGhw(h, options);
      run.lower_bound = r.lower_bound;
      run.upper_bound = r.upper_bound;
      std::cout << GhdToDot(h, r.best_ghd);
      std::cerr << "width " << r.best_ghd.Width()
                << (r.exact ? " (optimal)" : " (best found)") << "\n";
      return r.exact ? kExitDecided : kExitTruncated;
    }
    return Usage();
  };
  int exit_code;
  {
    // Root attribution node for the command; engine scopes nest below it.
    // The "cmd:" prefix keeps it distinct from same-named engine scopes
    // (command "anytime" vs the AnytimeGhw driver's own node).
    GHD_ATTR_SCOPE(command_attr, "cmd:" + command);
    exit_code = dispatch();
  }

#if GHD_OBS_ENABLED
  // Flush the sampler first: Stop() takes the closing frame, which carries the
  // stop_reason-bearing final heartbeat line (the exit-3 honesty contract)
  // unless a budget-stop frame already wrote it, before any report is
  // assembled.
  if (sampler.has_value()) sampler->Stop();
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::cerr << "error: cannot write metrics to " << metrics_out << "\n";
      return kExitError;
    }
    out << sampler->ToJson() << "\n";
    if (verbose) {
      std::cerr << "metrics: " << sampler->samples_taken() << " sample(s) -> "
                << metrics_out << "\n";
    }
  }
#endif

#if GHD_OBS_ENABLED
  if (!trace_out.empty()) {
    obs::DisableTracing();
    std::ofstream out(trace_out);
    if (!out) {
      std::cerr << "error: cannot write trace to " << trace_out << "\n";
      return kExitError;
    }
    obs::WriteChromeTrace(out);
    if (verbose) {
      std::cerr << "trace: " << obs::TraceEventCount() << " span(s) -> "
                << trace_out << "\n";
    }
  }
  if (want_counters || !report_out.empty()) {
    const obs::CounterSnapshot snapshot = obs::SnapshotCounters();
    if (want_counters) {
      std::cerr << "counters:\n" << snapshot.ToTable();
    }
    if (!report_out.empty() && exit_code != kExitUsage) {
      obs::RunReport report;
      report.command = command;
      report.instance_path = args[1];
      report.git_describe = obs::BuildGitDescribe();
      report.AddConfig("threads", std::to_string(num_threads));
      report.AddConfig("seed", std::to_string(seed));
      report.AddConfig("timeout_ms", std::to_string(timeout_ms));
      report.AddConfig("memory_mb", std::to_string(memory_mb));
      report.AddConfig("budget_arg",
                       args.size() > 2 ? args[2] : std::string("default"));
      report.AddConfig("counters", want_counters ? "true" : "false");
      report.AddConfig("trace_out", trace_out);
      report.AddConfig("heartbeat_ms", std::to_string(heartbeat_ms));
      report.AddConfig("metrics_out", metrics_out);
      report.AddConfig(
          "kernel_dispatch",
          kernels::KernelDispatchName(kernels::SelectedDispatch()));
      // Batch commands have no single instance to profile.
      report.has_stats = !batch_command;
      if (report.has_stats) report.stats = ComputeStats(h);
      report.status = exit_code == kExitDecided    ? "exact"
                      : exit_code == kExitTruncated ? "truncated"
                                                    : "error";
      report.stop_reason = StopReasonName(governor.reason());
      report.lower_bound = run.lower_bound;
      report.upper_bound = run.upper_bound;
      report.wall_seconds = governor.ElapsedSeconds();
      report.ticks = governor.ticks_used();
      report.bytes_charged = governor.bytes_charged();
      report.exit_code = exit_code;
      for (const AnytimeStep& step : run.trail) {
        obs::ReportTrailStep t;
        t.engine = step.engine;
        t.lower_bound = step.lower_bound;
        t.upper_bound = step.upper_bound;
        t.at_seconds = step.at_seconds;
        t.rung_seconds = step.rung_seconds;
        report.trail.push_back(std::move(t));
      }
      report.has_counters = true;
      report.counters = snapshot;
      report.has_attribution = true;
      obs::AppendAttributionJson(obs::SnapshotAttribution(),
                                 &report.attribution_json);
      std::ofstream out(report_out);
      if (!out) {
        std::cerr << "error: cannot write report to " << report_out << "\n";
        return kExitError;
      }
      out << report.ToJson();
      if (verbose) std::cerr << "report: -> " << report_out << "\n";
    }
  }
#else
  (void)run;
#endif
  return exit_code;
}
