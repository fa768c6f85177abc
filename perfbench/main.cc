// perfbench: the repository benchmark program.
//
//   perfbench --workload <cold_mix|repeat_mix|replay_evolve>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--git-describe <text>] [--src-digest <hex>]
//
// Prints one provenance-and-detail JSON line, then the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1). Exit code 0 unless the arguments are malformed.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "hypergraph/kernels.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <cold_mix|repeat_mix|"
               "replay_evolve> --seed <n> --seconds <s> "
               "--trace <0|1> [--git-describe <text>] [--src-digest <hex>]\n");
  return 2;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string git_describe = "unknown", src_digest = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || config.seconds <= 0) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      config.trace = value == "1";
    } else if (flag == "--git-describe") {
      git_describe = value;
    } else if (flag == "--src-digest") {
      src_digest = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_workload) return Usage();

  RunOutput out;
  if (config.workload == "cold_mix") {
    out = RunColdMix(config);
  } else if (config.workload == "repeat_mix") {
    out = RunRepeatMix(config);
  } else if (config.workload == "replay_evolve") {
    out = RunReplayEvolve(config);
  } else {
    return Usage();
  }

  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"hardware_threads\": %u, "
      "\"kernel_dispatch\": \"%s\", \"build_type\": \"%s\", "
      "\"git_describe\": \"%s\", \"src_digest\": \"%s\"}, \"detail\": %s}\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0,
      std::thread::hardware_concurrency(),
      ghd::kernels::KernelDispatchName(ghd::kernels::SelectedDispatch()),
      PERFBENCH_BUILD_TYPE, Escape(git_describe).c_str(),
      Escape(src_digest).c_str(), out.detail.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
      "\"metrics\": %s}\n",
      out.correct ? "true" : "false", out.attempted, out.failed,
      out.metrics.MetricsJson().c_str());
  std::fflush(stdout);
  return 0;
}
