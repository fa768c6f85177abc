// The four workloads. Each runs a closed loop for the configured window and
// returns its end-to-end sheet (untraced run) or per-layer sheet (traced
// run), the ask counts and a detail object with the deterministic digests,
// the error breakdown and the per-kind / per-cause rows.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct RunOutput {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  Sheet metrics;
  /// JSON object: digests, error breakdown, rows, setup repetitions.
  std::string detail;
};

RunOutput RunColdMix(const RunConfig& config);
RunOutput RunRepeatMix(const RunConfig& config);
RunOutput RunReplayEvolve(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
