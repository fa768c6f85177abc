// Anytime portfolio driver for generalized hypertree width.
//
// The paper's complexity landscape dictates the shape of this module: exact
// GHW is NP-hard already for the question ghw(H) <= 3, while hypertree width
// is fixed-parameter polynomial and satisfies ghw <= hw <= 3*ghw + 1. A
// caller with a deadline therefore wants a *ladder*: cheap combinatorial
// lower bounds and greedy covers first (always finish), the exact engine
// under a time slice, then the polynomial det-k-decomp approximation to
// tighten both sides via the factor-3 inequality. AnytimeGhw runs that ladder
// under one resource governor and returns a certified interval
// [lower_bound, upper_bound] containing ghw(H), a validated witness for the
// upper bound, and a provenance trail recording which engine produced each
// improvement.
#ifndef GHD_CORE_ANYTIME_H_
#define GHD_CORE_ANYTIME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/ghd.h"
#include "hypergraph/hypergraph.h"
#include "util/resource_governor.h"

namespace ghd {

/// Deadline and ladder switches for the anytime driver.
struct AnytimeOptions {
  /// Total wall-clock deadline in seconds; <= 0 means unlimited. Ignored when
  /// `budget` is set.
  double deadline_seconds = 0;
  /// Global tick budget across all ladder engines; <= 0 means unlimited.
  /// Ignored when `budget` is set.
  long tick_budget = 0;
  /// Approximate memory budget in bytes; 0 means unlimited. Ignored when
  /// `budget` is set.
  size_t memory_bytes = 0;
  /// External root governor (e.g. the CLI's SIGINT-cancellable budget). When
  /// null a private root budget is built from the three fields above and
  /// armed from GHD_FAULT_TICKS.
  Budget* budget = nullptr;
  /// Ignored (every engine is sequential); removed together with the
  /// repository benchmark's `num_threads = 1` assignments.
  int num_threads = 1;
  /// Restarts for the randomized upper-bound heuristic.
  int heuristic_restarts = 8;
  uint64_t seed = 1;
  /// Run the 2^n subset DP when the instance is small enough. It is an
  /// independent exact engine, so it doubles as a cross-check on the B&B.
  bool use_subset_dp = true;
  /// Fall back to det-k-decomp (hypertree width) to tighten the interval via
  /// ghw <= hw <= 3*ghw + 1 when the exact engine was truncated.
  bool use_det_k_decomp = true;
};

/// One rung of the ladder: which engine ran and the certified interval after
/// it finished (or was truncated).
struct AnytimeStep {
  std::string engine;
  int lower_bound = 0;
  int upper_bound = 0;
  /// Wall-clock seconds since the driver started, from the root governor.
  double at_seconds = 0;
  /// Wall-clock seconds this rung itself took: the delta to the previous
  /// trail entry's at_seconds (equal to at_seconds for the first rung).
  double rung_seconds = 0;
};

/// The driver's final answer. Invariants, enforced by validation:
///  * lower_bound <= ghw(H) <= upper_bound always (even under truncation);
///  * `witness` is a decomposition of width == upper_bound that passes
///    GeneralizedHypertreeDecomposition::Validate (nonempty hypergraphs);
///  * `exact` iff lower_bound == upper_bound;
///  * `trail` is ordered and its intervals are nested (lb non-decreasing,
///    ub non-increasing).
struct AnytimeGhwResult {
  int lower_bound = 0;
  int upper_bound = 0;
  bool exact = false;
  GeneralizedHypertreeDecomposition witness;
  std::vector<AnytimeStep> trail;
  Outcome outcome;
};

/// Runs the degradation ladder under the governor. Never fails: even a budget
/// of zero ticks yields a validated interval, because the heuristic rungs do
/// not consume ticks.
AnytimeGhwResult AnytimeGhw(const Hypergraph& h,
                            const AnytimeOptions& options = {});

}  // namespace ghd

#endif  // GHD_CORE_ANYTIME_H_
