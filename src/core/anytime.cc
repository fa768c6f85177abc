#include "core/anytime.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "core/ghw_dp.h"
#include "core/ghw_exact.h"
#include "core/ghw_lower.h"
#include "core/ghw_upper.h"
#include "htd/det_k_decomp.h"
#include "obs/obs.h"
#include "util/check.h"

namespace ghd {
namespace {

// Appends a trail entry capturing the interval after `engine` ran. The trail
// invariant (nested intervals) holds because callers only ever tighten
// result.lower_bound / result.upper_bound.
void Record(AnytimeGhwResult* result, const char* engine, const Budget& root) {
  GHD_COUNT(kLadderRungs);
  // The certified interval is the headline number of a live run: publish it
  // whenever a rung lands so the heartbeat reports the tightened bounds.
  GHD_BOARD_SET(kBestLb, result->lower_bound);
  GHD_BOARD_SET(kBestUb, result->upper_bound);
  AnytimeStep step;
  step.engine = engine;
  step.lower_bound = result->lower_bound;
  step.upper_bound = result->upper_bound;
  step.at_seconds = root.ElapsedSeconds();
  step.rung_seconds =
      result->trail.empty()
          ? step.at_seconds
          : step.at_seconds - result->trail.back().at_seconds;
  result->trail.push_back(std::move(step));
}

// Installs `ghd` as the incumbent witness if it improves the upper bound.
// Every witness is re-validated here — an engine bug may loosen the interval
// but can never surface an invalid decomposition.
void Improve(AnytimeGhwResult* result, const Hypergraph& h,
             GeneralizedHypertreeDecomposition ghd, int width) {
  if (result->witness.num_nodes() != 0 && width >= result->upper_bound) return;
  GHD_CHECK(ghd.Validate(h).ok());
  GHD_CHECK(ghd.Width() <= width);
  GHD_COUNT(kLadderImprovements);
  result->upper_bound = std::min(result->upper_bound, width);
  result->witness = std::move(ghd);
}

}  // namespace

AnytimeGhwResult AnytimeGhw(const Hypergraph& h, const AnytimeOptions& options) {
  AnytimeGhwResult result;
  GHD_BOARD_PHASE("anytime");
  GHD_ATTR_SCOPE(attr, "anytime");

  Budget local_budget(options.deadline_seconds, options.tick_budget,
                      options.memory_bytes);
  Budget* root = options.budget;
  if (root == nullptr) {
    local_budget.InjectFailureFromEnv();
    root = &local_budget;
  }

  if (h.num_edges() == 0) {
    result.exact = true;
    result.outcome = root->MakeOutcome();
    Record(&result, "trivial", *root);
    return result;
  }

  // Rung 1 (tick-free): combinatorial lower bound. Always runs, so even a
  // zero-tick budget yields a nontrivial certified interval.
  {
    GHD_SPAN_VAR(span, "anytime", "rung:lower-bound");
    GHD_BOARD_RUNG("lower-bound");
    GHD_ATTR_SCOPE(rung_attr, "lower-bound");
    result.lower_bound = std::max(1, GhwLowerBound(h));
    result.upper_bound = h.num_edges();
    Record(&result, "lower-bound", *root);
    span.SetArg("lb", result.lower_bound);
  }

  // Rung 2 (tick-free): greedy cover on one min-fill ordering. Guarantees a
  // validated witness exists from here on.
  {
    GHD_SPAN_VAR(span, "anytime", "rung:greedy-cover");
    GHD_BOARD_RUNG("greedy-cover");
    GHD_ATTR_SCOPE(rung_attr, "greedy-cover");
    GhwUpperBoundResult greedy =
        GhwUpperBound(h, OrderingHeuristic::kMinFill, CoverMode::kGreedy);
    Improve(&result, h, std::move(greedy.ghd), greedy.width);
    Record(&result, "greedy-cover", *root);
    span.SetArg("ub", result.upper_bound);
  }

  // Rung 3 (tick-free): randomized multi-restart with exact per-bag covers.
  if (options.heuristic_restarts > 0) {
    GHD_SPAN_VAR(span, "anytime", "rung:multi-restart");
    GHD_BOARD_RUNG("multi-restart");
    GHD_ATTR_SCOPE(rung_attr, "multi-restart");
    GhwUpperBoundResult multi = GhwUpperBoundMultiRestart(
        h, options.heuristic_restarts, options.seed, CoverMode::kExact);
    Improve(&result, h, std::move(multi.ghd), multi.width);
    Record(&result, "multi-restart", *root);
    span.SetArg("ub", result.upper_bound);
  }

  if (result.lower_bound >= result.upper_bound) {
    result.lower_bound = result.upper_bound;
    result.exact = true;
    result.outcome = root->MakeOutcome();
    Record(&result, "closed-by-heuristics", *root);
    return result;
  }

  // Rung 4: subset DP — an independent exact engine for small instances. It
  // yields the exact width but no witness; the B&B below (seeded with
  // stop_at_width) recovers one quickly. A truncated DP returns nullopt and
  // contributes nothing.
  std::optional<int> dp_width;
  if (options.use_subset_dp && h.num_vertices() <= kMaxGhwDpVertices &&
      !root->Stopped()) {
    GHD_SPAN_VAR(span, "anytime", "rung:subset-dp");
    GHD_BOARD_RUNG("subset-dp");
    GHD_ATTR_SCOPE(rung_attr, "subset-dp");
    dp_width = GhwBySubsetDp(h, root);
    if (dp_width.has_value()) {
      span.SetArg("width", *dp_width);
      GHD_CHECK(*dp_width >= result.lower_bound);
      GHD_CHECK(*dp_width <= result.upper_bound);
      result.lower_bound = *dp_width;
      Record(&result, "subset-dp", *root);
    }
  }

  // Rung 5: exact branch-and-bound. Under a finite deadline it gets a slice
  // of the remaining time (chained to the root so cancellation and global
  // tick limits still bite), leaving headroom for the det-k fallback; under
  // pure tick/memory limits the root governor is shared directly.
  if (!root->Stopped()) {
    GHD_SPAN_VAR(span, "anytime", "rung:exact-bnb");
    GHD_BOARD_RUNG("exact-bnb");
    GHD_ATTR_SCOPE(rung_attr, "exact-bnb");
    std::optional<Budget> slice;
    ExactGhwOptions exact_options;
    exact_options.budget = root;
    const double remaining = root->RemainingSeconds();
    if (remaining < std::numeric_limits<double>::infinity()) {
      slice.emplace(0.6 * remaining);
      slice->AttachParent(root);
      exact_options.budget = &*slice;
    }
    exact_options.heuristic_restarts = 0;  // rung 3 already did this
    exact_options.seed = options.seed;
    if (dp_width.has_value()) exact_options.stop_at_width = *dp_width;
    ExactGhwResult exact = ExactGhwComponentwise(h, exact_options);
    result.lower_bound = std::max(result.lower_bound, exact.lower_bound);
    Improve(&result, h, std::move(exact.best_ghd), exact.upper_bound);
    if (exact.exact) result.lower_bound = exact.upper_bound;
    Record(&result, "exact-bnb", *root);
    span.SetArg("lb", result.lower_bound);
    span.SetArg("ub", result.upper_bound);
  }

  // Rung 6: det-k-decomp fallback. Hypertree width is polynomial per k and
  // the paper's inequality ghw <= hw <= 3*ghw + 1 converts it into bounds on
  // both sides: hw itself is an upper bound (every HD is a GHD), and
  // hw > k implies ghw >= ceil(k/3).
  if (options.use_det_k_decomp && result.lower_bound < result.upper_bound &&
      !root->Stopped()) {
    GHD_SPAN_VAR(span, "anytime", "rung:det-k-decomp");
    GHD_BOARD_RUNG("det-k-decomp");
    GHD_ATTR_SCOPE(rung_attr, "det-k-decomp");
    KDeciderOptions kd_options;
    kd_options.budget = root;
    HypertreeWidthResult hw =
        HypertreeWidth(h, /*max_k=*/result.upper_bound, kd_options);
    if (hw.exact) {
      Improve(&result, h, std::move(hw.decomposition), hw.width);
      result.lower_bound =
          std::max(result.lower_bound, (hw.width + 1) / 3);
    } else if (hw.last_failed_k > 0) {
      // hw(H) > last_failed_k was established before truncation.
      result.lower_bound =
          std::max(result.lower_bound, (hw.last_failed_k + 2) / 3);
    }
    result.lower_bound = std::min(result.lower_bound, result.upper_bound);
    Record(&result, "det-k-decomp", *root);
    span.SetArg("lb", result.lower_bound);
    span.SetArg("ub", result.upper_bound);
  }

  GHD_CHECK(result.lower_bound <= result.upper_bound);
  GHD_CHECK(result.witness.Validate(h).ok());
  GHD_CHECK(result.witness.Width() <= result.upper_bound);
  result.exact = result.lower_bound == result.upper_bound;
  result.outcome = root->MakeOutcome();
  result.outcome.complete = result.exact;
  return result;
}

}  // namespace ghd
