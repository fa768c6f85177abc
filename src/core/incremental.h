// Incremental re-decomposition over edge deltas: a versioned solver that
// persists the width-k decider's memo state (core/k_decider.h,
// KLadderContext) across hypergraph mutations instead of re-solving from
// scratch on every ask.
//
// Soundness of memo retention. Let D be a delta, dirty = the union of the
// vertex sets of every removed and inserted edge, and dirty_edges = every
// old edge touching a dirty vertex (removed edges included: their vertices
// are all dirty). A memo entry — positive or negative — is *retained* iff
// its component (a set of old edge ids) is disjoint from dirty_edges, and
// dropped otherwise. Retention is sound because a retained entry's whole
// decision context is unchanged:
//
//  * Component vertices are clean. If a vertex of the component's edges
//    were dirty, the edge containing it would be in dirty_edges.
//  * No guard of its search was removed. A candidate guard g intersects the
//    component's vertex set V(comp); if g were removed, every vertex of g
//    would be dirty, so g ∩ V(comp) ⊆ dirty — contradicting clean V(comp).
//  * No inserted edge becomes a candidate. An inserted edge's vertices are
//    all dirty, so it cannot intersect clean V(comp).
//
// Hence the candidate guard set of a retained state is literally the same
// set of edges (renumbered through the delta's edge_map), the reachable
// child states are the same (children are sub-components of the parent, so
// clean parents have clean children), and both a positive witness and a
// width-k refutation carry over verbatim. Everything else is dropped and
// re-derived on the next ask — invalidation errs toward dropping, never
// toward keeping.
//
// Negative retention requires same-k reuse only (refutations are k-specific)
// which is exactly what KLadderContext::PersistNegatives provides: one
// negative store per exact k, so cross-k poisoning — the invariant the
// decider_memo_poisoned sentinel guards — is structurally impossible.
//
// Two verdict-serving layers sit above the decider. First, a built-in
// version verdict memo keyed by a 128-bit edge-multiset fingerprint: hw is
// invariant under edge permutation over the fixed vertex universe, so a
// stream that returns to a previous version (remove, decide, re-insert,
// decide) is served in microseconds — no canonicalization, no search. The
// root memo state contains every edge and is therefore invalidated by every
// delta, so even a warm re-solve pays a root re-expansion; the fingerprint
// memo is what makes exact repeats cheap. Second, when the dirty region
// exceeds `max_dirty_fraction` of the vertex universe the warm ladder is
// dropped and the next ask boots from scratch — through the canonical-
// fingerprint DecompCache when one is attached, which additionally unifies
// relabeled (isomorphic) versions.
#ifndef GHD_CORE_INCREMENTAL_H_
#define GHD_CORE_INCREMENTAL_H_

#include <memory>
#include <unordered_map>

#include "cache/decomp_cache.h"
#include "core/k_decider.h"
#include "hypergraph/hypergraph.h"
#include "util/resource_governor.h"

namespace ghd {

struct IncrementalOptions {
  /// Rebind threshold: when |dirty vertices| / |vertex universe| exceeds
  /// this, the warm ladder is dropped instead of swept (a mostly-dirty memo
  /// is not worth the sweep, and the full-solve path gets a cache shot).
  double max_dirty_fraction = 0.25;
  /// Optional decomposition cache consulted (and fed) by the cold-path full
  /// solves, serving returns to a previously-seen *isomorphism class*. Exact
  /// version repeats are caught earlier and cheaper by the built-in verdict
  /// memo (no canonicalization); the cache adds cross-labeling reuse and
  /// witness persistence (--cache-file).
  DecompCache* cache = nullptr;
  /// Optional shared governor for the underlying deciders.
  Budget* budget = nullptr;
};

/// Own lifetime totals, independent of the process-global obs counters (the
/// CLI summary and the replay bench read these with counters disarmed).
struct IncrementalStats {
  long deltas_applied = 0;
  long incremental_solves = 0;  // decides served by the rebound warm ladder
  long full_solves = 0;         // decides that ran a from-scratch bootstrap
  long cache_served = 0;        // decides served by the decomposition cache
  long fingerprint_served = 0;  // decides served by the version verdict memo
  long ladder_drops = 0;        // warm ladders dropped (dirty region too big)
  long memo_retained = 0;
  long memo_invalidated = 0;
  long neg_retained = 0;
  long neg_invalidated = 0;
  long sep_retained = 0;
  long sep_invalidated = 0;
};

struct IncrementalDecideResult {
  bool decided = false;
  bool exists = false;
  /// Served by the rebound warm ladder (no bootstrap, no cache).
  bool incremental = false;
  /// Served without running a decider: by the version verdict memo or (cold
  /// path) the decomposition cache.
  bool from_cache = false;
  Outcome outcome;
};

/// Versioned hypergraph + persistent decider state. Apply() advances the
/// version; DecideHw() answers hw(current) <= k, preferring the warm ladder,
/// then the cache, then a bootstrap solve (which warms the ladder for the
/// next delta). Invariant, enforced by the equivalence tests: every verdict
/// equals the from-scratch verdict on the current version.
///
/// Not thread-safe: one solver serves one mutation stream.
class IncrementalSolver {
 public:
  explicit IncrementalSolver(Hypergraph initial,
                             const IncrementalOptions& options = {});
  ~IncrementalSolver();

  IncrementalSolver(const IncrementalSolver&) = delete;
  IncrementalSolver& operator=(const IncrementalSolver&) = delete;

  const Hypergraph& current() const { return current_; }
  long version() const { return stats_.deltas_applied; }
  const IncrementalStats& stats() const { return stats_; }
  /// True while a warm (rebindable) ladder is live (stats/tests).
  bool warm() const { return ladder_ != nullptr; }

  /// Applies the batched delta, producing the next version. Small deltas
  /// sweep the warm ladder's memos (delta-scoped invalidation); large ones
  /// drop it.
  void Apply(const EdgeDelta& delta);

  /// Decides hw(current) <= k. Undecided only when a shared governor
  /// truncated the solve.
  IncrementalDecideResult DecideHw(int k);

 private:
  IncrementalOptions options_;
  // Value members so &current_ / &family_ stay stable across versions: the
  // ladder's identity checks and Rebind both key on these addresses.
  Hypergraph current_;
  GuardFamily family_;
  std::unique_ptr<KLadderContext> ladder_;
  IncrementalStats stats_;
  // Certified verdicts per exact version fingerprint (128-bit hash of the
  // sorted edge-digest multiset; hw is invariant under edge permutation, so
  // a mutation stream that returns to a previous version — remove, decide,
  // re-insert, decide — is served here in microseconds, without the
  // canonicalization a DecompCache lookup costs). yes_k is the smallest k
  // certified YES, no_k the largest certified NO; both monotone facts.
  struct VersionVerdict {
    int yes_k = 0x7fffffff;
    int no_k = 0;
  };
  std::unordered_map<InstanceKey, VersionVerdict, InstanceKeyHash>
      verdict_memo_;
};

}  // namespace ghd

#endif  // GHD_CORE_INCREMENTAL_H_
