#include "core/incremental.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "cache/cached_solver.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/hash_mix.h"

namespace ghd {
namespace {

// 128-bit fingerprint of the exact version: two independently seeded hashes
// over the *sorted* per-edge digests, so the key is invariant under edge
// permutation (the only way ApplyEdgeDelta reshuffles a restored edge
// multiset) but distinguishes everything else. Same collision model as the
// canonical InstanceKey: a false verdict requires a 128-bit collision.
InstanceKey VersionFingerprint(const Hypergraph& h) {
  std::vector<uint64_t> digests;
  digests.reserve(h.num_edges());
  for (int e = 0; e < h.num_edges(); ++e) {
    uint64_t d = 0x9ae16a3b2f90404full;
    h.edge(e).ForEach(
        [&](int v) { d = HashCombine(d, static_cast<uint64_t>(v)); });
    digests.push_back(d);
  }
  std::sort(digests.begin(), digests.end());
  InstanceKey key;
  key.hi = HashCombine(0x8f14e45fceea167aull,
                       static_cast<uint64_t>(h.num_vertices()));
  key.lo = HashCombine(0x243f6a8885a308d3ull,
                       static_cast<uint64_t>(h.num_vertices()));
  for (uint64_t d : digests) {
    key.hi = HashCombine(key.hi, d);
    key.lo = HashCombine(key.lo, SplitMix64(d ^ 0x452821e638d01377ull));
  }
  return key;
}

}  // namespace

IncrementalSolver::IncrementalSolver(Hypergraph initial,
                                     const IncrementalOptions& options)
    : options_(options), current_(std::move(initial)) {}

IncrementalSolver::~IncrementalSolver() = default;

void IncrementalSolver::Apply(const EdgeDelta& delta) {
  EdgeDeltaResult r = ApplyEdgeDelta(current_, delta);
  ++stats_.deltas_applied;
  GHD_COUNT(kIncrDeltasApplied);
  GHD_BOARD_SET(kIncrVersion, stats_.deltas_applied);

  const int n = current_.num_vertices();
  const double dirty_fraction =
      n > 0 ? static_cast<double>(r.dirty_vertices.Count()) / n : 0.0;
  if (ladder_ == nullptr || dirty_fraction > options_.max_dirty_fraction) {
    if (ladder_ != nullptr) {
      ++stats_.ladder_drops;
      ladder_.reset();
    }
    current_ = std::move(r.next);
    return;
  }

  // Delta-scoped invalidation. The dirty edge set is computed against the
  // *old* version (the universe the memoized component ids name): every old
  // edge touching a dirty vertex — which covers every removed edge, since a
  // removed edge's vertices are all dirty by construction.
  VertexSet dirty_edges = current_.EdgesIntersecting(r.dirty_vertices);
  for (int e : delta.removed_edges) dirty_edges.Set(e);

  current_ = std::move(r.next);
  family_ = OriginalEdgesFamily(current_);
  const RebindStats rs =
      ladder_->Rebind(current_, family_, dirty_edges, r.edge_map);
  stats_.memo_retained += static_cast<long>(rs.pos_retained);
  stats_.memo_invalidated += static_cast<long>(rs.pos_dropped);
  stats_.neg_retained += static_cast<long>(rs.neg_retained);
  stats_.neg_invalidated += static_cast<long>(rs.neg_dropped);
  stats_.sep_retained += static_cast<long>(rs.sep_retained);
  stats_.sep_invalidated += static_cast<long>(rs.sep_dropped);
  GHD_COUNT_N(kIncrMemoRetained, static_cast<long>(rs.pos_retained));
  GHD_COUNT_N(kIncrMemoInvalidated, static_cast<long>(rs.pos_dropped));
  GHD_COUNT_N(kIncrNegRetained, static_cast<long>(rs.neg_retained));
  GHD_COUNT_N(kIncrNegInvalidated, static_cast<long>(rs.neg_dropped));
  GHD_COUNT_N(kIncrSepRetained, static_cast<long>(rs.sep_retained));
  GHD_COUNT_N(kIncrSepInvalidated, static_cast<long>(rs.sep_dropped));
  GHD_BOARD_SET(kIncrRetained,
                static_cast<long>(rs.pos_retained + rs.neg_retained));
}

IncrementalDecideResult IncrementalSolver::DecideHw(int k) {
  GHD_CHECK(k >= 1);
  IncrementalDecideResult out;
  KDeciderOptions dopts;
  dopts.budget = options_.budget;

  // Layer 1: the version verdict memo. Exact repeats (remove, decide,
  // re-insert, decide — the dominant mutation-stream shape) are served here
  // for the cost of hashing the edge multiset, with no canonicalization and
  // no search. Every certified verdict below records into it.
  const InstanceKey fp = VersionFingerprint(current_);
  auto memo_it = verdict_memo_.find(fp);
  if (memo_it != verdict_memo_.end()) {
    const VersionVerdict& v = memo_it->second;
    if (k >= v.yes_k || k <= v.no_k) {
      out.decided = true;
      out.exists = k >= v.yes_k;
      out.from_cache = true;
      ++stats_.fingerprint_served;
      GHD_COUNT(kIncrFingerprintServed);
      return out;
    }
  }
  auto record_verdict = [&](bool exists) {
    VersionVerdict& v = verdict_memo_[fp];
    if (exists) {
      v.yes_k = std::min(v.yes_k, k);
    } else {
      v.no_k = std::max(v.no_k, k);
    }
  };

  // Layer 2, warm path: the rebound ladder answers — retained positives and
  // same-k negatives short-circuit everything outside the dirty region. A
  // smaller k than an earlier rung would make positive carry unsound, so
  // such asks (rare: a shrinking-k stream) drop the ladder and bootstrap.
  if (ladder_ != nullptr && k >= ladder_->max_k()) {
    const KDeciderResult r = DecideWidthK(current_, family_, k, dopts,
                                          ladder_.get());
    out.outcome = r.outcome;
    if (r.decided) {
      out.decided = true;
      out.exists = r.exists;
      out.incremental = true;
      ++stats_.incremental_solves;
      GHD_COUNT(kIncrIncrementalSolves);
      record_verdict(r.exists);
    }
    // Truncated (shared governor fired): report undecided rather than
    // burning the remaining budget on a from-scratch retry.
    return out;
  }
  if (ladder_ != nullptr) {
    ++stats_.ladder_drops;
    ladder_.reset();
  }

  // Layer 3, cold with a cache attached: try the canonical fingerprint — it
  // also unifies relabeled (isomorphic) versions the exact-version memo
  // cannot. The ladder stays cold on a hit: warming it costs a solve, and
  // the next ask may hit a cache again.
  std::unique_ptr<PreparedInstance> prepared;
  if (options_.cache != nullptr) {
    prepared = std::make_unique<PreparedInstance>(PrepareInstance(current_));
    CacheEntry entry;
    if (options_.cache->Lookup(prepared->key(), &entry)) {
      if (entry.hw_ub >= 0 && entry.hw_ub <= k) {
        GeneralizedHypertreeDecomposition witness;
        if (RehydrateWitness(*prepared, entry.hw_witness, &witness)) {
          out.decided = true;
          out.exists = true;
          out.from_cache = true;
          ++stats_.cache_served;
          GHD_COUNT(kIncrCacheServed);
          record_verdict(true);
          return out;
        }
      }
      if (entry.hw_lb > k) {
        out.decided = true;
        out.exists = false;
        out.from_cache = true;
        ++stats_.cache_served;
        GHD_COUNT(kIncrCacheServed);
        record_verdict(false);
        return out;
      }
    }
  }

  // Layer 4, bootstrap: fresh ladder over the current version, persistent
  // negatives armed so refutations survive future same-k asks and rebinds.
  // The solve runs in concrete space (not canonical) so the warm ladder's
  // memo ids line up with future deltas; certified facts are dehydrated
  // into canonical space for the cache afterwards.
  family_ = OriginalEdgesFamily(current_);
  ladder_ = std::make_unique<KLadderContext>(current_, family_);
  ladder_->PersistNegatives();
  const KDeciderResult r = DecideWidthK(current_, family_, k, dopts,
                                        ladder_.get());
  ++stats_.full_solves;
  GHD_COUNT(kIncrFullSolves);
  out.outcome = r.outcome;
  if (!r.decided) return out;  // keep the (partial but sound) warm state
  out.decided = true;
  out.exists = r.exists;
  record_verdict(r.exists);
  if (prepared != nullptr) {
    CacheEntry learned;
    learned.hw_lb = current_.num_edges() > 0 ? 1 : 0;
    if (r.exists) {
      FlatDecomposition flat;
      if (DehydrateWitness(*prepared, r.decomposition, &flat)) {
        learned.hw_ub = r.decomposition.Width();
        learned.hw_witness = std::move(flat);
      }
    } else {
      learned.hw_lb = k + 1;
    }
    if (learned.hw_lb > 1 || learned.hw_ub >= 0) {
      options_.cache->Merge(prepared->key(), learned);
    }
  }
  return out;
}

}  // namespace ghd
