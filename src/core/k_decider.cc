#include "core/k_decider.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/cover_index.h"
#include "hypergraph/flat_hypergraph.h"
#include "hypergraph/kernels.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/hash_mix.h"
#include "util/set_interner.h"

namespace ghd {
namespace internal {

// A search state: a set of still-uncovered edges forming one connected block,
// plus the connector vertices shared with the already-built part of the tree.
// Both sets live in the search's interner; the key holds only their ids, so
// memo probes hash and compare two integers instead of two bitsets. The ids
// are borrowed names: the memos and the interner live and die together — in
// the per-call Decider below, or in the LadderState when a KLadderContext
// spans several calls (ids must never outlive the interner that issued them).
struct StateKey {
  uint32_t comp_id;  // interned edge set (universe = num_edges)
  uint32_t conn_id;  // interned vertex set (universe = num_vertices)

  bool operator==(const StateKey& o) const {
    return comp_id == o.comp_id && conn_id == o.conn_id;
  }
};

// splitmix64 over the packed ids. The non-interned fallback for hashing a
// (comp, conn) pair of raw bitsets is HashCombine(comp.Hash(), conn.Hash())
// (util/hash_mix.h) — the old `h1 * 1000003 + h2` combiner left h2's low
// bits nearly intact, which striped the memo's bucket array.
struct StateKeyHash {
  size_t operator()(const StateKey& k) const {
    return static_cast<size_t>(SplitMix64(PackIds(k.comp_id, k.conn_id)));
  }
};

// Memoized decision for a *decomposable* state: the bag, guard choice, and
// child states needed for decomposition reconstruction. Values are immutable
// once inserted. Children are interned ids — 8 bytes per child instead of
// two bitsets. Undecomposable states are remembered key-only in a separate
// negative map: they carry no payload, and unlike positives they must not
// outlive the width they were refuted at.
struct StateValue {
  VertexSet chi;
  std::vector<int> lambda;  // guard indices into the family
  std::vector<StateKey> children;
};

// Plain node-based maps: a search runs on one thread, so nothing is locked.
using PositiveMemo = std::unordered_map<StateKey, StateValue, StateKeyHash>;
using NegativeMemo = std::unordered_set<StateKey, StateKeyHash>;  // key-only

// Negative search state persisted across same-k calls when a KLadderContext
// arms PersistNegatives: the key-only refutation memo plus the
// negative-separator cache. Refutations are k-specific, so a context keeps
// one store per exact k and a call only ever touches its own k's store —
// the segregation that keeps cross-k poisoning structurally impossible.
struct NegativeStore {
  NegativeMemo memo;
  NegSeparatorCache cache;
};

// The cross-call share of a k-ladder (see KLadderContext in the header): the
// interner that issues every state id, the cover-candidate index, and the
// monotone positive memo. Built once per (h, family), reused by every rung.
// Rebind (incremental re-decomposition) re-points h/flat/family at the next
// version and rebuilds the index; the interner is append-only, so ids issued
// for the old edge universe simply linger as unreferenced garbage.
struct LadderState {
  LadderState(const Hypergraph& h_in, const GuardFamily& family_in)
      : h(&h_in),
        flat(&h_in.Flat()),
        family(&family_in),
        index(std::make_unique<CoverIndex>(h_in, family_in)) {}

  const Hypergraph* h;
  const FlatHypergraph* flat;  // h's CSR/bitset-matrix view, shared by rungs
  const GuardFamily* family;
  SetInterner interner;
  std::unique_ptr<CoverIndex> index;  // rebuilt on Rebind
  PositiveMemo positive;
  int max_k = 0;  // largest k decided so far; enforces nondecreasing rungs
  // Per-exact-k negative stores; empty (and unused) until PersistNegatives.
  bool persist_negatives = false;
  std::map<int, std::unique_ptr<NegativeStore>> negatives;
};

}  // namespace internal

namespace {

using internal::LadderState;
using internal::NegativeMemo;
using internal::NegativeStore;
using internal::PositiveMemo;
using internal::StateKey;
using internal::StateValue;

struct Decider {
  const Hypergraph* h;
  const FlatHypergraph* flat;
  const GuardFamily* family;
  const CoverIndex* index;
  int k;
  ghd::Budget* budget = nullptr;  // shared governor, never null once running

  long states = 0;
  // The interner owns every component/connector/separator set of the search;
  // both memos and the negative-separator cache key by its ids. Interner and
  // positive memo live in the LadderState (per-call or shared across a
  // k-ladder — they are torn down together, which is what makes the borrowed
  // ids safe). The negative memo and the separator cache default to per-call
  // scratch instances, since a refutation at width k says nothing at width
  // k+1; a context with PersistNegatives armed points them at the
  // LadderState's store for this exact k instead.
  SetInterner* interner = nullptr;
  PositiveMemo* pos_memo = nullptr;
  NegativeMemo* neg_memo = nullptr;
  NegSeparatorCache* neg_cache = nullptr;

  bool Tick() {
    ++states;
    GHD_COUNT(kDeciderStates);
    // Occupancy publishes for the live board, amortized to every 1024th
    // state; GHD_BOARD_LAZY skips them entirely while no board is armed.
    if ((states & 1023) == 0) {
      GHD_BOARD_LAZY(kMemoStates, pos_memo->size() + neg_memo->size());
      GHD_BOARD_LAZY(kInternerSets, interner->Size());
    }
    return budget->Tick();
  }

  bool OutOfBudget() const { return budget->Stopped(); }

  // Interns `s`, charging the canonical copy against the memory budget on
  // first sight.
  uint32_t InternCharged(const VertexSet& s) {
    bool inserted = false;
    const uint32_t id = interner->Intern(s, &inserted);
    if (inserted) budget->Charge(ApproxBytes(s));
    return id;
  }

  StateKey MakeKey(const VertexSet& comp, const VertexSet& conn) {
    return StateKey{InternCharged(comp), InternCharged(conn)};
  }

  // Splits `edges_left` into connected blocks, treating vertices in `chi` as
  // removed: two edges are connected when they share a vertex outside chi.
  // Batched BFS over the flat CSR incidence arrays (hypergraph/kernels.h):
  // expanding an edge streams the incidence_bits rows of its open vertices,
  // no per-edge rescans and no per-step VertexSet allocation.
  std::vector<VertexSet> SplitComponents(const VertexSet& edges_left,
                                         const VertexSet& chi) const {
    return kernels::FlatSplitComponents(*flat, edges_left, chi);
  }

  VertexSet VerticesOf(const VertexSet& comp) const {
    return kernels::FlatVerticesOf(*flat, comp);
  }

  // Evaluates one complete guard choice; fills `value` and returns true on
  // success. Child components are decided in order, stopping at the first
  // failure. Failed (component, chi) pairs land in the negative-separator
  // cache — distinct guard subsets unioning to the same chi then fail without
  // re-splitting — but only when the failure is proven (truncated failures
  // are never cached, the same soundness rule the memo follows).
  bool TryLambda(const StateKey& key, const VertexSet& comp,
                 const VertexSet& conn, const VertexSet& v_comp,
                 const std::vector<int>& lambda, int depth,
                 StateValue* value) {
    GHD_COUNT(kDeciderLambdaTried);
    VertexSet chi(h->num_vertices());
    for (int g : lambda) chi |= family->guards[g];
    chi &= v_comp;
    if (!conn.IsSubsetOf(chi)) return false;
    const uint32_t chi_id = InternCharged(chi);
    const uint64_t neg_key = NegSeparatorCache::Key(key.comp_id, chi_id);
    if (neg_cache->Contains(neg_key)) {
      GHD_COUNT(kSeparatorNegHits);
      return false;
    }
    auto fail_proven = [&] {
      GHD_COUNT(kSeparatorNegInserts);
      neg_cache->Insert(neg_key);
      return false;
    };
    // Edges of the component fully inside chi are covered here. Subset tests
    // read the flat edge_bits rows — contiguous strip, one IsSubset kernel
    // call per member edge.
    VertexSet rem = comp;
    bool covered_any = false;
    const BitMatrix& edge_bits = flat->edge_bits();
    comp.ForEach([&](int e) {
      if (kernels::IsSubset(edge_bits.row(e), chi.word_data(),
                            chi.word_count())) {
        rem.Reset(e);
        covered_any = true;
      }
    });
    std::vector<VertexSet> parts = SplitComponents(rem, chi);
    // Progress rule: every child block must be strictly smaller than the
    // current component; otherwise this guard choice loops.
    if (!covered_any && parts.size() == 1 && parts[0] == comp) {
      return fail_proven();
    }
    std::vector<StateKey> children;
    children.reserve(parts.size());
    for (VertexSet& part : parts) {
      VertexSet child_conn = VerticesOf(part);
      child_conn &= chi;
      children.push_back(MakeKey(part, child_conn));
    }
    for (const StateKey& child : children) {
      if (!Decide(child, depth + 1)) {
        // A child refutation is a proven failure of (comp, chi) only when no
        // truncation is in flight; otherwise the child may merely have been
        // cut short.
        if (!OutOfBudget()) fail_proven();
        return false;
      }
      if (OutOfBudget()) return false;
    }
    value->chi = std::move(chi);
    value->lambda = lambda;
    value->children = std::move(children);
    return true;
  }

  // Enumerates guard subsets of size <= k over `candidates`, evaluating each
  // complete connector-covering choice; returns true on first success.
  // `suffix_cover` row i is the union of guards[candidates[i..]]: a branch
  // whose remaining connector is not inside the suffix union can never
  // complete a cover, so the whole subtree is pruned with one subset test
  // against the contiguous matrix row.
  bool EnumerateLambda(const StateKey& key, const VertexSet& comp,
                       const VertexSet& conn, const VertexSet& v_comp,
                       const std::vector<int>& candidates,
                       const BitMatrix& suffix_cover, size_t from,
                       std::vector<int>* lambda, const VertexSet& conn_left,
                       int depth, StateValue* value) {
    if (!kernels::IsSubset(conn_left.word_data(),
                           suffix_cover.row(static_cast<int>(from)),
                           conn_left.word_count())) {
      return false;
    }
    if (!Tick()) return false;  // Bound the subset enumeration itself.
    if (!lambda->empty() && conn_left.Empty()) {
      if (TryLambda(key, comp, conn, v_comp, *lambda, depth, value)) {
        return true;
      }
      if (OutOfBudget()) return false;
    }
    if (static_cast<int>(lambda->size()) == k) return false;
    for (size_t i = from; i < candidates.size(); ++i) {
      const int g = candidates[i];
      lambda->push_back(g);
      VertexSet next_conn = conn_left;
      next_conn -= family->guards[g];
      if (EnumerateLambda(key, comp, conn, v_comp, candidates, suffix_cover,
                          i + 1, lambda, next_conn, depth, value)) {
        return true;
      }
      lambda->pop_back();
      if (OutOfBudget()) return false;
    }
    return false;
  }

  bool Decide(const StateKey& key, int depth) {
    // Positive memo first: a decomposable state stays decomposable at any
    // larger width, so a hit is valid whether the entry came from this call
    // or from an earlier rung of a shared k-ladder. Negative entries come
    // from this call or (persistent-negatives mode) an earlier call at the
    // *same* k, so a hit there is a width-k refutation by construction.
    if (pos_memo->count(key) != 0) {
      GHD_COUNT(kDeciderMemoHits);
      return true;
    }
    if (neg_memo->count(key) != 0) {
      GHD_COUNT(kDeciderMemoHits);
      return false;
    }
    GHD_COUNT(kDeciderMemoMisses);
    if (!Tick()) return false;
    GHD_BOARD_SET(kFrontierDepth, depth);

    const VertexSet& comp = interner->Resolve(key.comp_id);
    const VertexSet& conn = interner->Resolve(key.conn_id);
    const VertexSet v_comp = VerticesOf(comp);
    // Candidate guards from the index: only guards touching the component
    // can contribute to chi, connector-covering ones first.
    std::vector<int> candidates;
    index->CandidatesFor(v_comp, conn, &candidates);
    // Suffix cover unions for the futility prune in EnumerateLambda, one
    // matrix row per suffix: row i = row i+1 | guard_bits[candidates[i]],
    // built back to front with whole-row kernel ops. One O(|candidates|)
    // pass here saves whole subset subtrees per state.
    const BitMatrix& guard_bits = index->guard_bits();
    BitMatrix suffix_cover(static_cast<int>(candidates.size()) + 1,
                           h->num_vertices());
    const int stride = suffix_cover.stride_words();
    for (size_t i = candidates.size(); i-- > 0;) {
      const int row = static_cast<int>(i);
      std::memcpy(suffix_cover.row(row), suffix_cover.row(row + 1),
                  sizeof(uint64_t) * stride);
      kernels::OrInto(suffix_cover.row(row), guard_bits.row(candidates[i]),
                      guard_bits.logical_words());
    }
    StateValue value;
    std::vector<int> lambda;
    if (EnumerateLambda(key, comp, conn, v_comp, candidates, suffix_cover, 0,
                        &lambda, conn, depth, &value)) {
      // Successes are complete witnesses regardless of budget state:
      // memoize unconditionally, so every true child a parent references is
      // resident for reconstruction.
      MemoizeTrue(key, std::move(value));
      return true;
    }
    // A false under an exhausted budget may be a truncated search, not a
    // refutation: never cache it. This is the library-wide
    // cache rule (see util/resource_governor.h): a truncated run must never
    // poison a memo entry with an unproven refutation. The truncation test
    // runs exactly once so that the discard decision and the soundness
    // accounting in MemoizeFalse see the same answer.
    const bool truncated = OutOfBudget();
    if (truncated) {
      GHD_COUNT(kDeciderUnprovenFalse);
      return false;
    }
    MemoizeFalse(key, truncated);
    return false;
  }

  // Inserts a positive witness into the (possibly cross-rung) memo,
  // accounting its approximate footprint against the memory budget (the chi
  // bitset dominates; key and children are interned ids, and the canonical
  // component/connector copies were charged when they entered the interner).
  void MemoizeTrue(const StateKey& key, StateValue value) {
    GHD_COUNT(kDeciderMemoInserts);
    const size_t bytes = sizeof(StateKey) + sizeof(StateValue) +
                         ApproxBytes(value.chi) +
                         value.lambda.size() * sizeof(int) +
                         value.children.size() * sizeof(StateKey);
    budget->Charge(bytes);
    pos_memo->emplace(key, std::move(value));
  }

  // Records a proven width-k refutation in the (per-call or per-exact-k
  // persistent) negative map. A
  // negative under truncation is refused outright — that would cache an
  // unproven refutation; the refusal counter is the observable invariant
  // (decider_memo_poisoned stays 0 as long as every caller discards
  // truncated negatives before reaching here).
  void MemoizeFalse(const StateKey& key, bool truncated) {
    if (truncated) {
      GHD_COUNT(kDeciderMemoPoisoned);
      return;
    }
    GHD_COUNT(kDeciderMemoInserts);
    budget->Charge(sizeof(StateKey) + 1);
    neg_memo->insert(key);
  }

  static size_t ApproxBytes(const VertexSet& s) {
    return static_cast<size_t>((s.universe_size() + 63) / 64) * 8;
  }

  // Rebuilds the decomposition tree for a successful root state; returns the
  // index of the subtree root in `out`.
  int Reconstruct(const StateKey& key,
                  GeneralizedHypertreeDecomposition* out) {
    const auto it = pos_memo->find(key);
    GHD_CHECK(it != pos_memo->end());
    const StateValue* value = &it->second;
    const int node = out->num_nodes();
    out->bags.push_back(value->chi);
    std::vector<int> edge_ids;
    for (int g : value->lambda) {
      const int parent = family->parent_edge[g];
      if (parent >= 0 && std::find(edge_ids.begin(), edge_ids.end(), parent) ==
                             edge_ids.end()) {
        edge_ids.push_back(parent);
      }
    }
    out->guards.push_back(std::move(edge_ids));
    for (const StateKey& child : value->children) {
      const int child_node = Reconstruct(child, out);
      out->tree_edges.emplace_back(node, child_node);
    }
    return node;
  }
};

}  // namespace

GuardFamily OriginalEdgesFamily(const Hypergraph& h) {
  GuardFamily family;
  family.guards = h.edges();
  family.parent_edge.resize(h.num_edges());
  for (int e = 0; e < h.num_edges(); ++e) family.parent_edge[e] = e;
  return family;
}

KLadderContext::KLadderContext(const Hypergraph& h, const GuardFamily& family,
                               int /*num_threads*/)
    : state_(std::make_unique<internal::LadderState>(h, family)) {}

KLadderContext::~KLadderContext() = default;

size_t KLadderContext::interned_sets() const {
  return state_->interner.Size();
}

size_t KLadderContext::positive_states() const {
  return state_->positive.size();
}

int KLadderContext::max_k() const { return state_->max_k; }

size_t KLadderContext::negative_states() const {
  size_t total = 0;
  for (const auto& [k, store] : state_->negatives) total += store->memo.size();
  return total;
}

void KLadderContext::PersistNegatives() {
  state_->persist_negatives = true;
}

RebindStats KLadderContext::Rebind(const Hypergraph& new_h,
                                   const GuardFamily& new_family,
                                   const VertexSet& dirty_edges,
                                   const std::vector<int>& edge_map) {
  internal::LadderState* s = state_.get();
  GHD_CHECK(new_h.num_vertices() == s->h->num_vertices());
  GHD_CHECK(new_family.size() == new_h.num_edges());
  // Only the original-edges family shape is rebindable: edge_map renumbers
  // edge ids, and retained lambdas/guard ids are reinterpreted through it.
  for (int g = 0; g < new_family.size(); ++g) {
    GHD_CHECK(new_family.parent_edge[g] == g);
  }
  RebindStats stats;

  // Component remap, memoized per interned id: clean components (disjoint
  // from dirty_edges) renumber through edge_map into the new edge universe
  // and re-intern; dirty ones map to the tombstone and drop every entry that
  // references them. A clean component's edges all survive (removed edges
  // are in dirty_edges by construction), so every edge_map read is >= 0.
  constexpr uint32_t kDirty = 0xffffffffu;
  std::unordered_map<uint32_t, uint32_t> comp_remap;
  const int new_m = new_h.num_edges();
  auto remap_comp = [&](uint32_t comp_id) -> uint32_t {
    auto it = comp_remap.find(comp_id);
    if (it != comp_remap.end()) return it->second;
    const VertexSet& comp = s->interner.Resolve(comp_id);
    uint32_t mapped = kDirty;
    if (comp.universe_size() == dirty_edges.universe_size() &&
        !comp.Intersects(dirty_edges)) {
      VertexSet renum(new_m);
      bool ok = true;
      comp.ForEach([&](int e) {
        const int ne = edge_map[e];
        if (ne < 0) {
          ok = false;
        } else {
          renum.Set(ne);
        }
      });
      if (ok) mapped = s->interner.Intern(renum);
    }
    comp_remap.emplace(comp_id, mapped);
    return mapped;
  };

  // Positive sweep: rebuild the memo keeping only entries whose component
  // (and, transitively, every child component — children are sub-components
  // of the parent, so a clean parent has clean children) survives. chi and
  // the connector live in the unchanged vertex universe; lambda guard ids
  // renumber through edge_map (guard id == edge id for original-edges
  // families). A retained entry's guards are never removed edges: a guard
  // intersects the component's vertices, and a removed edge's vertices are
  // all dirty, which would have dirtied the component.
  PositiveMemo fresh_pos;
  for (const auto& [key, value] : s->positive) {
    const uint32_t comp = remap_comp(key.comp_id);
    if (comp == kDirty) {
      ++stats.pos_dropped;
      continue;
    }
    StateValue moved;
    moved.chi = value.chi;
    moved.lambda.reserve(value.lambda.size());
    bool ok = true;
    for (int g : value.lambda) {
      const int ng = edge_map[g];
      if (ng < 0) {
        ok = false;
        break;
      }
      moved.lambda.push_back(ng);
    }
    if (ok) {
      moved.children.reserve(value.children.size());
      for (const StateKey& child : value.children) {
        const uint32_t child_comp = remap_comp(child.comp_id);
        if (child_comp == kDirty) {
          ok = false;
          break;
        }
        moved.children.push_back(StateKey{child_comp, child.conn_id});
      }
    }
    if (!ok) {
      ++stats.pos_dropped;
      continue;
    }
    fresh_pos.emplace(StateKey{comp, key.conn_id}, std::move(moved));
    ++stats.pos_retained;
  }
  s->positive = std::move(fresh_pos);

  // Negative sweep, per exact-k store: same retention test. A retained
  // refutation stands because its candidate guard set is literally the same
  // family subset — removed guards would have dirtied the component, and
  // inserted edges have all-dirty vertices so they never touch a retained
  // component's vertices.
  for (auto& [k, store] : s->negatives) {
    auto fresh = std::make_unique<NegativeStore>();
    for (const StateKey& key : store->memo) {
      const uint32_t comp = remap_comp(key.comp_id);
      if (comp == kDirty) {
        ++stats.neg_dropped;
        continue;
      }
      fresh->memo.insert(StateKey{comp, key.conn_id});
      ++stats.neg_retained;
    }
    store->cache.ForEachKey([&](uint64_t packed) {
      uint32_t comp_id = 0, chi_id = 0;
      NegSeparatorCache::Unpack(packed, &comp_id, &chi_id);
      const uint32_t comp = remap_comp(comp_id);
      if (comp == kDirty) {
        ++stats.sep_dropped;
        return;
      }
      fresh->cache.Insert(NegSeparatorCache::Key(comp, chi_id));
      ++stats.sep_retained;
    });
    store = std::move(fresh);
  }

  s->h = &new_h;
  s->flat = &new_h.Flat();
  s->family = &new_family;
  s->index = std::make_unique<CoverIndex>(new_h, new_family);
  return stats;
}

KDeciderResult DecideWidthK(const Hypergraph& h, const GuardFamily& family,
                            int k, const KDeciderOptions& options,
                            KLadderContext* ladder) {
  GHD_CHECK(k >= 1);
  const bool has_parents = family.HasParents();
  for (int g = 0; g < family.size(); ++g) {
    GHD_CHECK(family.parent_edge[g] < h.num_edges());
    if (family.parent_edge[g] >= 0) {
      GHD_CHECK(family.guards[g].IsSubsetOf(h.edge(family.parent_edge[g])));
    }
  }
  KDeciderResult result;
  result.guards_valid = has_parents;
  if (h.num_edges() == 0) {
    result.decided = true;
    result.exists = true;
    result.decomposition.bags.push_back(VertexSet(h.num_vertices()));
    result.decomposition.guards.push_back({});
    return result;
  }

  // Private budget from the legacy state_budget knob unless the caller
  // shares a governor.
  Budget local_budget;
  Budget* budget = options.budget;
  if (budget == nullptr) {
    local_budget.SetTickBudget(options.state_budget);
    budget = &local_budget;
  }

  // The interner, cover index, and positive memo live in a LadderState:
  // either the caller's KLadderContext (reused and extended across a whole
  // nondecreasing-k ladder) or a private one scoped to this call. Both paths
  // run the identical engine; only the lifetime of the shared half differs.
  std::unique_ptr<LadderState> local_state;
  LadderState* state;
  if (ladder != nullptr) {
    state = ladder->state_.get();
    // The ids in the carried-over memo name sets of *this* instance and
    // family; positive carry is monotone only for nondecreasing k.
    GHD_CHECK(state->h == &h && state->family == &family);
    GHD_CHECK(k >= state->max_k);
    state->max_k = k;
  } else {
    local_state = std::make_unique<LadderState>(h, family);
    state = local_state.get();
  }

  Decider decider;
  decider.h = &h;
  decider.flat = state->flat;
  decider.family = &family;
  decider.index = state->index.get();
  decider.interner = &state->interner;
  decider.pos_memo = &state->positive;
  decider.k = k;
  decider.budget = budget;

  // Negative state: per-call scratch by default (a refutation at width k
  // says nothing at width k+1, and the next call usually has a different k).
  // A ladder with persistent negatives armed shares the store for exactly
  // this k across calls — the incremental solver's repeated same-k asks.
  NegativeMemo local_neg;
  NegSeparatorCache local_sep;
  decider.neg_memo = &local_neg;
  decider.neg_cache = &local_sep;
  if (state->persist_negatives) {
    std::unique_ptr<NegativeStore>& store = state->negatives[k];
    if (store == nullptr) store = std::make_unique<NegativeStore>();
    decider.neg_memo = &store->memo;
    decider.neg_cache = &store->cache;
  }

  // Root components of all edges with an empty separator.
  std::vector<VertexSet> roots =
      decider.SplitComponents(VertexSet::Full(h.num_edges()),
                              VertexSet(h.num_vertices()));
  GHD_GAUGE_MAX(kMaxGuardFamily, family.size());
  GHD_BOARD_SET(kWidthK, k);
  GHD_BOARD_SET(kGuardFamily, family.size());
  std::vector<StateKey> root_keys;
  bool all_ok = true;
  for (VertexSet& comp : roots) {
    const StateKey key = decider.MakeKey(comp, VertexSet(h.num_vertices()));
    GHD_SPAN_VAR(span, "decider", "decide-component");
    span.SetArg("k", k);
    span.SetArg("edges", comp.Count());
    if (!decider.Decide(key, 0)) {
      all_ok = false;
      break;
    }
    root_keys.push_back(key);
  }
  result.states_visited = decider.states;
  result.outcome = budget->MakeOutcome();
  result.outcome.ticks = result.states_visited;
  // A complete positive witness stands even when the budget fired during the
  // search: truncation may delay an answer, never flip one. Only a failure
  // under an exhausted budget is unresolved.
  if (!all_ok && decider.OutOfBudget()) {
    result.decided = false;
    return result;
  }
  result.decided = true;
  result.exists = all_ok;
  if (all_ok) {
    int previous_root = -1;
    for (const StateKey& key : root_keys) {
      const int node = decider.Reconstruct(key, &result.decomposition);
      if (previous_root >= 0) {
        result.decomposition.tree_edges.emplace_back(previous_root, node);
      }
      previous_root = node;
    }
    if (has_parents) {
      GHD_CHECK(result.decomposition.Width() <= k);
      GHD_CHECK(result.decomposition.Validate(h).ok());
    }
  }
  return result;
}

}  // namespace ghd
