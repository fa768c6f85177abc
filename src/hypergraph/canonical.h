// Canonical instance fingerprinting: an isomorphism-invariant 128-bit
// identity for a hypergraph plus the vertex/edge relabeling that realizes it.
//
// The serving story (ROADMAP item 1) is that real decomposition traffic is
// dominated by repeats — the same query shape re-asked under fresh variable
// names. Since ghw(H) <= k is NP-hard already for k = 2 (Gottlob-Miklos-
// Schwentick; Fischl-Gottlob-Pichler), amortizing one expensive solve across
// every isomorphic re-ask is the largest constant-factor win available, and
// it needs exactly one primitive: a canonical form. Two hypergraphs get the
// same InstanceKey iff (modulo 128-bit hash collisions) they are isomorphic
// as vertex/edge-labeled structures, and the permutations returned alongside
// the key map any cached decomposition of the canonical instance back onto
// the concrete one (cache/decomp_cache.h does that rehydration).
//
// Algorithm: iterative color refinement (1-WL) on the bipartite incidence
// structure — vertex colors refined by the multiset of incident edge colors,
// edge colors by the multiset of member vertex colors — seeded with a
// degree/arity/intersection profile and run over the FlatHypergraph CSR
// arrays (the intersection profile uses the batched AndPopcountRows kernel).
// When refinement stabilizes with non-singleton cells, the standard
// individualization-refinement search distinguishes one vertex of a
// canonically chosen cell per branch and takes the lexicographically
// smallest discrete leaf; cells of mutual twins (identical incidence rows)
// never branch — their members are interchangeable by an automorphism.
// Two leaves with equal encodings prove an automorphism of h; every node
// skips the children that lie in the orbit of an explored sibling under the
// proven automorphisms fixing its individualized prefix, and a leaf whose
// automorphism maps an explored sibling's subtree onto the current one
// unwinds the search to their divergence depth (McKay-Piperno). Both prune
// only automorphic images of explored subtrees, so the minimum leaf — the
// key — is the one the exhaustive search would find; what they save is the
// factorial tree of cliques, stars and other highly symmetric instances.
//
// The search is budgeted: past `max_nodes` refinement nodes the remaining
// branches collapse to a greedy first-candidate descent and the result is
// marked non-canonical (`canonical = false`). A non-canonical key is still
// deterministic for byte-identical re-asks — it just stops being invariant
// under relabeling, so the cache degrades to exact-repeat matching instead
// of returning wrong answers.
#ifndef GHD_HYPERGRAPH_CANONICAL_H_
#define GHD_HYPERGRAPH_CANONICAL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "util/hash_mix.h"

namespace ghd {

/// 128-bit instance identity: two independently seeded hashes of the
/// canonical encoding. Equality of keys is the cache's notion of "same
/// instance"; a collision between non-isomorphic instances requires a
/// 128-bit hash collision (witness rehydration additionally re-validates
/// against the concrete instance, so a collision can mis-serve a verdict but
/// never an invalid decomposition).
struct InstanceKey {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const InstanceKey& o) const {
    return hi == o.hi && lo == o.lo;
  }
  bool operator!=(const InstanceKey& o) const { return !(*this == o); }
  bool operator<(const InstanceKey& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }

  /// 32 lowercase hex digits, hi then lo — the log/manifest rendering.
  std::string ToHex() const;
};

struct InstanceKeyHash {
  size_t operator()(const InstanceKey& k) const {
    return static_cast<size_t>(HashCombine(k.hi, k.lo));
  }
};

struct CanonicalizeOptions {
  /// Individualization-refinement node budget. Past it the search finishes
  /// greedily and the result is marked non-canonical. The default covers
  /// every suite family with room to spare: with orbit pruning at every
  /// level the most symmetric ones stay in the tens to low hundreds of nodes
  /// (cycles ~6, K8 44, the 12-arm star and 10-gadget bridge 78, a 20-arm
  /// star 210). Only a tree whose branches are many and not automorphic
  /// images of each other can approach the budget.
  long max_nodes = 4096;
  /// Skip the O(m^2) pairwise intersection profile above this edge count
  /// (refinement alone recovers the distinctions in a round or two).
  int max_profile_edges = 2048;
};

/// The canonical form: key + the relabeling that produced it.
struct CanonicalFormResult {
  InstanceKey key;
  /// Original vertex id -> canonical vertex id (a permutation of
  /// {0, ..., num_vertices-1}).
  std::vector<int> vertex_perm;
  /// Original edge id -> canonical edge id.
  std::vector<int> edge_perm;
  /// True when the key is isomorphism-invariant; false when the node budget
  /// truncated the individualization search (key still deterministic, only
  /// exact re-asks will match).
  bool canonical = true;
  /// Refinement nodes explored by the individualization search (1 when
  /// refinement alone was conclusive).
  long nodes_explored = 0;
  /// Total refinement rounds across all nodes (stats/bench).
  long refinement_rounds = 0;
};

/// Computes the canonical form of h. Deterministic; never fails. Cost is
/// refinement (near-linear per round) times the individualization nodes —
/// microseconds on the suite families, see BM_Canonicalize.
CanonicalFormResult Canonicalize(const Hypergraph& h,
                                 const CanonicalizeOptions& options = {});

/// Rebuilds h with vertex v renamed to vertex_perm[v] and edge e moved to
/// position edge_perm[e] (names travel with their vertices/edges). The
/// isomorphism-differential tests and the repeat-traffic generators use this
/// to manufacture isomorphic re-asks; Canonicalize(h) and
/// Canonicalize(RelabeledHypergraph(h, ...)) must agree on the key.
Hypergraph RelabeledHypergraph(const Hypergraph& h,
                               const std::vector<int>& vertex_perm,
                               const std::vector<int>& edge_perm);

}  // namespace ghd

#endif  // GHD_HYPERGRAPH_CANONICAL_H_
