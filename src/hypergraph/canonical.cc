#include "hypergraph/canonical.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <unordered_map>

#include "hypergraph/flat_hypergraph.h"
#include "hypergraph/kernels.h"
#include "obs/obs.h"
#include "util/check.h"

namespace ghd {
namespace {

// Independent seeds for the two key halves, the vertex/edge color domains,
// and the individualization salt. Arbitrary odd constants; changing any of
// them invalidates every persisted cache file (cache/decomp_cache.cc bumps
// its format version for that).
constexpr uint64_t kVertexSeed = 0x633d5c0744964b1dull;
constexpr uint64_t kEdgeSeed = 0x2b1f8e7a94d3c5f1ull;
constexpr uint64_t kIndivSalt = 0x5bf03635d1a4e02bull;
constexpr uint64_t kKeySeedHi = 0x8f14e45fceea167aull;
constexpr uint64_t kKeySeedLo = 0x452821e638d01377ull;
constexpr uint64_t kNoncanonicalMark = 0xdeadbeefcafef00dull;

// Order-dependent FNV-1a-style fold over 64-bit values, splitmix-finalized.
// Callers sort first when the input is a multiset.
uint64_t HashValues(const uint64_t* values, size_t count, uint64_t seed) {
  uint64_t h = seed ^ (0xcbf29ce484222325ull + count);
  for (size_t i = 0; i < count; ++i) {
    h ^= values[i];
    h *= 0x100000001b3ull;
  }
  return SplitMix64(h);
}

uint64_t HashInts(const uint32_t* values, size_t count, uint64_t seed) {
  uint64_t h = seed ^ (0xcbf29ce484222325ull + count);
  for (size_t i = 0; i < count; ++i) {
    h ^= values[i];
    h *= 0x100000001b3ull;
  }
  return SplitMix64(h);
}

// One node of the individualization-refinement search: a pair of color
// vectors over vertices and edges plus the cell sizes keyed by color value.
// The counts let the worklist refinement decide "did this cell actually
// split" without ever scanning the full color vectors.
struct Coloring {
  std::vector<uint64_t> vc;
  std::vector<uint64_t> ec;
  std::unordered_map<uint64_t, int> vcount;
  std::unordered_map<uint64_t, int> ecount;
};

// A leaf the search keeps for comparison: its encoding (compared
// lexicographically), the permutations that produced it, and the path of
// individualized vertices that reached it.
struct Leaf {
  bool set = false;
  std::vector<uint32_t> encoding;
  std::vector<int> vertex_perm;
  std::vector<int> edge_perm;
  std::vector<int> path;
};

class CanonicalSearch {
 public:
  CanonicalSearch(const Hypergraph& h, const CanonicalizeOptions& options)
      : h_(h), flat_(h.Flat()), options_(options),
        n_(h.num_vertices()), m_(h.num_edges()),
        stamp_v_(h.num_vertices(), 0), stamp_e_(h.num_edges(), 0) {}

  CanonicalFormResult Run() {
    CanonicalFormResult result;
    Coloring start;
    InitialColors(&start);
    std::vector<int> all_v(n_), all_e(m_);
    std::iota(all_v.begin(), all_v.end(), 0);
    std::iota(all_e.begin(), all_e.end(), 0);
    Search(std::move(start), std::move(all_v), std::move(all_e));
    GHD_CHECK(best_.set);
    result.vertex_perm = std::move(best_.vertex_perm);
    result.edge_perm = std::move(best_.edge_perm);
    result.canonical = !fallback_;
    result.nodes_explored = nodes_;
    result.refinement_rounds = rounds_;
    uint64_t seed_hi = kKeySeedHi;
    uint64_t seed_lo = kKeySeedLo;
    if (fallback_) {
      // A budget-truncated search is not relabeling-invariant; poison the
      // seeds so a truncated key can never collide with the canonical key of
      // the same (or any other) instance.
      seed_hi = HashCombine(seed_hi, kNoncanonicalMark);
      seed_lo = HashCombine(seed_lo, kNoncanonicalMark);
      GHD_COUNT(kCanonFallbacks);
    }
    result.key.hi =
        HashInts(best_.encoding.data(), best_.encoding.size(), seed_hi);
    result.key.lo =
        HashInts(best_.encoding.data(), best_.encoding.size(), seed_lo);
    GHD_COUNT_N(kCanonNodes, nodes_);
    return result;
  }

 private:
  // Seed colors: vertex degree; edge arity plus (on small enough instances)
  // the sorted profile of pairwise intersection sizes, scored through the
  // batched AndPopcountRows kernel against the whole edge_bits matrix.
  void InitialColors(Coloring* c) {
    c->vc.resize(n_);
    c->ec.resize(m_);
    for (int v = 0; v < n_; ++v) {
      const long degree =
          flat_.vertex_offsets()[v + 1] - flat_.vertex_offsets()[v];
      c->vc[v] = SplitMix64(kVertexSeed ^ static_cast<uint64_t>(degree));
    }
    const bool profile = m_ > 0 && m_ <= options_.max_profile_edges;
    std::vector<int32_t> ids(m_);
    std::iota(ids.begin(), ids.end(), 0);
    std::vector<int> counts(m_);
    std::vector<uint64_t> sorted(m_);
    for (int e = 0; e < m_; ++e) {
      const long arity = flat_.edge_offsets()[e + 1] - flat_.edge_offsets()[e];
      uint64_t h = SplitMix64(kEdgeSeed ^ static_cast<uint64_t>(arity));
      if (profile) {
        kernels::AndPopcountRows(flat_.edge_bits().row(e), flat_.edge_bits(),
                                 ids.data(), m_, counts.data());
        for (int f = 0; f < m_; ++f) {
          sorted[f] = static_cast<uint64_t>(counts[f]);
        }
        std::sort(sorted.begin(), sorted.end());
        h = HashCombine(h, HashValues(sorted.data(), sorted.size(), h));
      }
      c->ec[e] = h;
    }
    for (const uint64_t x : c->vc) ++c->vcount[x];
    for (const uint64_t x : c->ec) ++c->ecount[x];
  }

  // Worklist 1-WL on the incidence structure, Paige-Tarjan style: only
  // elements adjacent to a cell that split last half-round are rescored, and
  // a rescored cell moves only the members whose signature actually
  // separates them (members left untouched keep their color — their
  // signatures are determined by cell-formation history plus the preserved
  // neighbor counts, so skipping them is the classic "all but one part"
  // split). This is what makes individualization affordable: re-refining
  // after splitting one vertex off costs work proportional to the region the
  // change wave reaches, not rounds * (n + m). On a cycle — vertex-
  // transitive, so every branch of the search pays a full refinement — the
  // end-to-end canonicalization drops from quadratic per branch to linear
  // (BM_Canonicalize/256 pins it).
  //
  // `dirty_v` / `dirty_e` are the just-split elements (consumed). New colors
  // are HashCombine(old color, signature): invariant under relabeling, and
  // cells only ever split, so termination is bounded by n + m total splits
  // (the round guard below only trips on a 64-bit color collision, which
  // makes the result wrong-but-deterministic — the same failure class as an
  // InstanceKey collision, and caught by rehydration-time re-validation).
  void Refine(Coloring* c, std::vector<int> dirty_v, std::vector<int> dirty_e) {
    std::vector<uint64_t> neighbors;
    // (old color, signature, element) triples of the rescored side, sorted to
    // group cells and candidate splits.
    std::vector<std::array<uint64_t, 3>> scored;
    std::vector<int> touched;
    const long max_half_rounds = 4L * (n_ + m_) + 8;
    long half_rounds = 0;
    while ((!dirty_v.empty() || !dirty_e.empty()) &&
           half_rounds++ < max_half_rounds) {
      ++rounds_;
      const bool vertex_side = !dirty_v.empty();
      std::vector<int>& dirty = vertex_side ? dirty_v : dirty_e;
      // Rescore the neighbors of the dirty elements on the opposite side.
      touched.clear();
      if (vertex_side) {
        const auto& vo = flat_.vertex_offsets();
        const auto& ve = flat_.vertex_edges();
        for (int v : dirty) {
          for (int32_t i = vo[v]; i < vo[v + 1]; ++i) {
            const int e = ve[i];
            if (stamp_e_[e] != stamp_) {
              stamp_e_[e] = stamp_;
              touched.push_back(e);
            }
          }
        }
      } else {
        const auto& eo = flat_.edge_offsets();
        const auto& ev = flat_.edge_vertices();
        for (int e : dirty) {
          for (int32_t i = eo[e]; i < eo[e + 1]; ++i) {
            const int v = ev[i];
            if (stamp_v_[v] != stamp_) {
              stamp_v_[v] = stamp_;
              touched.push_back(v);
            }
          }
        }
      }
      dirty.clear();
      ++stamp_;
      scored.clear();
      scored.reserve(touched.size());
      for (const int x : touched) {
        neighbors.clear();
        if (vertex_side) {
          const auto& eo = flat_.edge_offsets();
          const auto& ev = flat_.edge_vertices();
          for (int32_t i = eo[x]; i < eo[x + 1]; ++i) {
            neighbors.push_back(c->vc[ev[i]]);
          }
        } else {
          const auto& vo = flat_.vertex_offsets();
          const auto& ve = flat_.vertex_edges();
          for (int32_t i = vo[x]; i < vo[x + 1]; ++i) {
            neighbors.push_back(c->ec[ve[i]]);
          }
        }
        std::sort(neighbors.begin(), neighbors.end());
        const uint64_t sig =
            HashValues(neighbors.data(), neighbors.size(),
                       vertex_side ? kEdgeSeed : kVertexSeed);
        const uint64_t old =
            vertex_side ? c->ec[x] : c->vc[x];
        scored.push_back({old, sig, static_cast<uint64_t>(x)});
      }
      std::sort(scored.begin(), scored.end());
      std::vector<uint64_t>& colors = vertex_side ? c->ec : c->vc;
      std::unordered_map<uint64_t, int>& counts =
          vertex_side ? c->ecount : c->vcount;
      std::vector<int>& split_out = vertex_side ? dirty_e : dirty_v;
      for (size_t i = 0; i < scored.size();) {
        size_t j = i;
        while (j < scored.size() && scored[j][0] == scored[i][0]) ++j;
        const uint64_t old = scored[i][0];
        const int cell_size = counts.at(old);
        // Whole cell rescored into one signature group: nothing separated,
        // every member keeps its color.
        if (static_cast<int>(j - i) == cell_size &&
            scored[j - 1][1] == scored[i][1]) {
          i = j;
          continue;
        }
        // Otherwise every rescored member moves to a signature-refined
        // color; unrescored members (signature necessarily distinct — their
        // neighborhoods kept the pre-split colors) stay behind on `old`.
        int moved = 0;
        for (size_t g = i; g < j;) {
          size_t h = g;
          while (h < j && scored[h][1] == scored[g][1]) ++h;
          const uint64_t fresh = HashCombine(old, scored[g][1]);
          for (size_t t = g; t < h; ++t) {
            const int x = static_cast<int>(scored[t][2]);
            colors[x] = fresh;
            split_out.push_back(x);
          }
          counts[fresh] += static_cast<int>(h - g);
          moved += static_cast<int>(h - g);
          g = h;
        }
        if ((counts[old] -= moved) <= 0) counts.erase(old);
        i = j;
      }
    }
  }

  // Two vertices are twins when their incidence rows are identical — every
  // automorphism-free search can order them arbitrarily, so a cell of
  // mutual twins never needs individualization. (Covers isolated vertices,
  // star leaves, and interchangeable pin vertices.)
  bool VerticesAreTwins(int a, int b) const {
    const BitMatrix& inc = flat_.incidence_bits();
    return std::memcmp(inc.row(a), inc.row(b),
                       sizeof(uint64_t) *
                           static_cast<size_t>(inc.stride_words())) == 0;
  }

  // The recursive individualization-refinement search. Consumes `c` and the
  // dirty worklists seeding its refinement (the root passes everything; a
  // branch passes just its individualized vertex, already pushed on path_).
  void Search(Coloring c, std::vector<int> dirty_v, std::vector<int> dirty_e) {
    ++nodes_;
    Refine(&c, std::move(dirty_v), std::move(dirty_e));
    // Group vertices into color cells (sorted by color value, which is
    // relabeling-invariant; original ids only break ties inside cells).
    std::vector<int> order(n_);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return c.vc[a] != c.vc[b] ? c.vc[a] < c.vc[b] : a < b;
    });
    // Find the target cell: smallest non-twin cell, ties by color value
    // (scan order). Cells wholly made of twins are resolved as-is.
    int target_begin = -1, target_size = 0;
    for (int i = 0; i < n_;) {
      int j = i + 1;
      while (j < n_ && c.vc[order[j]] == c.vc[order[i]]) ++j;
      const int size = j - i;
      if (size > 1) {
        bool all_twins = true;
        for (int t = i + 1; t < j && all_twins; ++t) {
          all_twins = VerticesAreTwins(order[i], order[t]);
        }
        if (!all_twins &&
            (target_begin < 0 || size < target_size)) {
          target_begin = i;
          target_size = size;
        }
      }
      i = j;
    }
    if (target_begin < 0) {
      EmitLeaf(order);
      return;
    }
    if (nodes_ >= options_.max_nodes) fallback_ = true;
    // Branch over one representative per twin class of the target cell; twin
    // candidates generate identical subtrees. Under the fallback only the
    // first representative is explored (deterministic, not invariant).
    std::vector<int> reps;
    for (int t = target_begin; t < target_begin + target_size; ++t) {
      const int v = order[t];
      bool duplicate = false;
      for (int r : reps) {
        if (VerticesAreTwins(r, v)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) reps.push_back(v);
    }
    // Orbit pruning at every level (McKay-Piperno): an automorphism that
    // fixes this node's prefix pointwise maps the node onto itself, so a
    // child in the orbit of an explored sibling under such automorphisms
    // roots the automorphic image of that sibling's subtree — the same leaf
    // encodings, nothing new to find. The orbits are a union-find over the
    // vertices, fed incrementally as the children's leaves discover
    // automorphisms. On a vertex-transitive family the first branch finds
    // the symmetries that collapse its siblings; on a clique each level
    // collapses to one branch once the level below has found its
    // transposition.
    const int depth = static_cast<int>(path_.size());
    std::vector<int> orbit;
    if (reps.size() > 1) {
      orbit.resize(n_);
      std::iota(orbit.begin(), orbit.end(), 0);
    }
    auto find = [&orbit](int x) {
      while (orbit[x] != x) x = orbit[x] = orbit[orbit[x]];
      return x;
    };
    size_t absorbed = 0;  // automorphisms_ already folded into `orbit`
    std::vector<int> explored;
    for (const int v : reps) {
      if (!orbit.empty()) {
        for (; absorbed < automorphisms_.size(); ++absorbed) {
          const std::vector<int>& gamma = automorphisms_[absorbed];
          if (!FixesPrefix(gamma, depth)) continue;
          for (int x = 0; x < n_; ++x) {
            const int a = find(x), b = find(gamma[x]);
            if (a != b) orbit[a] = b;
          }
        }
        bool seen = false;
        for (const int u : explored) {
          if (find(u) == find(v)) {
            seen = true;
            break;
          }
        }
        if (seen) continue;
        explored.push_back(v);
      }
      Coloring child = c;
      const uint64_t old = child.vc[v];
      const uint64_t fresh = HashCombine(old, kIndivSalt);
      if (--child.vcount.at(old) == 0) child.vcount.erase(old);
      child.vcount[fresh] += 1;
      child.vc[v] = fresh;
      path_.push_back(v);
      Search(std::move(child), {v}, {});
      path_.pop_back();
      if (fallback_) break;
      // A leaf below proved this child's subtree an automorphic image of an
      // explored one and asked to unwind to `backjump_`: deeper nodes return,
      // the target node resumes with its next child.
      if (backjump_ >= 0) {
        if (backjump_ < depth) return;
        backjump_ = -1;
      }
    }
  }

  // True when gamma fixes every individualized vertex of path_[0, depth).
  bool FixesPrefix(const std::vector<int>& gamma, int depth) const {
    for (int i = 0; i < depth; ++i) {
      if (gamma[path_[i]] != path_[i]) return false;
    }
    return true;
  }

  // A discrete (or twin-resolved) leaf: derive the permutations, build the
  // canonical encoding, and keep it when lexicographically smaller than the
  // best seen. A leaf whose encoding equals the first or the best leaf's
  // proves an automorphism instead.
  void EmitLeaf(const std::vector<int>& vertex_order) {
    std::vector<int> vperm(n_);
    for (int i = 0; i < n_; ++i) vperm[vertex_order[i]] = i;
    // Relabel every edge and sort members.
    std::vector<std::vector<uint32_t>> relabeled(m_);
    const auto& ev = flat_.edge_vertices();
    const auto& eo = flat_.edge_offsets();
    for (int e = 0; e < m_; ++e) {
      auto& members = relabeled[e];
      members.reserve(eo[e + 1] - eo[e]);
      for (int32_t i = eo[e]; i < eo[e + 1]; ++i) {
        members.push_back(static_cast<uint32_t>(vperm[ev[i]]));
      }
      std::sort(members.begin(), members.end());
    }
    // Canonical edge order: lexicographic on relabeled content (edge colors
    // are a refinement of content, so content ordering is invariant); ties
    // are parallel edges — interchangeable, broken by original id.
    std::vector<int> edge_order(m_);
    std::iota(edge_order.begin(), edge_order.end(), 0);
    std::sort(edge_order.begin(), edge_order.end(), [&](int a, int b) {
      return relabeled[a] != relabeled[b] ? relabeled[a] < relabeled[b]
                                          : a < b;
    });
    std::vector<uint32_t> encoding;
    encoding.reserve(2 + static_cast<size_t>(m_) + ev.size());
    encoding.push_back(static_cast<uint32_t>(n_));
    encoding.push_back(static_cast<uint32_t>(m_));
    for (int e : edge_order) {
      encoding.push_back(static_cast<uint32_t>(relabeled[e].size()));
      encoding.insert(encoding.end(), relabeled[e].begin(),
                      relabeled[e].end());
    }
    const Leaf* same = first_.set && encoding == first_.encoding ? &first_
                       : best_.set && encoding == best_.encoding  ? &best_
                                                                  : nullptr;
    if (same != nullptr) {
      RecordAutomorphism(*same, vertex_order);
      return;
    }
    if (best_.set && encoding > best_.encoding) return;
    best_.set = true;
    best_.encoding = std::move(encoding);
    best_.vertex_perm = std::move(vperm);
    best_.edge_perm.assign(m_, 0);
    for (int i = 0; i < m_; ++i) best_.edge_perm[edge_order[i]] = i;
    best_.path = path_;
    if (!first_.set) first_ = best_;
  }

  // The current leaf (canonical order `vertex_order`) relabels h into the
  // same hypergraph as `ref`, so gamma — ref's vertex at each canonical
  // position mapped to this leaf's — is an automorphism of h. Store it for
  // the orbit pruning; and when gamma fixes the prefix the two paths share
  // and maps ref's next vertex onto ours, the subtree this leaf lies in is
  // gamma's image of ref's, fully explored already: unwind to the
  // divergence depth.
  void RecordAutomorphism(const Leaf& ref,
                          const std::vector<int>& vertex_order) {
    std::vector<int> gamma(n_);
    for (int v = 0; v < n_; ++v) gamma[v] = vertex_order[ref.vertex_perm[v]];
    const std::vector<int>& r = ref.path;
    size_t d = 0;
    while (d < r.size() && d < path_.size() && r[d] == path_[d]) ++d;
    if (d < r.size() && d < path_.size() && gamma[r[d]] == path_[d] &&
        FixesPrefix(gamma, static_cast<int>(d))) {
      backjump_ = static_cast<int>(d);
    }
    automorphisms_.push_back(std::move(gamma));
  }

  const Hypergraph& h_;
  const FlatHypergraph& flat_;
  const CanonicalizeOptions& options_;
  const int n_;
  const int m_;
  Leaf first_;
  Leaf best_;
  // Individualized vertices from the root to the current node.
  std::vector<int> path_;
  // Every automorphism the leaves have proved, as vertex permutations.
  std::vector<std::vector<int>> automorphisms_;
  // Depth a leaf asked the search to unwind to, or -1.
  int backjump_ = -1;
  // Visit stamps for the worklist dedup in Refine (shared across the whole
  // search; the counter only moves forward).
  std::vector<uint64_t> stamp_v_;
  std::vector<uint64_t> stamp_e_;
  uint64_t stamp_ = 1;
  long nodes_ = 0;
  long rounds_ = 0;
  bool fallback_ = false;
};

}  // namespace

std::string InstanceKey::ToHex() const {
  static const char* digits = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = digits[(hi >> (4 * i)) & 0xf];
    out[31 - i] = digits[(lo >> (4 * i)) & 0xf];
  }
  return out;
}

CanonicalFormResult Canonicalize(const Hypergraph& h,
                                 const CanonicalizeOptions& options) {
  return CanonicalSearch(h, options).Run();
}

Hypergraph RelabeledHypergraph(const Hypergraph& h,
                               const std::vector<int>& vertex_perm,
                               const std::vector<int>& edge_perm) {
  const int n = h.num_vertices();
  const int m = h.num_edges();
  GHD_CHECK(static_cast<int>(vertex_perm.size()) == n);
  GHD_CHECK(static_cast<int>(edge_perm.size()) == m);
  std::vector<std::string> vertex_names(n);
  for (int v = 0; v < n; ++v) {
    GHD_CHECK(vertex_perm[v] >= 0 && vertex_perm[v] < n);
    vertex_names[vertex_perm[v]] = h.vertex_name(v);
  }
  std::vector<std::string> edge_names(m);
  std::vector<VertexSet> edges(m, VertexSet(n));
  for (int e = 0; e < m; ++e) {
    GHD_CHECK(edge_perm[e] >= 0 && edge_perm[e] < m);
    edge_names[edge_perm[e]] = h.edge_name(e);
    VertexSet mapped(n);
    h.edge(e).ForEach([&](int v) { mapped.Set(vertex_perm[v]); });
    edges[edge_perm[e]] = std::move(mapped);
  }
  return Hypergraph(std::move(vertex_names), std::move(edge_names),
                    std::move(edges));
}

}  // namespace ghd
