// Shared hash mixing primitives. Every hot-path hasher in the library (the
// bitset hash, interned-id memo keys) funnels through the splitmix64
// finalizer: full-avalanche in three multiply/xor rounds, so ids that differ
// in one low bit land in unrelated buckets. The old `h1 * 1000003 + h2`
// combiners kept the low bits of h2 nearly intact, which striped the
// unordered_map buckets.
#ifndef GHD_UTIL_HASH_MIX_H_
#define GHD_UTIL_HASH_MIX_H_

#include <cstdint>

namespace ghd {

/// splitmix64 finalizer (Steele, Lea, Flood): bijective full-avalanche mix.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-dependent combiner for two 64-bit hashes; mixes after combining so
/// the result avalanches even when the inputs are small ids.
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return SplitMix64(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2)));
}

/// Packs two 32-bit ids into one word; the canonical key layout for
/// (component, connector) interned memo keys.
inline uint64_t PackIds(uint32_t hi, uint32_t lo) {
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

/// unordered_map hasher for interned 32-bit ids: identity hashing would
/// stripe the bucket array, so mix.
struct IdHash {
  size_t operator()(uint32_t id) const {
    return static_cast<size_t>(SplitMix64(id));
  }
};

}  // namespace ghd

#endif  // GHD_UTIL_HASH_MIX_H_
