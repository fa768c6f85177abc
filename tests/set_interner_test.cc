// SetInterner: dedup/roundtrip semantics and dense ids. The fan-out case
// runs under the TSan CI job: one interner per ParallelFor worker.
#include <vector>

#include "gtest/gtest.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/set_interner.h"
#include "util/thread_pool.h"

namespace ghd {
namespace {

VertexSet MakeSet(int n, uint64_t seed) {
  Rng rng(seed);
  VertexSet s(n);
  const int count = 1 + rng.UniformInt(n / 2 + 1);
  for (int i = 0; i < count; ++i) s.Set(rng.UniformInt(n));
  return s;
}

TEST(SetInternerTest, EqualSetsGetEqualIds) {
  SetInterner interner;
  for (int n : {40, 128, 300}) {
    const VertexSet a = MakeSet(n, n);
    const VertexSet b = a;  // equal by value, distinct object
    bool inserted_a = false, inserted_b = true;
    const uint32_t id_a = interner.Intern(a, &inserted_a);
    const uint32_t id_b = interner.Intern(b, &inserted_b);
    EXPECT_TRUE(inserted_a);
    EXPECT_FALSE(inserted_b);
    EXPECT_EQ(id_a, id_b);
  }
  EXPECT_EQ(interner.Size(), 3u);
}

TEST(SetInternerTest, DistinctSetsGetDistinctIds) {
  SetInterner interner;
  std::vector<uint32_t> ids;
  std::vector<VertexSet> sets;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    VertexSet s = MakeSet(150, seed);
    bool duplicate = false;
    for (const VertexSet& prev : sets) duplicate |= (prev == s);
    if (duplicate) continue;
    sets.push_back(std::move(s));
    ids.push_back(interner.Intern(sets.back()));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      EXPECT_NE(ids[i], ids[j]);
    }
  }
  EXPECT_EQ(interner.Size(), sets.size());
}

TEST(SetInternerTest, ResolveAndHashOfRoundTrip) {
  SetInterner interner;
  std::vector<std::pair<uint32_t, VertexSet>> entries;
  for (uint64_t seed = 0; seed < 100; ++seed) {
    VertexSet s = MakeSet(200, seed * 31 + 1);
    const uint32_t id = interner.Intern(s);
    entries.emplace_back(id, std::move(s));
  }
  for (const auto& [id, s] : entries) {
    const VertexSet& canonical = interner.Resolve(id);
    EXPECT_EQ(canonical, s);
    EXPECT_EQ(interner.HashOf(id), s.Hash());
    // Resolve must be stable: the same id always names the same storage.
    EXPECT_EQ(&interner.Resolve(id), &canonical);
  }
}

TEST(SetInternerTest, IdsAreDenseInFirstSightOrder) {
  SetInterner interner;
  uint32_t next = 0;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    const VertexSet s = MakeSet(90, seed);
    bool inserted = false;
    const uint32_t id = interner.Intern(s, &inserted);
    if (inserted) {
      EXPECT_EQ(id, next++);
    } else {
      EXPECT_LT(id, next);
    }
  }
  EXPECT_EQ(interner.Size(), next);
}

// The fan-out gives every instance its own search, hence its own interner:
// interners on different ParallelFor workers share nothing, so each one
// issues exactly the ids a sequential run issues for the same sequence.
TEST(SetInternerTest, PerWorkerInternersMatchSequentialIds) {
  constexpr int kWorkers = 4;
  constexpr int kSetsPerWorker = 400;
  constexpr int kDistinct = 64;
  auto run = [](int worker) {
    SetInterner interner;
    Rng rng(0x9e3779b9ULL * (worker + 1));
    std::vector<uint32_t> ids;
    for (int i = 0; i < kSetsPerWorker; ++i) {
      const VertexSet s = MakeSet(170, rng.UniformInt(kDistinct));
      ids.push_back(interner.Intern(s));
      EXPECT_EQ(interner.Resolve(ids.back()), s);
    }
    return ids;
  };
  std::vector<std::vector<uint32_t>> parallel(kWorkers);
  ParallelFor(kWorkers, kWorkers, [&](int w) { parallel[w] = run(w); });
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(parallel[w], run(w)) << "worker " << w;
  }
}

}  // namespace
}  // namespace ghd
