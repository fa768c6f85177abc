// ParallelFor: the flat fan-out loop across independent instances. Runs in
// the TSan CI job.
#include "util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "gtest/gtest.h"

namespace ghd {
namespace {

TEST(ParallelForTest, OneThreadRunsInlineInOrder) {
  std::vector<int> order;
  ParallelFor(1, 8, [&order](int i) { order.push_back(i); });
  std::vector<int> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, EmptyRangeRunsNothing) {
  int calls = 0;
  ParallelFor(4, 0, [&calls](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, CoversEveryIndexOnce) {
  constexpr int kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(4, kN, [&hits](int i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, MoreThreadsThanIndices) {
  std::atomic<long> sum{0};
  ParallelFor(8, 3, [&sum](int i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 6);
}

TEST(ParallelForTest, ZeroMeansAllHardwareThreads) {
  std::atomic<long> sum{0};
  ParallelFor(0, 1000, [&sum](int i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 500500);
}

TEST(ParallelForTest, RethrowsTheFirstException) {
  for (int threads : {1, 4}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(ParallelFor(threads, 64,
                             [&ran](int i) {
                               ran.fetch_add(1);
                               if (i == 7) throw std::runtime_error("boom");
                             }),
                 std::runtime_error)
        << "threads=" << threads;
    // Indices handed out after the throw are skipped.
    EXPECT_LE(ran.load(), 64);
    EXPECT_GE(ran.load(), 8);
  }
}

TEST(ParallelForTest, EffectiveThreads) {
  EXPECT_EQ(EffectiveThreads(1), 1);
  EXPECT_EQ(EffectiveThreads(6), 6);
  EXPECT_GE(EffectiveThreads(0), 1);
  EXPECT_GE(EffectiveThreads(-3), 1);
}

}  // namespace
}  // namespace ghd
