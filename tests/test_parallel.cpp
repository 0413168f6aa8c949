// Unit tests for the parallel substrate: thread pool, primitives, RNG.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "file_test_util.h"
#include "parallel/primitives.h"
#include "parallel/rng.h"
#include "parallel/thread_pool.h"

namespace parsdd {
namespace {

TEST(ThreadPool, ConcurrencyAtLeastOne) {
  EXPECT_GE(ThreadPool::instance().concurrency(), 1);
}

TEST(ThreadPool, RunBlocksExecutesEveryBlockExactlyOnce) {
  constexpr std::size_t kBlocks = 1000;
  std::vector<std::atomic<int>> hits(kBlocks);
  for (auto& h : hits) h.store(0);
  ThreadPool::instance().run_blocks(kBlocks, [&](std::size_t b) {
    hits[b].fetch_add(1);
  });
  for (std::size_t b = 0; b < kBlocks; ++b) EXPECT_EQ(hits[b].load(), 1);
}

TEST(ThreadPool, NestedParallelRunsSequentially) {
  std::atomic<int> outer{0};
  ThreadPool::instance().run_blocks(8, [&](std::size_t) {
    // A nested region must not deadlock; it runs inline.
    parallel_for(0, 10000, [&](std::size_t) {});
    outer.fetch_add(1);
  });
  EXPECT_EQ(outer.load(), 8);
}

// Child mode for the matrix test below: several non-pool threads drive
// run_blocks at once, as the service executors and the rebuild thread do.
// Every call must return, and only after each of its blocks ran exactly
// once.  A plain ctest run executes it once at the default pool size.
TEST(ThreadPoolChild, ConcurrentExternalCallers) {
  constexpr int kCallers = 4;
  constexpr int kRounds = 1000;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&wrong, t] {
      for (int r = 0; r < kRounds; ++r) {
        std::size_t n = 2 + static_cast<std::size_t>((7 * t + r) % 61);
        std::vector<std::atomic<int>> hits(n);
        for (auto& h : hits) h.store(0);
        ThreadPool::instance().run_blocks(
            n, [&hits](std::size_t b) { hits[b].fetch_add(1); });
        for (auto& h : hits) {
          if (h.load() != 1) wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ThreadPool, ConcurrentExternalCallersAtEveryPoolSize) {
  // The pool size is fixed at first use, so each size gets a fresh child.
  // `timeout` turns a call that never returns (a lost wakeup) into a named
  // failure instead of a hung suite.
  std::string exe = test_util::self_exe();
  ASSERT_FALSE(exe.empty());
  for (int threads = 2; threads <= 8; ++threads) {
    std::string cmd =
        "PARSDD_THREADS=" + std::to_string(threads) + " timeout 60 '" + exe +
        "' --gtest_filter=ThreadPoolChild.ConcurrentExternalCallers"
        " > /dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    int code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    EXPECT_EQ(code, 0) << "PARSDD_THREADS=" << threads
                       << (code == 124 ? ": a run_blocks call never returned"
                                       : ": child failed");
  }
}

TEST(ParallelFor, CoversRangeOnce) {
  constexpr std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
  int count = 0;
  parallel_for(5, 5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ParallelReduce, MatchesSequentialSum) {
  constexpr std::size_t n = 123457;
  std::uint64_t expect = n * (n - 1) / 2;
  std::uint64_t got = parallel_reduce(
      0, n, std::uint64_t{0}, [](std::size_t i) { return std::uint64_t(i); },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(got, expect);
}

TEST(ParallelReduce, MaxAndEmptyIdentity) {
  double mx = parallel_reduce(
      0, 0, -1.0, [](std::size_t) { return 5.0; },
      [](double a, double b) { return std::max(a, b); });
  EXPECT_EQ(mx, -1.0);
}

// A bool reduction over many blocks: each block's partial result must land
// in its own slot.  Packed bit storage (std::vector<bool>) would make
// neighbouring blocks read-modify-write one word, a data race that can
// overwrite one block's false with a stale true.
TEST(ParallelReduce, BoolConjunctionKeepsEveryBlocksResult) {
  // Enough blocks that pool workers join before the caller drains them.
  constexpr std::size_t kBlocks = 512;
  constexpr std::size_t n = kBlocks * kDefaultGrain;
  std::vector<std::uint8_t> ok(n, 1);
  for (std::size_t k = 0; k < kBlocks; k += 73) {
    std::size_t bad = k * kDefaultGrain + 7;
    ok[bad] = 0;
    bool all = parallel_reduce(
        0, n, true, [&](std::size_t i) { return ok[i] != 0; },
        [](bool a, bool b) { return a && b; });
    ok[bad] = 1;
    EXPECT_FALSE(all) << "block " << k;
  }
}

class ScanTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanTest, MatchesSequentialExclusiveScan) {
  std::size_t n = GetParam();
  std::vector<std::uint64_t> v(n);
  Rng rng(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.below(i, 100);
  std::vector<std::uint64_t> expect(n);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expect[i] = acc;
    acc += v[i];
  }
  std::uint64_t total = scan_exclusive(v);
  EXPECT_EQ(total, acc);
  EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanTest,
                         ::testing::Values(0, 1, 2, 100, 2048, 4097, 100000));

TEST(Pack, PackIndexSelectsPredicatedIndices) {
  auto idx = pack_index(100000, [](std::size_t i) { return i % 7 == 0; });
  ASSERT_EQ(idx.size(), (100000 + 6) / 7);
  for (std::size_t k = 0; k < idx.size(); ++k) EXPECT_EQ(idx[k], 7 * k);
}

TEST(Pack, PackPreservesOrder) {
  std::vector<int> items(50000);
  std::iota(items.begin(), items.end(), 0);
  auto out = pack(items, [&](std::size_t i) { return items[i] % 2 == 1; });
  ASSERT_EQ(out.size(), 25000u);
  for (std::size_t k = 0; k < out.size(); ++k) {
    EXPECT_EQ(out[k], static_cast<int>(2 * k + 1));
  }
}

class SortTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SortTest, SortsRandomInput) {
  std::size_t n = GetParam();
  std::vector<std::uint64_t> v(n);
  Rng rng(7 * n + 1);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.u64(i) % 1000;
  std::vector<std::uint64_t> expect = v;
  std::sort(expect.begin(), expect.end());
  parallel_sort(v);
  EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortTest,
                         ::testing::Values(0, 1, 2, 1000, 8192, 100001));

TEST(Sort, AlreadySortedAndReverse) {
  std::vector<int> v(50000);
  std::iota(v.begin(), v.end(), 0);
  auto expect = v;
  parallel_sort(v);
  EXPECT_EQ(v, expect);
  std::reverse(v.begin(), v.end());
  parallel_sort(v);
  EXPECT_EQ(v, expect);
}

TEST(Sort, CustomComparator) {
  std::vector<int> v = {3, 1, 4, 1, 5, 9, 2, 6};
  parallel_sort(v, std::greater<int>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<int>{}));
}

class RadixSortTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RadixSortTest, MatchesStableSortOfIndices) {
  std::size_t n = GetParam();
  std::vector<std::uint64_t> keys(n);
  Rng rng(3 * n + 5);
  // Few distinct values in varied digit positions: many ties, and some
  // digits vary while others stay constant.
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = (rng.u64(i) % 7) << (8 * (rng.u64(n + i) % 8));
  }
  std::vector<std::uint32_t> expect(n);
  std::iota(expect.begin(), expect.end(), 0u);
  std::stable_sort(expect.begin(), expect.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return keys[a] < keys[b];
                   });
  EXPECT_EQ(radix_sort_indices(keys), expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RadixSortTest,
                         ::testing::Values(0, 1, 2, 1000, 8192, 100001));

TEST(RadixSort, EqualKeysNeedNoPassAndKeepIndexOrder) {
  std::vector<std::uint64_t> keys(5000, 0xabcdefull);
  std::vector<std::uint32_t> expect(keys.size());
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(radix_sort_indices(keys), expect);
}

TEST(RadixSort, FullWidthKeys) {
  std::vector<std::uint64_t> keys = {~0ull, 0, 1ull << 63, 5, ~0ull, 0};
  EXPECT_EQ(radix_sort_indices(keys),
            (std::vector<std::uint32_t>{1, 5, 3, 2, 0, 4}));
}

TEST(Tabulate, FillsValues) {
  auto v = tabulate<std::size_t>(5000, [](std::size_t i) { return i * i; });
  ASSERT_EQ(v.size(), 5000u);
  EXPECT_EQ(v[70], 4900u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(a.u64(i), b.u64(i));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (std::uint64_t i = 0; i < 64; ++i) same += (a.u64(i) == b.u64(i));
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(99);
  double sum = 0;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    double u = r.uniform(i);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Rng r(5);
  std::vector<int> counts(10, 0);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    std::uint64_t v = r.below(i, 10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
}

TEST(Rng, ChildStreamsIndependent) {
  Rng r(42);
  Rng c1 = r.child(1), c2 = r.child(2);
  int same = 0;
  for (std::uint64_t i = 0; i < 64; ++i) same += (c1.u64(i) == c2.u64(i));
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace parsdd
