// The deterministic thread-pool substrate: partitioning, edge cases,
// exception propagation, nesting, and task submission.
#include "core/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace adafl::core {
namespace {

/// Restores the automatic pool size when a test that resizes it exits.
struct ThreadGuard {
  ~ThreadGuard() { set_num_threads(0); }
};

TEST(Parallel, NumThreadsIsPositive) { EXPECT_GE(num_threads(), 1); }

TEST(Parallel, SetNumThreadsRoundTrips) {
  ThreadGuard guard;
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1);
}

TEST(Parallel, EmptyRangeNeverInvokes) {
  ThreadGuard guard;
  set_num_threads(4);
  std::atomic<int> calls{0};
  parallel_for(5, 5, [&](std::int64_t) { ++calls; });
  parallel_for(7, 3, [&](std::int64_t) { ++calls; });
  parallel_for_blocked(2, 2, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(Parallel, EveryIndexVisitedExactlyOnce) {
  ThreadGuard guard;
  for (int threads : {1, 2, 4, 7}) {
    set_num_threads(threads);
    std::vector<std::atomic<int>> hits(100);
    parallel_for(0, 100, [&](std::int64_t i) {
      ++hits[static_cast<std::size_t>(i)];
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(Parallel, RangeSmallerThanThreadCount) {
  ThreadGuard guard;
  set_num_threads(8);
  std::vector<std::atomic<int>> hits(3);
  parallel_for(0, 3, [&](std::int64_t i) {
    ++hits[static_cast<std::size_t>(i)];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, BlockedChunksAreContiguousAndDisjoint) {
  ThreadGuard guard;
  set_num_threads(4);
  std::vector<int> owner(64, -1);
  std::atomic<int> next_chunk{0};
  parallel_for_blocked(0, 64, [&](std::int64_t b, std::int64_t e) {
    ASSERT_LT(b, e);
    const int id = next_chunk.fetch_add(1);
    for (std::int64_t i = b; i < e; ++i)
      owner[static_cast<std::size_t>(i)] = id;
  });
  // Every index covered, and each chunk's indices form one contiguous run.
  for (int o : owner) EXPECT_NE(o, -1);
  for (std::size_t i = 1; i < owner.size(); ++i) {
    if (owner[i] != owner[i - 1]) {
      EXPECT_EQ(std::count(owner.begin() + static_cast<std::ptrdiff_t>(i),
                           owner.end(), owner[i - 1]),
                0)
          << "chunk " << owner[i - 1] << " is not contiguous";
    }
  }
}

TEST(Parallel, ExceptionPropagatesToCaller) {
  ThreadGuard guard;
  for (int threads : {1, 4}) {
    set_num_threads(threads);
    EXPECT_THROW(
        parallel_for(0, 32,
                     [](std::int64_t i) {
                       if (i == 17) throw std::runtime_error("boom");
                     }),
        std::runtime_error);
  }
}

TEST(Parallel, SurvivesAndStaysUsableAfterException) {
  ThreadGuard guard;
  set_num_threads(4);
  EXPECT_THROW(parallel_for(0, 8,
                            [](std::int64_t) {
                              throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  std::atomic<int> calls{0};
  parallel_for(0, 8, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
}

TEST(Parallel, NestedCallsRunFlat) {
  ThreadGuard guard;
  set_num_threads(4);
  std::vector<std::atomic<int>> hits(16 * 16);
  parallel_for(0, 16, [&](std::int64_t i) {
    // Inner region must run serially on this worker (no deadlock, no
    // oversubscription) and still visit everything.
    parallel_for(0, 16, [&](std::int64_t j) {
      ++hits[static_cast<std::size_t>(i * 16 + j)];
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, MapCollectsInIndexOrder) {
  ThreadGuard guard;
  for (int threads : {1, 4}) {
    set_num_threads(threads);
    const auto out = parallel_map<std::int64_t>(
        64, [](std::int64_t i) { return i * i; });
    ASSERT_EQ(out.size(), 64u);
    for (std::int64_t i = 0; i < 64; ++i)
      EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(Parallel, SubmitTaskCompletesAndPropagatesExceptions) {
  ThreadGuard guard;
  for (int threads : {1, 4}) {
    set_num_threads(threads);
    std::atomic<bool> ran{false};
    auto ok = submit_task([&] { ran = true; });
    ok.get();
    EXPECT_TRUE(ran.load());
    auto bad = submit_task([] { throw std::runtime_error("task boom"); });
    EXPECT_THROW(bad.get(), std::runtime_error);
  }
}

TEST(Parallel, ManyConcurrentSubmissionsAllComplete) {
  ThreadGuard guard;
  set_num_threads(4);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 64; ++i)
    futs.push_back(submit_task([&sum, i] { sum += i; }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

}  // namespace
}  // namespace adafl::core
