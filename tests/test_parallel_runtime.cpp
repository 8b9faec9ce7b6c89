// The thread runtime behind parallel_for and TaskGraph::run: chunk
// hand-out, team size, nesting, concurrent callers, back-to-back tiny
// regions (the serving path's shape), and a throwing body.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "lapack90/core/parallel.hpp"

namespace la::test {
namespace {

struct ThreadsGuard {
  idx prev;
  explicit ThreadsGuard(idx nt) : prev(set_num_threads(nt)) {}
  ~ThreadsGuard() { set_num_threads(prev); }
};

TEST(ParallelRuntimeTest, EveryChunkRunsOnceWithTidInRange) {
  constexpr idx kChunks = 1000;
  for (const idx nt : {1, 2, 4}) {
    ThreadsGuard g(nt);
    const idx team = std::min(nt, hardware_threads());
    std::vector<std::atomic<int>> hits(kChunks);
    std::atomic<int> bad_tid{0};
    parallel_for(kChunks, [&](idx i, int tid) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
      if (tid < 0 || tid >= team) {
        bad_tid.fetch_add(1);
      }
    });
    for (idx i = 0; i < kChunks; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "chunk " << i << " at " << nt << " workers";
    }
    EXPECT_EQ(bad_tid.load(), 0) << nt << " workers";
  }
}

TEST(ParallelRuntimeTest, TeamIsCappedAtHardwareThreads) {
  ThreadsGuard g(8);
  std::atomic<int> max_tid{0};
  std::mutex mu;
  std::vector<std::thread::id> ids;
  parallel_for(4096, [&](idx, int tid) {
    int seen = max_tid.load();
    while (tid > seen && !max_tid.compare_exchange_weak(seen, tid)) {
    }
    std::lock_guard<std::mutex> lk(mu);
    if (std::find(ids.begin(), ids.end(), std::this_thread::get_id()) ==
        ids.end()) {
      ids.push_back(std::this_thread::get_id());
    }
  });
  EXPECT_LT(max_tid.load(), hardware_threads());
  EXPECT_LE(static_cast<idx>(ids.size()), hardware_threads());
}

TEST(ParallelRuntimeTest, NestedParallelForRunsInlineOnCallingThread) {
  ThreadsGuard g(4);
  constexpr idx kOuter = 8;
  constexpr idx kInner = 16;
  std::atomic<int> inner_runs{0};
  std::atomic<int> wrong{0};
  parallel_for(kOuter, [&](idx, int) {
    const auto me = std::this_thread::get_id();
    if (!detail::in_parallel_region()) {
      wrong.fetch_add(1);
    }
    parallel_for(kInner, [&](idx, int tid) {
      if (tid != 0 || std::this_thread::get_id() != me) {
        wrong.fetch_add(1);
      }
      inner_runs.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_runs.load(), kOuter * kInner);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_FALSE(detail::in_parallel_region());
}

TEST(ParallelRuntimeTest, ConcurrentCallersBothComplete) {
  ThreadsGuard g(4);
  constexpr int kRegions = 200;
  constexpr idx kChunks = 64;
  auto caller = [](std::vector<idx>& out, idx salt) {
    for (int r = 0; r < kRegions; ++r) {
      parallel_for(kChunks, [&](idx i, int) {
        out[static_cast<std::size_t>(i)] += i * salt;
      });
    }
  };
  std::vector<idx> a(kChunks, 0);
  std::vector<idx> b(kChunks, 0);
  std::thread ta(caller, std::ref(a), idx{3});
  std::thread tb(caller, std::ref(b), idx{5});
  ta.join();
  tb.join();
  for (idx i = 0; i < kChunks; ++i) {
    EXPECT_EQ(a[static_cast<std::size_t>(i)], kRegions * i * 3) << i;
    EXPECT_EQ(b[static_cast<std::size_t>(i)], kRegions * i * 5) << i;
  }
}

// Many regions of 1-4 chunks, back to back: a worker that wakes late must
// not run a chunk of a region that already returned, and a caller must not
// return while a chunk some worker claimed is still running.
TEST(ParallelRuntimeTest, BackToBackTinyRegionsStayIsolated) {
  ThreadsGuard g(4);
  constexpr int kRegions = 10000;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(kRegions) * 4);
  int unfinished = 0;
  for (int r = 0; r < kRegions; ++r) {
    const idx nch = 1 + r % 4;
    std::atomic<int>* slot = &hits[static_cast<std::size_t>(r) * 4];
    parallel_for(nch, [slot, r](idx i, int tid) {
      // Every chunk does a little work so workers get to claim some; in
      // every 16th region a worker's chunk also outlasts the pool's
      // spin-before-sleep, so it is still running when the caller has
      // drained the rest.
      volatile int spin = 0;
      for (int k = 0; k < (1 + r % 7) * 200; ++k) {
        spin = spin + k;
      }
      if (tid != 0 && r % 16 == 3) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      slot[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (idx i = 0; i < nch; ++i) {
      if (slot[i].load(std::memory_order_relaxed) != 1) {
        ++unfinished;
      }
    }
  }
  EXPECT_EQ(unfinished, 0);
  int wrong = 0;
  for (int r = 0; r < kRegions; ++r) {
    for (idx i = 0; i < 4; ++i) {
      if (hits[static_cast<std::size_t>(r) * 4 + i].load() !=
          (i < 1 + r % 4 ? 1 : 0)) {
        ++wrong;
      }
    }
  }
  EXPECT_EQ(wrong, 0);
}

TEST(ParallelRuntimeDeathTest, ThrowingBodyTerminates) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        set_num_threads(2);
        parallel_for(4, [](idx, int) { throw std::runtime_error("body"); });
      },
      "");
}

}  // namespace
}  // namespace la::test
