// TaskScheduler, the flat ParallelFor pool: every index runs exactly once,
// the T workers and the calling thread all claim indices one at a time
// (T + 1 threads), a ParallelFor from inside one of the pool's tasks runs
// inline on that thread, a second external caller waits its turn, an
// exception reaches the caller and leaves the pool usable, and the
// workers live across calls. These run under the TSan CI job — the pool is the one component
// every parallel phase of the pipeline shares.

#include "util/task_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace faircap {
namespace {

TEST(TaskSchedulerTest, ParallelForCoversAllIndicesOnce) {
  TaskScheduler scheduler(4);
  std::vector<std::atomic<int>> hits(5000);
  scheduler.ParallelFor(5000, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskSchedulerTest, ParallelForZeroIsNoop) {
  TaskScheduler scheduler(2);
  bool touched = false;
  scheduler.ParallelFor(0, [&touched](size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(TaskSchedulerTest, ParallelForFewerItemsThanThreads) {
  TaskScheduler scheduler(8);
  std::atomic<int> sum{0};
  scheduler.ParallelFor(
      3, [&sum](size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 3);  // 0 + 1 + 2
}

TEST(TaskSchedulerTest, DefaultsToAtLeastOneThread) {
  TaskScheduler scheduler(0);
  EXPECT_GE(scheduler.num_threads(), 1u);
  EXPECT_EQ(scheduler.num_threads(), ResolveThreadCount(0));
  EXPECT_EQ(ResolveThreadCount(3), 3u);
}

TEST(TaskSchedulerTest, UnevenTaskCostsAllComplete) {
  // One index 100x the cost of the rest: the shared cursor must spread
  // the small ones across the other threads instead of queueing them
  // behind the big one.
  TaskScheduler scheduler(4);
  std::atomic<uint64_t> total{0};
  scheduler.ParallelFor(64, [&](size_t i) {
    const size_t spins = (i == 0) ? 2000000 : 20000;
    uint64_t x = i + 1;
    for (size_t k = 0; k < spins; ++k) x = x * 2862933555777941757ULL + 3037;
    total.fetch_add(x | 1);
  });
  EXPECT_NE(total.load(), 0u);
}

// With T = 2 and three indices, no thread can finish its index before
// all three have arrived, so a complete rendezvous proves three
// distinct threads ran the call: both workers and the caller. The wait is
// bounded so a broken pool fails the test instead of hanging it.
TEST(TaskSchedulerTest, ParallelForRunsOnWorkersAndCaller) {
  TaskScheduler scheduler(2);
  Mutex mu;
  std::set<std::thread::id> ids;
  std::atomic<int> arrived{0};
  scheduler.ParallelFor(3, [&](size_t) {
    {
      MutexLock lock(mu);
      ids.insert(std::this_thread::get_id());
    }
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (arrived.load() < 3 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  MutexLock lock(mu);
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u);
}

// A ParallelFor from inside one of the pool's tasks runs inline on the
// thread that made it, and still covers every index once.
TEST(TaskSchedulerTest, NestedCallRunsInline) {
  TaskScheduler scheduler(2);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> foreign{0};
  scheduler.ParallelFor(kOuter, [&](size_t outer) {
    const std::thread::id self = std::this_thread::get_id();
    scheduler.ParallelFor(kInner, [&](size_t inner) {
      if (std::this_thread::get_id() != self) foreign.fetch_add(1);
      hits[outer * kInner + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(foreign.load(), 0);
}

TEST(TaskSchedulerTest, NestedCallOnOneWorkerRunsInline) {
  TaskScheduler scheduler(1);
  std::atomic<int> count{0};
  scheduler.ParallelFor(3, [&](size_t) {
    scheduler.ParallelFor(3, [&](size_t) {
      scheduler.ParallelFor(3, [&](size_t) { count.fetch_add(1); });
    });
  });
  EXPECT_EQ(count.load(), 27);
}

TEST(TaskSchedulerTest, ExceptionPropagatesAndPoolStaysUsable) {
  TaskScheduler scheduler(2);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(scheduler.ParallelFor(64,
                                     [&](size_t i) {
                                       if (i == 5) {
                                         throw std::runtime_error("failed");
                                       }
                                       hits[i].fetch_add(1);
                                     }),
               std::runtime_error);
  // Indices are claimed one at a time, so only the throwing index is
  // cut short; every other index ran before the call returned.
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), i == 5 ? 0 : 1) << i;
  }
  std::atomic<int> ran{0};
  scheduler.ParallelFor(100, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 100);
}

// 1,000 calls on one pool run on the same T workers plus the caller:
// nothing spawns a thread per call.
TEST(TaskSchedulerTest, RepeatedCallsReuseWorkers) {
  TaskScheduler scheduler(2);
  Mutex mu;
  std::set<std::thread::id> ids;
  for (int call = 0; call < 1000; ++call) {
    std::atomic<int> sum{0};
    scheduler.ParallelFor(16, [&](size_t i) {
      sum.fetch_add(static_cast<int>(i));
      MutexLock lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    ASSERT_EQ(sum.load(), 120) << "call " << call;
  }
  MutexLock lock(mu);
  EXPECT_LE(ids.size(), scheduler.num_threads() + 1);
}

// Two external threads calling the same pool: the second waits for the
// first call to finish, and both cover their indices.
TEST(TaskSchedulerTest, ConcurrentExternalCallersBothComplete) {
  TaskScheduler scheduler(2);
  std::vector<std::atomic<int>> hits(2 * 500);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 20; ++round) {
        scheduler.ParallelFor(
            500, [&](size_t i) { hits[c * 500 + i].fetch_add(1); });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 20);
}

TEST(TaskSchedulerTest, StatsCountClaimedIndices) {
  TaskScheduler scheduler(2);
  // 100 indices on T = 2: each index is one claim.
  scheduler.ParallelFor(100, [](size_t) {});
  EXPECT_EQ(scheduler.GetStats().executed, 100u);
  // Inline calls claim nothing.
  scheduler.ParallelFor(1, [](size_t) {});
  EXPECT_EQ(scheduler.GetStats().executed, 100u);
}

}  // namespace
}  // namespace faircap
