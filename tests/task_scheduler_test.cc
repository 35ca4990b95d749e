// TaskScheduler correctness under stress: randomized nested task graphs
// (groups within groups, uneven task costs, tasks spawning into their
// own group), exception propagation out of Wait() across nesting levels,
// help-first waiting (an external thread's Wait executes tasks instead
// of blocking), Wait and nested ParallelFor from inside worker tasks, and
// inline degradation with a null scheduler. These run
// under the TSan CI job — the scheduler is the one component every
// parallel phase of the pipeline now shares.

#include "util/task_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/random.h"

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
}

TEST(TaskSchedulerTest, NullSchedulerGroupRunsInline) {
  TaskGroup group(nullptr);
  int count = 0;
  group.Submit([&] { ++count; });
  EXPECT_EQ(count, 1);  // ran before Submit returned
  group.ParallelFor(10, [&](size_t) { ++count; });
  group.Wait();
  EXPECT_EQ(count, 11);
}

TEST(TaskSchedulerTest, UnevenTaskCostsAllComplete) {
  // One task 100x the cost of the rest: stealing must spread the small
  // ones across the remaining workers instead of queueing them behind
  // the big one.
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

TEST(TaskSchedulerTest, ExceptionPropagatesFromWait) {
  TaskScheduler scheduler(2);
  TaskGroup group(&scheduler);
  for (int i = 0; i < 8; ++i) {
    group.Submit([i] {
      if (i == 5) throw std::runtime_error("task failed");
    });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  // The group is reusable after the error was delivered.
  std::atomic<int> ran{0};
  group.Submit([&] { ran.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(TaskSchedulerTest, ExceptionCrossesNestingLevels) {
  // A throw three levels down must surface at the outermost Wait: each
  // level's ParallelFor rethrows into its parent task, whose scheduler
  // frame captures it for the next level up.
  TaskScheduler scheduler(4);
  auto nested = [&](auto&& self, size_t depth) -> void {
    TaskGroup group(&scheduler);
    group.ParallelFor(4, [&](size_t i) {
      if (depth == 0) {
        if (i == 3) throw std::runtime_error("deep failure");
        return;
      }
      self(self, depth - 1);
    });
  };
  // ParallelFor waits internally and rethrows.
  EXPECT_THROW(nested(nested, 2), std::runtime_error);
}

TEST(TaskSchedulerTest, ExternalWaitHelpsInsteadOfBlocking) {
  // A scheduler whose single worker is pinned by a long task: the
  // external thread's Wait must execute the remaining tasks itself.
  TaskScheduler scheduler(1);
  std::atomic<bool> release{false};
  std::atomic<int> done{0};
  TaskGroup pinned(&scheduler);
  pinned.Submit([&] {
    while (!release.load()) std::this_thread::yield();
  });
  TaskGroup group(&scheduler);
  for (int i = 0; i < 4; ++i) {
    group.Submit([&] { done.fetch_add(1); });
  }
  group.Wait();  // worker is busy: these four ran on this thread
  EXPECT_EQ(done.load(), 4);
  release.store(true);
  pinned.Wait();
  const TaskScheduler::Stats stats = scheduler.GetStats();
  EXPECT_GE(stats.helped, 4u);
}

TEST(TaskSchedulerTest, TasksCanSpawnIntoTheirOwnGroup) {
  TaskScheduler scheduler(2);
  TaskGroup group(&scheduler);
  std::atomic<int> count{0};
  std::function<void(int)> spawn = [&](int depth) {
    count.fetch_add(1);
    if (depth > 0) {
      group.Submit([&, depth] { spawn(depth - 1); });
      group.Submit([&, depth] { spawn(depth - 1); });
    }
  };
  group.Submit([&] { spawn(4); });
  group.Wait();
  EXPECT_EQ(count.load(), 31);  // 2^5 - 1 nodes of the binary spawn tree
}

// Randomized nested task graphs: arbitrary fan-out, nesting depth, and
// spin costs, across several seeds and worker counts. Every node must
// execute exactly once and the total must be deterministic in the graph
// (not the schedule).
TEST(TaskSchedulerTest, RandomizedNestedGraphsExecuteEveryNodeOnce) {
  for (const uint64_t seed : {7u, 19u, 83u}) {
    for (const size_t workers : {1u, 2u, 5u}) {
      TaskScheduler scheduler(workers);
      std::atomic<uint64_t> nodes{0};
      // Deterministic node budget per (seed): derive each subtree's
      // shape from its own Rng so the expected count is computable by a
      // sequential replay.
      std::function<uint64_t(uint64_t, size_t)> expect_nodes =
          [&](uint64_t node_seed, size_t depth) -> uint64_t {
        Rng rng(node_seed);
        uint64_t expected = 1;
        if (depth == 0) return expected;
        const size_t fanout = 1 + rng.NextBounded(4);
        for (size_t i = 0; i < fanout; ++i) {
          expected += expect_nodes(node_seed * 31 + i + 1, depth - 1);
        }
        return expected;
      };
      std::function<void(uint64_t, size_t)> run = [&](uint64_t node_seed,
                                                      size_t depth) {
        nodes.fetch_add(1);
        Rng rng(node_seed);
        if (depth == 0) return;
        const size_t fanout = 1 + rng.NextBounded(4);
        // Uneven spin before fanning out.
        uint64_t x = node_seed | 1;
        const size_t spins = 100 * (1 + rng.NextBounded(50));
        for (size_t k = 0; k < spins; ++k) {
          x = x * 2862933555777941757ULL + 3037;
        }
        if (x == 0) return;  // never taken; defeats dead-code elimination
        TaskGroup group(&scheduler);
        for (size_t i = 0; i < fanout; ++i) {
          group.Submit(
              [&, i, node_seed] { run(node_seed * 31 + i + 1, depth - 1); });
        }
        group.Wait();
      };
      run(seed, 4);
      EXPECT_EQ(nodes.load(), expect_nodes(seed, 4))
          << "seed " << seed << " workers " << workers;
    }
  }
}

TEST(TaskSchedulerTest, WaitIsIdempotent) {
  TaskScheduler scheduler(2);
  TaskGroup group(&scheduler);
  std::atomic<int> counter{0};
  group.Submit([&counter] { counter.fetch_add(1); });
  group.Wait();
  group.Wait();
  EXPECT_EQ(counter.load(), 1);
}

// Nested ParallelFor from inside a worker task must run the inner loops
// to completion (a fixed pool with a blocking wait deadlocks here).
TEST(TaskSchedulerTest, NestedParallelForFromWorkerCompletes) {
  TaskScheduler scheduler(2);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  scheduler.ParallelFor(kOuter, [&](size_t outer) {
    scheduler.ParallelFor(kInner, [&](size_t inner) {
      hits[outer * kInner + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Three levels deep on a single worker: every inner loop can only make
// progress through the waiting thread's own help.
TEST(TaskSchedulerTest, DeeplyNestedParallelForOnOneWorker) {
  TaskScheduler scheduler(1);
  std::atomic<int> count{0};
  scheduler.ParallelFor(3, [&](size_t) {
    scheduler.ParallelFor(3, [&](size_t) {
      scheduler.ParallelFor(3, [&](size_t) { count.fetch_add(1); });
    });
  });
  EXPECT_EQ(count.load(), 27);
}

// Wait() from inside one of the group's own tasks must not wait for
// itself: it completes once every *other* pending task has finished.
TEST(TaskSchedulerTest, WaitFromWorkerCompletes) {
  TaskScheduler scheduler(2);
  TaskGroup group(&scheduler);
  std::atomic<int> others{0};
  std::atomic<bool> waited{false};
  for (int i = 0; i < 16; ++i) {
    group.Submit([&] { others.fetch_add(1); });
  }
  group.Submit([&] {
    group.Wait();  // must not deadlock on itself
    EXPECT_EQ(others.load(), 16);
    waited.store(true);
  });
  group.Wait();
  EXPECT_TRUE(waited.load());
}

// A task submitting more work into its own group and then waiting for it
// from the worker thread.
TEST(TaskSchedulerTest, SubmitThenWaitFromWorker) {
  TaskScheduler scheduler(2);
  TaskGroup group(&scheduler);
  std::atomic<int> counter{0};
  group.Submit([&] {
    for (int i = 0; i < 8; ++i) {
      group.Submit([&] { counter.fetch_add(1); });
    }
    group.Wait();
    EXPECT_EQ(counter.load(), 8);
    counter.fetch_add(100);
  });
  group.Wait();
  EXPECT_EQ(counter.load(), 108);
}

TEST(TaskSchedulerTest, StatsCountSubmittedAndExecuted) {
  TaskScheduler scheduler(2);
  scheduler.ParallelFor(100, [](size_t) {});
  const TaskScheduler::Stats stats = scheduler.GetStats();
  EXPECT_GT(stats.submitted, 0u);
  EXPECT_EQ(stats.submitted, stats.executed);
}

}  // namespace
}  // namespace faircap
