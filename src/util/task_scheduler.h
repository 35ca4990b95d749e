// TaskScheduler: work-stealing execution engine behind every parallel
// phase of the pipeline. In a fixed pool with one global FIFO and a
// blocking Wait(), a task can never wait for child tasks on the same pool
// without risking deadlock. Here each worker owns a Chase–Lev-style deque
// (owner pushes/pops LIFO at the bottom, thieves take FIFO from the top),
// external threads inject through a shared queue, and TaskGroup::Wait()
// *helps* — it finds and executes pending tasks of its own group (own
// deque first, then the injection queue, then other workers' deques)
// instead of blocking while any are runnable. That makes nested
// submission legal and deadlock-free by construction:
//
//   * a task may create a TaskGroup and ParallelFor over it, running its
//     child tasks on the same workers;
//   * Wait() blocks only when every task of its group is already running
//     on some other thread — and those threads bottom out at leaf tasks,
//     so progress is guaranteed;
//   * determinism is unaffected by stealing: callers index results by
//     task id and merge in a fixed order, so which worker ran what never
//     changes a result.
//
// The deques are small and mutex-guarded (tasks here are coarse — a
// grouping pattern's whole lattice run, a CSV chunk parse, a chunk of
// greedy candidates — so queue operations are not the bottleneck; a
// lock-free Chase–Lev buys nothing at this granularity and costs
// TSan-auditable subtlety). Exceptions thrown by tasks are
// captured per group and rethrown from Wait().

#ifndef FAIRCAP_UTIL_TASK_SCHEDULER_H_
#define FAIRCAP_UTIL_TASK_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace faircap {

class TaskScheduler;

/// Completion handle for a set of related tasks. Submit() enqueues work
/// onto the group's scheduler; Wait() executes pending group tasks
/// inline until none remain, then blocks for the stragglers running on
/// other workers, and rethrows the first exception any task raised.
/// A TaskGroup with a null scheduler degrades to inline execution —
/// Submit() runs the task immediately on the calling thread — so
/// sequential paths share the same call shape as parallel ones.
///
/// Wait() is legal from any thread, including a scheduler worker that is
/// itself inside a task (that is the whole point: nested ParallelFor).
/// When called from inside one of this group's own tasks, Wait() waits
/// for every *other* task of the group (the running task cannot wait for
/// itself). Each group is meant to be waited by the thread that submits
/// into it; concurrent Wait() from several threads is safe but the
/// exception (if any) is delivered to only one of them.
class TaskGroup {
 public:
  explicit TaskGroup(TaskScheduler* scheduler = nullptr)
      : scheduler_(scheduler) {}
  /// Waits for stragglers; exceptions still pending at destruction are
  /// dropped (call Wait() yourself to observe them).
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `task`. With a null scheduler, runs it inline instead
  /// (exceptions are captured for Wait() in both cases).
  void Submit(std::function<void()> task);

  /// Executes / waits until every submitted task has finished, then
  /// rethrows the first captured exception, if any.
  void Wait();

  /// Runs fn(i) for i in [0, n) as tasks of this group and waits.
  /// Chunked dynamically (work-stealing balances uneven costs); safe to
  /// call from inside another task — including another ParallelFor — on
  /// the same scheduler.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  TaskScheduler* scheduler() const { return scheduler_; }

 private:
  friend class TaskScheduler;

  /// Completion hook run by the scheduler after each task (also used by
  /// the inline path). Records the first error, decrements pending, and
  /// wakes waiters when the group drains.
  void TaskDone(std::exception_ptr error) EXCLUDES(mu_);
  void RethrowIfError() EXCLUDES(mu_);

  TaskScheduler* scheduler_;
  std::atomic<size_t> pending_{0};
  Mutex mu_;
  CondVar idle_;                               // signaled when pending_ hits 0
  std::exception_ptr error_ GUARDED_BY(mu_);   // first failure
};

/// The worker pool. Each parallel phase (Step-2 grouping patterns, CSV
/// chunk parsing, greedy scoring) runs on one instance, and tasks nested
/// inside it share its workers instead of competing through a second
/// pool.
class TaskScheduler {
 public:
  /// Execution counters (surfaced by the CLI after a run). `executed`
  /// counts every task; `stolen` the ones a worker took from another
  /// worker's deque; `helped` the ones run inline by a Wait()ing thread
  /// instead of blocking.
  struct Stats {
    uint64_t submitted = 0;
    uint64_t executed = 0;
    uint64_t stolen = 0;
    uint64_t helped = 0;
  };

  /// Creates `num_threads` workers (0 means hardware concurrency).
  explicit TaskScheduler(size_t num_threads = 0);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) across the pool and waits. Reentrant:
  /// legal from inside a task of this scheduler (a fresh TaskGroup backs
  /// each call).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  Stats GetStats() const;

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group;
  };

  /// One worker: a deque (back = owner side, front = steal side) behind
  /// a private mutex, plus the thread itself.
  struct Worker {
    Mutex mu;
    std::deque<Task> deque GUARDED_BY(mu);
    std::thread thread;
  };

  void WorkerLoop(size_t index);

  /// Enqueues a task of `group`: onto the calling worker's own deque when
  /// the caller is one of this scheduler's workers, else onto the shared
  /// injection queue.
  void Enqueue(TaskGroup* group, std::function<void()> fn);

  /// Generic acquisition for the worker loop: own deque (LIFO), then the
  /// injection queue, then stealing (FIFO) from siblings.
  bool TryGetTask(size_t worker_index, Task* out);

  /// Wait()-side acquisition: a pending task belonging to `group`, from
  /// anywhere (own deque, injection queue, any worker's deque). Scans
  /// whole deques, not just the steal end, so a group task can never be
  /// buried out of its waiter's reach.
  bool TryGetGroupTask(TaskGroup* group, Task* out);

  /// Runs the task and fires its group's completion hook.
  void Execute(Task task);

  std::vector<std::unique_ptr<Worker>> workers_;
  Mutex injected_mu_;
  std::deque<Task> injected_ GUARDED_BY(injected_mu_);  // external submissions
  Mutex sleep_mu_;                  // worker idle/wake handshake
  CondVar wake_;
  std::atomic<size_t> num_queued_{0};  // tasks sitting in any queue
  bool shutdown_ GUARDED_BY(sleep_mu_) = false;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> stolen_{0};
  std::atomic<uint64_t> helped_{0};
};

}  // namespace faircap

#endif  // FAIRCAP_UTIL_TASK_SCHEDULER_H_
