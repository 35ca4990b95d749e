// TaskScheduler: the flat worker pool behind every parallel phase of the
// pipeline (Step-2 grouping patterns, greedy trial scoring, segmented CSV
// parsing). Its one operation, ParallelFor(n, fn), hands out the indices
// of [0, n) one at a time: the T workers AND the calling thread each
// claim the next index from one atomic cursor, so a call runs on T + 1
// threads and a costly index never holds cheap ones behind it (Step 2
// passes its patterns largest first through fn). Nothing nests: a
// ParallelFor made from inside one of the pool's own tasks runs inline,
// and a second external caller waits for the running call. Which thread
// claims an index never shows in a result: callers index results by i
// and merge in a fixed order.

#ifndef FAIRCAP_UTIL_TASK_SCHEDULER_H_
#define FAIRCAP_UTIL_TASK_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace faircap {

/// The thread count a `num_threads` knob asks for: `requested`, or the
/// hardware concurrency (at least 1) when `requested` is 0.
size_t ResolveThreadCount(size_t requested);

class TaskScheduler {
 public:
  /// Execution counters (surfaced by the CLI after a run).
  struct Stats {
    uint64_t executed = 0;  ///< indices claimed by workers or callers
  };

  /// Starts ResolveThreadCount(num_threads) workers, named `worker-<i>`
  /// in the trace, that live as long as the pool.
  explicit TaskScheduler(size_t num_threads = 0);
  ~TaskScheduler();
  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) on the workers and the calling thread,
  /// and returns when every index has run. An index that throws does not
  /// stop the others, and the first exception is rethrown here. Runs
  /// inline with one worker, with n == 1, or when called from inside one
  /// of this pool's tasks.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  Stats GetStats() const {
    return Stats{executed_.load(std::memory_order_relaxed)};
  }

 private:
  /// One ParallelFor call, on the caller's stack while it runs.
  struct Job {
    const std::function<void(size_t)>* fn;
    size_t n;
    std::atomic<size_t> next{0};  // the shared index cursor
  };

  void WorkerLoop(size_t index);
  /// Claims and runs indices of `job` until the cursor passes the end.
  void RunIndices(Job& job) EXCLUDES(mu_);

  Mutex call_mu_;  // held by the external caller for a whole call
  Mutex mu_;
  CondVar wake_;   // workers: a new job was published, or shutdown
  CondVar done_;   // caller: the last joined worker left the job
  Job* job_ GUARDED_BY(mu_) = nullptr;  // open for joining while non-null
  uint64_t generation_ GUARDED_BY(mu_) = 0;  // bumped per published job
  size_t active_ GUARDED_BY(mu_) = 0;        // workers inside job_
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::exception_ptr error_ GUARDED_BY(mu_);  // first failure of the call
  std::atomic<uint64_t> executed_{0};
  std::vector<std::thread> workers_;  // last: the workers use the above
};

}  // namespace faircap

#endif  // FAIRCAP_UTIL_TASK_SCHEDULER_H_
