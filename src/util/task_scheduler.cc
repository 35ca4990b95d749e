#include "util/task_scheduler.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/obs/metrics.h"
#include "util/obs/trace.h"

namespace faircap {

namespace {
// The pool whose task this thread is running: set for a worker's whole
// life and for a caller's ParallelFor. A ParallelFor on that same pool
// then runs inline instead of waiting for a call it is part of.
thread_local const TaskScheduler* tls_pool = nullptr;
}  // namespace

size_t ResolveThreadCount(size_t requested) {
  if (requested != 0) return requested;
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

TaskScheduler::TaskScheduler(size_t num_threads) {
  const size_t threads = ResolveThreadCount(num_threads);
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("scheduler.instances").Increment();
  registry.GetGauge("scheduler.workers").Set(static_cast<double>(threads));
}

TaskScheduler::~TaskScheduler() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  wake_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  // Flushed once, at teardown: the run report is written after the
  // pipeline destroys its pool.
  obs::MetricsRegistry::Global()
      .GetCounter("scheduler.executed")
      .Add(executed_.load(std::memory_order_relaxed));
}

void TaskScheduler::ParallelFor(size_t n,
                                const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.size() <= 1 || n == 1 || tls_pool == this) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  MutexLock call(call_mu_);
  Job job{&fn, n};
  {
    MutexLock lock(mu_);
    job_ = &job;
    ++generation_;
  }
  wake_.NotifyAll();
  const TaskScheduler* const outer = std::exchange(tls_pool, this);
  RunIndices(job);
  tls_pool = outer;
  // Every index is claimed: close the job, and let `job` leave this frame
  // once the workers inside it are done.
  MutexLock lock(mu_);
  job_ = nullptr;
  while (active_ > 0) done_.Wait(mu_);
  if (error_ != nullptr) std::rethrow_exception(std::exchange(error_, {}));
}

void TaskScheduler::RunIndices(Job& job) {
  uint64_t claimed = 0;  // flushed once, not per index
  for (;;) {
    const size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) break;
    ++claimed;
    try {
      (*job.fn)(i);
    } catch (...) {
      MutexLock lock(mu_);
      if (error_ == nullptr) error_ = std::current_exception();
    }
  }
  executed_.fetch_add(claimed, std::memory_order_relaxed);
}

void TaskScheduler::WorkerLoop(size_t index) {
  tls_pool = this;
  obs::SetThreadTraceName("worker-" + std::to_string(index));
  uint64_t joined = 0;  // generation of the last job this worker joined
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && (job_ == nullptr || generation_ == joined)) {
        wake_.Wait(mu_);
      }
      if (shutdown_) return;
      job = job_;
      joined = generation_;
      ++active_;
    }
    RunIndices(*job);
    MutexLock lock(mu_);
    if (--active_ == 0) done_.NotifyAll();
  }
}

}  // namespace faircap
