#include "util/task_scheduler.h"

#include <cassert>
#include <chrono>
#include <string>
#include <utility>

#include "util/obs/metrics.h"
#include "util/obs/trace.h"

namespace faircap {

namespace {

// Worker identity of the current thread (null scheduler when the thread
// is not a scheduler worker). Lets Submit() route to the caller's own
// deque and Wait() pop it LIFO.
thread_local TaskScheduler* tls_scheduler = nullptr;
thread_local size_t tls_worker_index = 0;

// Stack of groups whose tasks are executing on this thread right now.
// Wait() walks it to discount its own frames: a task waiting on its own
// group must not wait for itself (Wait() from inside a submitted task is
// a silent deadlock in a fixed pool with a blocking wait).
struct RunningFrame {
  TaskGroup* group;
  RunningFrame* prev;
};
thread_local RunningFrame* tls_running = nullptr;

size_t RunningFramesOf(const TaskGroup* group) {
  size_t count = 0;
  for (RunningFrame* f = tls_running; f != nullptr; f = f->prev) {
    if (f->group == group) ++count;
  }
  return count;
}

}  // namespace

// ---------------------------------------------------------------------------
// TaskGroup

TaskGroup::~TaskGroup() {
  try {
    Wait();
  } catch (...) {
    // Destructor must not throw; observing task errors requires an
    // explicit Wait().
  }
}

void TaskGroup::Submit(std::function<void()> task) {
  if (scheduler_ == nullptr) {
    // Inline degradation: same completion/exception protocol, no queues.
    pending_.fetch_add(1, std::memory_order_relaxed);
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    TaskDone(std::move(error));
    return;
  }
  scheduler_->Enqueue(this, std::move(task));
}

void TaskGroup::TaskDone(std::exception_ptr error) {
  // The whole completion protocol runs under mu_. This is a lifetime
  // guarantee, not just a wakeup ordering: a waiter that observes the
  // final decrement — even through Wait()'s lock-free fast path — must
  // acquire mu_ once before returning, which cannot happen until this
  // critical section releases. Without that handshake the waiter could
  // destroy the group (per-evaluation groups are stack-local) while the
  // finishing task is still inside notify, a use-after-free that shows
  // up as a worker hung on a dead mutex.
  MutexLock lock(mu_);
  if (error != nullptr && error_ == nullptr) error_ = std::move(error);
  const size_t left = pending_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  // Wake waiters at 0 (a plain Wait) and at 1 (a Wait from inside one of
  // this group's own tasks discounts its own frame and drains at 1);
  // deeper same-group nesting is covered by the waiters' periodic rescan.
  if (left <= 1) idle_.NotifyAll();
}

void TaskGroup::RethrowIfError() {
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    error = std::exchange(error_, nullptr);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void TaskGroup::Wait() {
  // Frames of this group already executing on *this* thread can never be
  // waited out from inside themselves; everything else must drain.
  const size_t self = RunningFramesOf(this);
  while (pending_.load(std::memory_order_acquire) > self) {
    TaskScheduler::Task task;
    if (scheduler_ != nullptr && scheduler_->TryGetGroupTask(this, &task)) {
      scheduler_->helped_.fetch_add(1, std::memory_order_relaxed);
      scheduler_->Execute(std::move(task));
      continue;
    }
    // Every remaining task is running on another thread. Those threads
    // bottom out at leaf tasks, so this wait is bounded; the timeout is a
    // belt-and-braces rescan, not a correctness requirement (both TaskDone
    // and Enqueue notify, so any state change wakes this immediately).
    MutexLock lock(mu_);
    if (pending_.load(std::memory_order_acquire) > self) {
      idle_.WaitFor(mu_, std::chrono::milliseconds(1));
    }
  }
  if (self == 0) {
    RethrowIfError();  // takes mu_: synchronizes with the final TaskDone
  } else {
    // Synchronize with the final TaskDone before returning (it holds mu_
    // across its decrement+notify; see the lifetime note there).
    MutexLock lock(mu_);
  }
}

void TaskGroup::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (scheduler_ == nullptr || scheduler_->num_threads() <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Dynamic chunking: enough chunks that stealing can balance uneven
  // costs, few enough that dispatch stays negligible. The shared cursor
  // only affects which worker runs which indices — results are indexed
  // by i, so scheduling order never shows in the output.
  const size_t chunks = std::min(n, scheduler_->num_threads() * 4);
  const size_t chunk_size = (n + chunks - 1) / chunks;
  auto next_chunk = std::make_shared<std::atomic<size_t>>(0);
  for (size_t c = 0; c < chunks; ++c) {
    Submit([next_chunk, chunk_size, n, &fn] {
      for (;;) {
        const size_t chunk =
            next_chunk->fetch_add(1, std::memory_order_relaxed);
        const size_t begin = chunk * chunk_size;
        if (begin >= n) return;
        const size_t end = std::min(begin + chunk_size, n);
        for (size_t i = begin; i < end; ++i) fn(i);
      }
    });
  }
  Wait();
}

// ---------------------------------------------------------------------------
// TaskScheduler

TaskScheduler::TaskScheduler(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 4;
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Threads start only after every Worker exists: a fast first worker
  // must not steal-scan a vector that is still growing.
  for (size_t i = 0; i < num_threads; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& instances = registry.GetCounter("scheduler.instances");
  instances.Increment();
  registry.GetGauge("scheduler.workers")
      .Set(static_cast<double>(num_threads));
}

TaskScheduler::~TaskScheduler() {
  {
    MutexLock lock(sleep_mu_);
    shutdown_ = true;
  }
  wake_.NotifyAll();
  for (auto& w : workers_) w->thread.join();
  assert(num_queued_.load() == 0 &&
         "tasks left behind: a TaskGroup outlived its scheduler");
  // Flush lifetime totals into the global registry once, at teardown:
  // zero hot-path cost, and the run report (written after the pipeline
  // destroys its scheduler) sees the full per-run numbers.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("scheduler.submitted")
      .Add(submitted_.load(std::memory_order_relaxed));
  registry.GetCounter("scheduler.executed")
      .Add(executed_.load(std::memory_order_relaxed));
  registry.GetCounter("scheduler.stolen")
      .Add(stolen_.load(std::memory_order_relaxed));
  registry.GetCounter("scheduler.helped")
      .Add(helped_.load(std::memory_order_relaxed));
}

void TaskScheduler::Enqueue(TaskGroup* group, std::function<void()> fn) {
  group->pending_.fetch_add(1, std::memory_order_relaxed);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  Task task{std::move(fn), group};
  if (tls_scheduler == this) {
    Worker& self = *workers_[tls_worker_index];
    MutexLock lock(self.mu);
    self.deque.push_back(std::move(task));
  } else {
    MutexLock lock(injected_mu_);
    injected_.push_back(std::move(task));
  }
  num_queued_.fetch_add(1, std::memory_order_release);
  {
    // Empty critical section: orders the wake after a racing sleeper's
    // queue recheck, so the notify cannot slip between its check and its
    // wait.
    MutexLock lock(sleep_mu_);
  }
  wake_.NotifyOne();
  // A Wait() blocked on this group must also rescan: the new task might
  // be the one it can help with. Notify under the lock — the group must
  // not be touched after a waiter could have observed completion.
  {
    MutexLock lock(group->mu_);
    group->idle_.NotifyAll();
  }
}

bool TaskScheduler::TryGetTask(size_t worker_index, Task* out) {
  // Own deque, owner side (LIFO keeps the innermost-spawned work local
  // and cache-hot).
  {
    Worker& self = *workers_[worker_index];
    MutexLock lock(self.mu);
    if (!self.deque.empty()) {
      *out = std::move(self.deque.back());
      self.deque.pop_back();
      num_queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // Injection queue (external submissions), FIFO.
  {
    MutexLock lock(injected_mu_);
    if (!injected_.empty()) {
      *out = std::move(injected_.front());
      injected_.pop_front();
      num_queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // Steal from a sibling, thief side (FIFO takes the oldest, typically
  // largest-remaining task — classic work-stealing heuristic).
  const size_t n = workers_.size();
  for (size_t offset = 1; offset < n; ++offset) {
    Worker& victim = *workers_[(worker_index + offset) % n];
    MutexLock lock(victim.mu);
    if (!victim.deque.empty()) {
      *out = std::move(victim.deque.front());
      victim.deque.pop_front();
      num_queued_.fetch_sub(1, std::memory_order_relaxed);
      stolen_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool TaskScheduler::TryGetGroupTask(TaskGroup* group, Task* out) {
  // Scans whole deques rather than just the steal end: a waiter must be
  // able to reach ANY queued task of its group, or it could block while
  // runnable work sits buried under another group's tasks. Deques are
  // short (tasks are coarse), so the scan is cheap.
  auto take_from = [&](std::deque<Task>& deque) {
    for (auto it = deque.end(); it != deque.begin();) {
      --it;  // newest-first mirrors the owner's LIFO order
      if (it->group == group) {
        *out = std::move(*it);
        deque.erase(it);
        num_queued_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  };
  if (tls_scheduler == this) {
    Worker& self = *workers_[tls_worker_index];
    MutexLock lock(self.mu);
    if (take_from(self.deque)) return true;
  }
  {
    MutexLock lock(injected_mu_);
    if (take_from(injected_)) return true;
  }
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (tls_scheduler == this && i == tls_worker_index) continue;
    Worker& victim = *workers_[i];
    MutexLock lock(victim.mu);
    // Not counted as stolen: the caller counts it as helped, and the two
    // stats are meant to partition the executed tasks.
    if (take_from(victim.deque)) return true;
  }
  return false;
}

void TaskScheduler::Execute(Task task) {
  RunningFrame frame{task.group, tls_running};
  tls_running = &frame;
  std::exception_ptr error;
  try {
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  tls_running = frame.prev;
  executed_.fetch_add(1, std::memory_order_relaxed);
  task.group->TaskDone(std::move(error));
}

void TaskScheduler::WorkerLoop(size_t index) {
  tls_scheduler = this;
  tls_worker_index = index;
  obs::SetThreadTraceName("worker-" + std::to_string(index));
  for (;;) {
    Task task;
    if (TryGetTask(index, &task)) {
      Execute(std::move(task));
      continue;
    }
    // Manual wait loop (not the predicate overload): the predicate reads
    // the guarded shutdown_ flag, and thread-safety analysis cannot see
    // into a lambda invoked by std:: wait machinery. Spelled out, every
    // shutdown_ access visibly happens under sleep_mu_.
    MutexLock lock(sleep_mu_);
    if (shutdown_ && num_queued_.load(std::memory_order_acquire) == 0) {
      break;
    }
    while (!shutdown_ &&
           num_queued_.load(std::memory_order_acquire) == 0) {
      wake_.Wait(sleep_mu_);
    }
    if (shutdown_ && num_queued_.load(std::memory_order_acquire) == 0) {
      break;
    }
  }
  tls_scheduler = nullptr;
}

void TaskScheduler::ParallelFor(size_t n,
                                const std::function<void(size_t)>& fn) {
  TaskGroup group(this);
  group.ParallelFor(n, fn);
}

TaskScheduler::Stats TaskScheduler::GetStats() const {
  Stats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.executed = executed_.load(std::memory_order_relaxed);
  stats.stolen = stolen_.load(std::memory_order_relaxed);
  stats.helped = helped_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace faircap
