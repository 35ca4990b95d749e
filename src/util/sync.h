// Annotated synchronization primitives for Clang Thread Safety Analysis.
//
// std::mutex / std::condition_variable carry no capability attributes in
// libstdc++, so the analysis cannot connect a std::lock_guard to the
// fields it protects. These thin wrappers add zero runtime cost (every
// method is an inline forward) but give the analysis the ACQUIRE/RELEASE
// edges it needs. All mutex-protected state in this codebase uses
// faircap::Mutex + GUARDED_BY; see util/thread_annotations.h for the
// conventions.
//
// CondVar::Wait deliberately takes the Mutex by reference instead of a
// std::unique_lock: the analysis tracks the capability on the Mutex
// object, and the adopt/release dance below keeps the underlying
// std::condition_variable::wait semantics (atomic unlock-sleep-relock)
// intact.

#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace faircap {

class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // The raw std::mutex, for interop with std:: wait machinery (CondVar
  // below). Callers must not lock/unlock through it directly — that
  // would bypass the analysis.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

// RAII lock holder, the std::lock_guard / std::unique_lock replacement.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() {
    if (held_) mu_.Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Early release (unlock-before-scope-end), e.g. to drop the lock
  // before notifying or before running expensive work.
  void Release() RELEASE() {
    mu_.Unlock();
    held_ = false;
  }

 private:
  Mutex& mu_;
  bool held_ = true;
};

// Condition variable bound to faircap::Mutex. Waits require the caller
// to hold the mutex — enforced by the analysis via REQUIRES.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, sleeps, and re-acquires before returning.
  void Wait(Mutex& mu) REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS {
    // Adopt the already-held lock so std::condition_variable can do its
    // atomic unlock-and-sleep; release() hands ownership back to the
    // caller's MutexLock without unlocking. Net capability change: none,
    // which is exactly what REQUIRES(mu) promises.
    std::unique_lock<std::mutex> lk(mu.native(), std::adopt_lock);
    cv_.wait(lk);
    lk.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace faircap
