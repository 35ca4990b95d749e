// Runtime behavior of the annotated sync layer (util/sync.h) — the
// compile-time side (the analysis firing on Clang) is proven by the
// configure-time fixture self-check in cmake/ThreadSafety.cmake:
// tests/fixtures/thread_safety_negative.cc must FAIL to compile and
// tests/fixtures/thread_safety_positive.cc must pass, or configuration
// aborts. Here we pin the wrapper semantics the whole codebase now
// leans on: Mutex exclusion, MutexLock early release, CondVar wait /
// notify through the adopt-lock bridge.

#include "util/sync.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/thread_annotations.h"

namespace faircap {
namespace {

TEST(MutexTest, ProvidesMutualExclusion) {
  Mutex mu;
  int counter = 0;  // guarded by mu by convention (local test state)
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(MutexTest, TryLockFailsWhenHeldAndSucceedsWhenFree) {
  Mutex mu;
  mu.Lock();
  std::atomic<bool> locked{true};
  std::thread other([&] {
    // try_lock from another thread while held must fail...
    EXPECT_FALSE(mu.TryLock());
    locked.store(false);
  });
  other.join();
  EXPECT_FALSE(locked.load());
  mu.Unlock();
  // ...and succeed once released.
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexLockTest, ReleaseUnlocksEarly) {
  Mutex mu;
  {
    MutexLock lock(mu);
    lock.Release();
    // The mutex must be free now, well before scope end.
    EXPECT_TRUE(mu.TryLock());
    mu.Unlock();
  }
  // Destructor after Release() must not double-unlock (UB would likely
  // abort or corrupt); acquiring again proves the mutex is healthy.
  MutexLock lock(mu);
}

TEST(CondVarTest, WaitWakesOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    EXPECT_TRUE(ready);
  });
  {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  }
  waiter.join();
}

TEST(CondVarTest, WaitReacquiresTheMutex) {
  // After Wait returns, the caller must hold the mutex again: two waiters
  // mutating shared state inside their wait loops never race.
  Mutex mu;
  CondVar cv;
  int phase = 0;
  int observed_inside_wait_loop = 0;
  std::vector<std::thread> waiters;
  for (int t = 0; t < 4; ++t) {
    waiters.emplace_back([&] {
      MutexLock lock(mu);
      while (phase == 0) cv.Wait(mu);
      // If Wait failed to re-lock, these increments would race.
      ++observed_inside_wait_loop;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  {
    MutexLock lock(mu);
    phase = 1;
    cv.NotifyAll();
  }
  for (auto& t : waiters) t.join();
  EXPECT_EQ(observed_inside_wait_loop, 4);
}

// The annotation macros must be compilable in every position the
// codebase uses them, under Clang AND GCC (where they expand to
// nothing). This class is the vocabulary check; it needs no runtime
// assertions beyond construction.
class AnnotatedVocabulary {
 public:
  void Locked() REQUIRES(mu_) { ++value_; }
  void Excluded() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    Locked();
  }
  void Acquire() ACQUIRE(mu_) { mu_.Lock(); }
  void Release() RELEASE(mu_) { mu_.Unlock(); }
  bool TryAcquire() TRY_ACQUIRE(true, mu_) { return mu_.TryLock(); }
  int Unsafe() NO_THREAD_SAFETY_ANALYSIS { return value_; }

 private:
  Mutex mu_;
  int value_ GUARDED_BY(mu_) = 0;
};

TEST(ThreadAnnotationsTest, VocabularyCompilesAndRuns) {
  AnnotatedVocabulary v;
  v.Excluded();
  v.Acquire();
  v.Locked();
  v.Release();
  ASSERT_TRUE(v.TryAcquire());
  v.Locked();
  v.Release();
  EXPECT_EQ(v.Unsafe(), 3);
}

}  // namespace
}  // namespace faircap
