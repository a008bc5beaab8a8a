#ifndef L2R_COMMON_MUTEX_H_
#define L2R_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace l2r {

/// The repo's one mutex type: a std::mutex wrapped as a Clang
/// thread-safety *capability*, so L2R_GUARDED_BY / L2R_REQUIRES
/// relationships against it are machine-checked under -Wthread-safety.
/// (libstdc++'s std::mutex carries no capability attribute, so the
/// analysis cannot track it directly — which is why
/// scripts/lint_concurrency.py rejects raw std::mutex members outside
/// this file.)
///
/// Both naming conventions are provided on purpose: Lock/Unlock/TryLock
/// are the annotated spellings used by l2r code and the analysis;
/// lock/unlock/try_lock satisfy the standard Lockable requirements so
/// Mutex composes with std::unique_lock, std::scoped_lock and
/// std::condition_variable_any (see CondVar below).
class L2R_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() L2R_ACQUIRE() { mu_.lock(); }
  void Unlock() L2R_RELEASE() { mu_.unlock(); }
  bool TryLock() L2R_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // Standard Lockable interface (std::unique_lock, CondVar). These are
  // annotated too, so direct calls remain visible to the analysis.
  void lock() L2R_ACQUIRE() { mu_.lock(); }
  void unlock() L2R_RELEASE() { mu_.unlock(); }
  bool try_lock() L2R_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;  // lint:allow-raw-mutex (the capability wrapper itself)
};

/// RAII lock for Mutex — the std::lock_guard / std::unique_lock of this
/// codebase, visible to the thread-safety analysis as a scoped
/// capability. Supports the unlock-work-relock pattern of drain loops:
///
///   MutexLock lock(mu_);
///   ...
///   lock.Unlock();   // heavy work outside the lock
///   ...
///   lock.Lock();
///
/// The destructor releases only if currently held.
class L2R_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) L2R_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.Lock();
  }
  ~MutexLock() L2R_RELEASE() {
    if (held_) mu_.Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily releases the mutex (e.g. around a blocking drain).
  void Unlock() L2R_RELEASE() {
    held_ = false;
    mu_.Unlock();
  }
  /// Reacquires after Unlock().
  void Lock() L2R_ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_;
};

/// Reader-writer capability: a std::shared_mutex wrapped the same way
/// Mutex wraps std::mutex, so shared (reader) and exclusive (writer)
/// acquisitions are both machine-checked under -Wthread-safety. The
/// archetypal user is the world update channel (world/update_channel.h):
/// queries hold the gate shared for their whole run, so every in-flight
/// query completes on the epoch it started on, while an update batch
/// holds it exclusive — weight mutation can never tear under a reader.
class L2R_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() L2R_ACQUIRE() { mu_.lock(); }
  void Unlock() L2R_RELEASE() { mu_.unlock(); }
  void LockShared() L2R_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() L2R_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;  // lint:allow-raw-mutex (the capability wrapper)
};

/// RAII exclusive lock over a SharedMutex (the writer side).
class L2R_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) L2R_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() L2R_RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared lock over a SharedMutex (the reader side).
class L2R_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) L2R_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() L2R_RELEASE() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable paired with Mutex. Waits *require* the mutex: the
/// analysis treats the capability as held across the wait (the transient
/// release/reacquire inside is invisible by design, matching the
/// caller-visible contract). Predicate-style waits are deliberately
/// absent — annotated code spells the loop out
/// (`while (!cond) cv.Wait(mu);`) so the guarded reads in the predicate
/// are checked at the call site instead of hiding inside a lambda.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (or spuriously woken). `mu` must be held.
  void Wait(Mutex& mu) L2R_REQUIRES(mu) { cv_.wait(mu); }

  /// Blocks until notified or `deadline`; reports how the wait ended.
  template <typename ClockT, typename Duration>
  std::cv_status WaitUntil(Mutex& mu,
                           const std::chrono::time_point<ClockT, Duration>&
                               deadline) L2R_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline);
  }

  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;  // lint:allow-raw-mutex (the wrapper)
};

}  // namespace l2r

#endif  // L2R_COMMON_MUTEX_H_
