// Clang thread-safety capability layer. Every lock in the codebase goes
// through these wrappers so that `clang -Wthread-safety -Werror` can prove,
// at compile time, that each access to guarded state holds the right mutex
// on *every* path — the static complement to the TSan CI job, which only
// sees the interleavings the tests happen to execute.
//
// The attribute macros expand to nothing on non-Clang compilers (GCC would
// warn on the unknown attributes), so the wrappers are exactly a
// std::mutex / std::condition_variable in every build: no virtual calls,
// no extra state, no behaviour change. The static-analysis CI job is the
// one place the annotations are actually checked.
//
// Usage pattern:
//   mutable us3d::Mutex mutex_;
//   int depth_ US3D_GUARDED_BY(mutex_);            // data needs the lock
//   void pump_locked() US3D_REQUIRES(mutex_);      // caller holds the lock
//   us3d::CondVar cv_;
//   // waits are explicit loops so the analysis sees the guarded reads:
//   us3d::MutexLock lock(mutex_);
//   while (!ready_) cv_.wait(mutex_);
//
// Documented escapes (the only sanctioned ones):
//   - obs/seqlock_ring.h SeqlockRing (the ring behind trace spans and
//     structured events) is a seqlock built from std::atomic words and
//     fences; it has no mutex and needs no annotations.
//   - Pure-atomic metric primitives (Counter/Gauge/FixedHistogram) are
//     likewise annotation-free by design.
//   - std::condition_variable::wait needs a std::unique_lock, so
//     CondVar::wait adopts and re-releases the Mutex's underlying
//     std::mutex; that dance is invisible to the analysis by construction
//     (the REQUIRES contract on wait() is what the analysis checks).
#ifndef US3D_COMMON_ANNOTATED_MUTEX_H
#define US3D_COMMON_ANNOTATED_MUTEX_H

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define US3D_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef US3D_THREAD_ANNOTATION
#define US3D_THREAD_ANNOTATION(x)
#endif

/// Marks a type as a capability (lockable) the analysis tracks.
#define US3D_CAPABILITY(x) US3D_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type whose lifetime acquires/releases a capability.
#define US3D_SCOPED_CAPABILITY US3D_THREAD_ANNOTATION(scoped_lockable)
/// The annotated member may only be touched while `x` is held.
#define US3D_GUARDED_BY(x) US3D_THREAD_ANNOTATION(guarded_by(x))
/// The pointee of the annotated pointer may only be touched while `x` is
/// held (the pointer itself is unguarded).
#define US3D_PT_GUARDED_BY(x) US3D_THREAD_ANNOTATION(pt_guarded_by(x))
/// The function acquires the capability and returns with it held.
#define US3D_ACQUIRE(...) US3D_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// The function releases a capability the caller held on entry.
#define US3D_RELEASE(...) US3D_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// The function acquires the capability iff it returns the given value.
#define US3D_TRY_ACQUIRE(...) \
  US3D_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// The caller must already hold the capability (the `_locked` helpers).
#define US3D_REQUIRES(...) US3D_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// The caller must NOT hold the capability (deadlock documentation for
/// public entry points that lock internally).
#define US3D_EXCLUDES(...) US3D_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Tells the analysis the capability is held from this call on — for code
/// (e.g. a callback) that runs under a lock taken by its caller.
#define US3D_ASSERT_CAPABILITY(x) US3D_THREAD_ANNOTATION(assert_capability(x))
/// The function returns a reference to the named capability.
#define US3D_RETURN_CAPABILITY(x) US3D_THREAD_ANNOTATION(lock_returned(x))
/// Opts a function out of analysis. Must carry a comment justifying it;
/// the only sanctioned uses are listed at the top of this header.
#define US3D_NO_THREAD_SAFETY_ANALYSIS \
  US3D_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace us3d {

class CondVar;

/// std::mutex with a capability annotation. Identical layout and cost; the
/// annotation is what lets `GUARDED_BY(mutex_)` members exist.
class US3D_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() US3D_ACQUIRE() { raw_.lock(); }
  void unlock() US3D_RELEASE() { raw_.unlock(); }
  bool try_lock() US3D_TRY_ACQUIRE(true) { return raw_.try_lock(); }

  /// No-op that asserts to the *analysis* that this mutex is held. For
  /// callbacks invoked by a caller that already holds the lock (e.g. the
  /// service delivery sink runs under the session mutex); the runtime
  /// contract is documented at each call site.
  void assert_held() const US3D_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex raw_;
};

/// RAII lock for Mutex — drop-in for std::lock_guard with the scoped
/// capability annotation the analysis needs.
class US3D_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) US3D_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() US3D_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable over Mutex. Waits must be explicit loops
/// (`while (!pred) cv.wait(mutex_);`) — unlike the std predicate overload,
/// that keeps the guarded reads in the annotated function body where the
/// analysis can see them. Internally this is a plain
/// std::condition_variable on the Mutex's std::mutex (not the slower
/// condition_variable_any), so wait/notify performance is unchanged.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mutex` and parks; the mutex is re-held on
  /// return. Spurious wakeups happen — always wait in a loop.
  void wait(Mutex& mutex) US3D_REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.raw_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's MutexLock
  }

  /// wait() with a deadline: returns false if the timeout elapsed without
  /// a notification, true otherwise. Same loop discipline applies — the
  /// predicate must be re-checked on return either way. This is what the
  /// resource profiler's sampler thread parks on, so stop() can interrupt
  /// a sleep instantly via notify.
  bool wait_for(Mutex& mutex, std::chrono::nanoseconds timeout)
      US3D_REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.raw_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();  // ownership stays with the caller's MutexLock
    return status == std::cv_status::no_timeout;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace us3d

#endif  // US3D_COMMON_ANNOTATED_MUTEX_H
