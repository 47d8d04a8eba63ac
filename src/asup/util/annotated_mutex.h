#ifndef ASUP_UTIL_ANNOTATED_MUTEX_H_
#define ASUP_UTIL_ANNOTATED_MUTEX_H_

/// Capability-annotated locking primitives (DESIGN.md §14).
///
/// Every mutex in the codebase is one of the wrapper types below, and every
/// piece of state a mutex protects carries an `ASUP_GUARDED_BY` annotation.
/// Under Clang, `-Wthread-safety -Wthread-safety-beta` (enabled with
/// `-Werror` in the `thread-safety` CI job) then *proves* at compile time
/// what the previous regex lint and TSan runs could only spot-check:
///
///   - a guarded field is read only while its mutex is held (shared or
///     exclusive) and written only under the exclusive side;
///   - a `*Locked` helper declares the lock it assumes via `ASUP_REQUIRES`
///     and every caller demonstrably holds it;
///   - locks with a declared `ASUP_ACQUIRED_BEFORE` order are never taken
///     in inverted order (the corpus-epoch → history DAG of DESIGN.md §13);
///   - a mutex is never acquired twice by one thread (all our mutexes are
///     non-recursive).
///
/// On GCC/MSVC the attribute macros expand to nothing and the wrappers are
/// zero-cost shims over the std primitives, so non-Clang builds compile
/// unchanged. This is the standard capability-analysis idiom (Clang Thread
/// Safety Analysis; cf. abseil's mutex annotations).
///
/// Raw `std::mutex` / `std::lock_guard` / `std::unique_lock` /
/// `std::shared_lock` are banned outside `src/asup/util/` by
/// `asup_lint.py` (rule `asup-raw-mutex`): library code must use `Mutex`,
/// `SharedMutex` and the RAII types below so the analysis sees every
/// acquire and release.
///
/// Limits worth knowing when annotating new state (DESIGN.md §14 has the
/// full guide):
///   - The analysis is intraprocedural: a capability held across a
///     `std::function` or lambda boundary is invisible inside the callee.
///     Write explicit `while (...) lock.Wait(cv);` loops instead of the
///     predicate overload of `condition_variable::wait`.
///   - Fields with *internal* synchronization (std::atomic, AtomicBitmap)
///     must NOT be `ASUP_GUARDED_BY` a mutex that only guards their
///     *identity*: Clang treats any non-const member call as a write, so a
///     legal atomic update under a shared lock would be rejected. Document
///     such fields with a comment naming the lock that guards reassignment.
///   - Dynamically-selected capabilities (a mutex picked from an array by
///     hash) cannot be named by `ASUP_GUARDED_BY`.
///     Embed the mutex next to the data it guards (one `Mutex` per shard
///     struct) so the annotation can refer to a sibling member.

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Attribute macros: Clang's thread-safety attributes, no-ops elsewhere.
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#define ASUP_TSA_HAS_ATTRIBUTE(x) __has_attribute(x)
#else
#define ASUP_TSA_HAS_ATTRIBUTE(x) 0
#endif

#if ASUP_TSA_HAS_ATTRIBUTE(capability)
#define ASUP_TSA(x) __attribute__((x))
#else
#define ASUP_TSA(x)  // no-op outside Clang
#endif

/// Marks a class as a lockable capability ("mutex", "shared_mutex").
#define ASUP_CAPABILITY(x) ASUP_TSA(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define ASUP_SCOPED_CAPABILITY ASUP_TSA(scoped_lockable)

/// Field may be read/written only while holding `x` (shared side suffices
/// for reads, exclusive required for writes).
#define ASUP_GUARDED_BY(x) ASUP_TSA(guarded_by(x))

/// The data a pointer/smart-pointer field points to is guarded by `x`
/// (the pointer itself may additionally be ASUP_GUARDED_BY).
#define ASUP_PT_GUARDED_BY(x) ASUP_TSA(pt_guarded_by(x))

/// Declares lock-ordering: this mutex is always acquired before `...`.
/// Inversions are rejected under -Wthread-safety-beta.
#define ASUP_ACQUIRED_BEFORE(...) ASUP_TSA(acquired_before(__VA_ARGS__))
#define ASUP_ACQUIRED_AFTER(...) ASUP_TSA(acquired_after(__VA_ARGS__))

/// Function requires the caller to hold `...` exclusively / shared. This is
/// the machine-checked form of the `*Locked` naming convention.
#define ASUP_REQUIRES(...) \
  ASUP_TSA(requires_capability(__VA_ARGS__))
#define ASUP_REQUIRES_SHARED(...) \
  ASUP_TSA(requires_shared_capability(__VA_ARGS__))

/// Function acquires / releases the capability itself.
#define ASUP_ACQUIRE(...) ASUP_TSA(acquire_capability(__VA_ARGS__))
#define ASUP_ACQUIRE_SHARED(...) \
  ASUP_TSA(acquire_shared_capability(__VA_ARGS__))
#define ASUP_RELEASE(...) ASUP_TSA(release_capability(__VA_ARGS__))
#define ASUP_RELEASE_SHARED(...) \
  ASUP_TSA(release_shared_capability(__VA_ARGS__))
#define ASUP_TRY_ACQUIRE(...) ASUP_TSA(try_acquire_capability(__VA_ARGS__))

/// Function must be called with `...` NOT held (non-recursive mutexes:
/// public entry points that acquire internally).
#define ASUP_EXCLUDES(...) ASUP_TSA(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (trusted by the analysis).
#define ASUP_ASSERT_CAPABILITY(x) ASUP_TSA(assert_capability(x))

/// Function returns a reference to the mutex guarding its result.
#define ASUP_RETURN_CAPABILITY(x) ASUP_TSA(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Requires a
/// comment explaining why (mirrors the NOLINT-with-reason lint rule).
#define ASUP_NO_THREAD_SAFETY_ANALYSIS \
  ASUP_TSA(no_thread_safety_analysis)

namespace asup {

// ---------------------------------------------------------------------------
// Annotated primitives. Thin wrappers: same codegen as the std types.
// ---------------------------------------------------------------------------

/// Exclusive mutex with capability annotations. Non-recursive.
class ASUP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ASUP_ACQUIRE() {
    mu_.lock();  // NOLINT(asup-manual-lock): the primitive itself
  }
  void Unlock() ASUP_RELEASE() {
    mu_.unlock();  // NOLINT(asup-manual-lock): the primitive itself
  }
  bool TryLock() ASUP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The underlying std::mutex, for condition-variable integration inside
  /// this header only; library code goes through MutexLock::Wait.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// Reader-writer mutex with capability annotations.
class ASUP_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ASUP_ACQUIRE() {
    mu_.lock();  // NOLINT(asup-manual-lock): the primitive itself
  }
  void Unlock() ASUP_RELEASE() {
    mu_.unlock();  // NOLINT(asup-manual-lock): the primitive itself
  }
  void LockShared() ASUP_ACQUIRE_SHARED() {
    mu_.lock_shared();  // NOLINT(asup-manual-lock): the primitive itself
  }
  void UnlockShared() ASUP_RELEASE_SHARED() {
    // NOLINTNEXTLINE(asup-manual-lock): the primitive itself
    mu_.unlock_shared();
  }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock on a Mutex (replaces std::lock_guard /
/// std::unique_lock in library code). Supports condition-variable waits
/// while the analysis still considers the mutex held.
class ASUP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ASUP_ACQUIRE(mu) : lock_(mu.native()) {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() ASUP_RELEASE() = default;  // unlocked by lock_'s destructor

  /// Atomically releases the mutex, waits for a notification, re-acquires.
  /// The capability is held again on return, so no annotation changes
  /// hands. Use in an explicit predicate loop:
  ///   while (!ready_condition) lock.Wait(cv);
  /// (The predicate overload of wait would hide guarded reads inside a
  /// lambda the analysis cannot see into.)
  void Wait(std::condition_variable& cv) { cv.wait(lock_); }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// RAII exclusive (writer) lock on a SharedMutex.
class ASUP_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ASUP_ACQUIRE(mu) : mu_(&mu) {
    mu_->Lock();
  }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

  ~WriterLock() ASUP_RELEASE() { mu_->Unlock(); }

 private:
  SharedMutex* mu_;
};

/// RAII shared (reader) lock on a SharedMutex.
class ASUP_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ASUP_ACQUIRE_SHARED(mu) : mu_(&mu) {
    mu_->LockShared();
  }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

  ~ReaderLock() ASUP_RELEASE() { mu_->UnlockShared(); }

 private:
  SharedMutex* mu_;
};

}  // namespace asup

#endif  // ASUP_UTIL_ANNOTATED_MUTEX_H_
