// Clang Thread Safety Analysis capability macros.
//
// The serving stack's locks — the BlockPool's mutex, the
// PrefixIndex's entry lock, the ThreadPool queue — protect refcount and
// reservation invariants that every correctness claim in the repo rests
// on (bit-exact caches across block sizes, refcounted prefix sharing,
// used <= reserved <= capacity). TSan only sees the
// interleavings the tests happen to run; these macros let clang prove at
// compile time (-Wthread-safety) that every access to guarded state
// happens under the right lock, on every path.
//
// Under clang the macros expand to the thread-safety attributes; under
// gcc/MSVC they vanish, so annotated headers stay portable. Pair them
// with the kf::Mutex / kf::LockGuard wrappers in core/mutex.h — the
// analysis cannot see through std::mutex, which carries no annotations
// in libstdc++.
//
// Usage sketch:
//   class KF_CAPABILITY("mutex") Mutex { ... };
//   kf::Mutex mu_;
//   int value_ KF_GUARDED_BY(mu_);
//   void touch_locked() KF_REQUIRES(mu_);   // caller must hold mu_
//   void touch() KF_EXCLUDES(mu_);          // caller must NOT hold mu_
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define KF_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef KF_THREAD_ANNOTATION
#define KF_THREAD_ANNOTATION(x)  // no-op: analysis is clang-only
#endif

/// Marks a class as a lockable capability (named in diagnostics).
#define KF_CAPABILITY(x) KF_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define KF_SCOPED_CAPABILITY KF_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the given capability.
#define KF_GUARDED_BY(x) KF_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by the given capability
/// (the pointer itself may be read freely).
#define KF_PT_GUARDED_BY(x) KF_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function that acquires the capability and holds it on return.
#define KF_ACQUIRE(...) KF_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function that releases the capability held on entry.
#define KF_RELEASE(...) KF_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function that acquires the capability when it returns the given value.
#define KF_TRY_ACQUIRE(...) \
  KF_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must hold the capability exclusively (the `_locked` contract).
#define KF_REQUIRES(...) KF_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock guard for public entry
/// points of self-locking classes).
#define KF_EXCLUDES(...) KF_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Documents lock-ordering edges for deadlock diagnostics.
#define KF_ACQUIRED_BEFORE(...) \
  KF_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define KF_ACQUIRED_AFTER(...) \
  KF_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Function returning a reference to a capability guarding other state.
#define KF_RETURN_CAPABILITY(x) KF_THREAD_ANNOTATION(lock_returned(x))

/// Last resort: disables the analysis for one function. Not used in
/// src/mem, src/serve, or src/core — the lint gate keeps it that way.
#define KF_NO_THREAD_SAFETY_ANALYSIS \
  KF_THREAD_ANNOTATION(no_thread_safety_analysis)
