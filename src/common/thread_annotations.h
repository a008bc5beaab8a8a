#ifndef L2R_COMMON_THREAD_ANNOTATIONS_H_
#define L2R_COMMON_THREAD_ANNOTATIONS_H_

/// Clang thread-safety-analysis attribute macros (no-ops elsewhere).
///
/// Conventions (see README "Static analysis & sanitizers"):
///  - Every mutex member is an l2r::Mutex (common/mutex.h) — the
///    capability type the analysis tracks; raw std::mutex members are
///    rejected by scripts/lint_concurrency.py.
///  - Every piece of data a mutex protects carries L2R_GUARDED_BY(mu)
///    (L2R_PT_GUARDED_BY for the pointee of a pointer member).
///  - Private helpers that assume the lock is already held are named
///    *Locked() and annotated L2R_REQUIRES(mu).
///  - Public entry points that must NOT be called with the lock held
///    (they acquire it themselves) may add L2R_EXCLUDES(mu) where a
///    self-deadlock is a plausible call pattern.
///
/// The analysis is enabled with -Wthread-safety (added for Clang builds
/// by the root CMakeLists; combined with -Werror it is a hard gate in
/// the clang-threadsafety CI job). GCC compiles the same code with the
/// macros expanding to nothing.
///
/// Memory-order conventions (the reference the lint's "explicit
/// memory_order everywhere" rule points at). Every atomic access names
/// its order, and the comment beside it says why:
///  - Pure tallies and knobs are relaxed. A stats counter, a ticket
///    draw or a settle-cap knob is an *independent* atomic: no thread
///    ever reads one to infer that a write to other memory has happened,
///    so no acquire/release pairing is needed. Counter integrity comes
///    from RMW atomicity alone — fetch_add never loses increments — and a
///    compare_exchange loop that keeps one location saturating or
///    monotonic is guaranteed by C++'s per-object modification order.
///    Cross-counter skew in a snapshot is harmless by design: a racing
///    reader may see one tally fresh and another stale, never a corrupt
///    count.
///  - Anything that *publishes* data (a flag or counter another thread
///    reads to conclude other memory is ready) is release on the write
///    side and acquire on the read side, with a comment pairing the two.
///    A relaxed counter that starts being read that way must graduate.

#if defined(__clang__) && defined(__has_attribute)
#define L2R_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define L2R_THREAD_ANNOTATION_(x)  // no-op on non-Clang compilers
#endif

/// Declares a type to be a capability ("mutex" in diagnostics).
#define L2R_CAPABILITY(x) L2R_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type whose lifetime acquires/releases a capability.
#define L2R_SCOPED_CAPABILITY L2R_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define L2R_GUARDED_BY(x) L2R_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x` (the pointer
/// itself may be read freely).
#define L2R_PT_GUARDED_BY(x) L2R_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function requires the listed capabilities to be held on entry (and
/// does not release them).
#define L2R_REQUIRES(...) \
  L2R_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function requires the listed capabilities to be held *shared* on
/// entry (reader side of a SharedMutex).
#define L2R_REQUIRES_SHARED(...) \
  L2R_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (held on return).
#define L2R_ACQUIRE(...) \
  L2R_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function acquires the listed capabilities in shared mode.
#define L2R_ACQUIRE_SHARED(...) \
  L2R_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// Function releases the listed capabilities.
#define L2R_RELEASE(...) \
  L2R_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function releases capabilities held in shared mode.
#define L2R_RELEASE_SHARED(...) \
  L2R_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// Function attempts to acquire; the first argument is the return value
/// that signals success, e.g. L2R_TRY_ACQUIRE(true).
#define L2R_TRY_ACQUIRE(...) \
  L2R_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called while holding the listed capabilities
/// (it acquires them itself — a documented anti-deadlock contract).
#define L2R_EXCLUDES(...) L2R_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the capability protecting its result.
#define L2R_RETURN_CAPABILITY(x) L2R_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: function deliberately opts out of the analysis. Every
/// use must carry a comment justifying why the analysis cannot see the
/// invariant (e.g. lock handed across threads).
#define L2R_NO_THREAD_SAFETY_ANALYSIS \
  L2R_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // L2R_COMMON_THREAD_ANNOTATIONS_H_
