#ifndef L2R_COMMON_SEQLOCK_H_
#define L2R_COMMON_SEQLOCK_H_

#include <atomic>
#include <cstdint>

namespace l2r {

/// Sequence lock: a version counter that lets any number of readers copy
/// a small payload without blocking (or being blocked by) the writer.
/// The counter is even when the payload is stable and odd while a write
/// is in progress; a reader copies the payload between two counter reads
/// and discards the copy when the counter moved (a *torn read*). Writers
/// must be serialized externally (here: the owning structure's mutex) —
/// the seqlock only mediates writer-vs-reader visibility, never
/// writer-vs-writer.
///
/// Payload rules: every payload field must be a std::atomic accessed with
/// relaxed loads/stores. Plain (non-atomic) payload reads racing a writer
/// are formal data races — undefined behavior that TSan rightly flags —
/// even though the sequence check would discard the torn value. The
/// fences below provide all the ordering; relaxed payload accesses
/// compile to plain loads/stores on x86/ARM.
///
/// Memory-order contract (the seqlock publication protocol; see
/// common/thread_annotations.h for the repo's rationale conventions):
///
///  - WriteBegin stores seq = odd (relaxed) then issues a release fence:
///    the odd marker is ordered *before* the writer's relaxed payload
///    stores, so a reader that still sees the even value cannot have
///    observed any of the new payload.
///  - WriteEnd stores seq = even with release order: every payload store
///    is ordered before the new even value, so a reader whose second
///    read observes it also observes the full payload.
///  - ReadBegin loads seq with acquire order, pairing with WriteEnd's
///    release store: payload loads cannot float above it.
///  - ReadRetry issues an acquire fence, then re-loads seq (relaxed):
///    the fence keeps the payload loads from sinking below the re-load,
///    so "seq unchanged and even" proves the copy is untorn.
///
/// This is the standard C++ seqlock construction (Boehm, "Can seqlocks
/// get along with programming language memory models?", MSPC'12).
///
/// TSan builds: neither GCC nor Clang TSan models atomic_thread_fence
/// (GCC rejects it outright under -fsanitize=thread). The instrumented
/// build substitutes operations on the sequence word itself — an
/// acq_rel exchange where WriteBegin fenced and an acquire re-load
/// where ReadRetry fenced. TSan tracks happens-before through those
/// per-variable operations, and because instrumented atomics compile to
/// opaque runtime calls the payload accesses cannot be reordered across
/// them, so the substitution is ordering-equivalent in that build.
#if defined(__SANITIZE_THREAD__)
#define L2R_SEQLOCK_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define L2R_SEQLOCK_TSAN 1
#endif
#endif
class SeqLock {
 public:
  using Seq = uint32_t;

  /// True when `seq` was captured outside any write (even counter).
  static constexpr bool Stable(Seq seq) { return (seq & 1u) == 0; }

  /// Writer side — caller holds the external writer lock. Marks the
  /// payload unstable and returns the odd in-progress value.
  Seq WriteBegin() {
    // Relaxed store + release fence: the fence orders this store (and
    // nothing earlier is needed) before the payload stores that follow,
    // per the contract above. Writers are externally serialized, so no
    // RMW is needed.
    const Seq odd = seq_.load(std::memory_order_relaxed) + 1;
#ifdef L2R_SEQLOCK_TSAN
    // TSan fallback (header comment): acq_rel RMW in place of the
    // relaxed store + release fence.
    seq_.exchange(odd, std::memory_order_acq_rel);
#else
    seq_.store(odd, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
#endif
    return odd;
  }

  /// Writer side — publishes the payload written since WriteBegin.
  void WriteEnd(Seq odd) {
    // Release store pairs with ReadBegin's acquire load: payload stores
    // are ordered before the new even counter value.
    seq_.store(odd + 1, std::memory_order_release);
  }

  /// Reader side — capture the counter before copying the payload. When
  /// !Stable(result) a write is in progress: skip the copy and fall back.
  Seq ReadBegin() const {
    // Acquire load pairs with WriteEnd's release store (contract above).
    return seq_.load(std::memory_order_acquire);
  }

  /// Reader side — true when the copy made since ReadBegin is torn (the
  /// counter moved) and must be discarded.
  bool ReadRetry(Seq begin) const {
#ifdef L2R_SEQLOCK_TSAN
    // TSan fallback (header comment): acquire re-load in place of the
    // acquire fence + relaxed re-load.
    return seq_.load(std::memory_order_acquire) != begin;
#else
    // Acquire fence keeps the payload loads above this re-load; the
    // re-load itself can then be relaxed (contract above).
    std::atomic_thread_fence(std::memory_order_acquire);
    return seq_.load(std::memory_order_relaxed) != begin;
#endif
  }

 private:
  std::atomic<Seq> seq_{0};
};

}  // namespace l2r

#endif  // L2R_COMMON_SEQLOCK_H_
