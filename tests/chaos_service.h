#ifndef L2R_TESTS_CHAOS_SERVICE_H_
#define L2R_TESTS_CHAOS_SERVICE_H_

#include <atomic>
#include <cstdint>

#include "core/l2r.h"
#include "serve/clock.h"

namespace l2r {

struct ChaosOptions {
  /// Seeds the per-query fault draws (see the determinism note below).
  uint64_t seed = 1;
  /// Probability a faulting query returns an injected kInternal error
  /// instead of routing. Errors are never cached (ServingRouter contract)
  /// so they model a flaky backend, not a poisoned one.
  double error_rate = 0;
  /// Probability a faulting query spins `spike_us` on the injected clock
  /// before routing — a backend latency spike the drain path really
  /// feels. Requires a clock that advances on its own (SystemClock) or a
  /// concurrent advancer (ManualClock): the spin never advances time
  /// itself, so a single-threaded ManualClock test with spikes would
  /// hang by construction.
  double spike_rate = 0;
  int64_t spike_us = 0;
  /// Probability a faulting query's successful result is re-tagged
  /// budget_degraded — a backend stuck in a slow-degrade phase. This
  /// deliberately breaks the byte-identity contract (the tag is part of
  /// the result bytes), which is the point: it exercises how admission
  /// and the overload controller react to a rising degrade rate.
  double degrade_rate = 0;
  /// Phased faults: when burst_period > 0, faults fire only for queries
  /// whose arrival index falls in the first `burst_len` of each
  /// `burst_period`-query window — error *bursts*, not a uniform drizzle.
  /// 0 = faults are always armed.
  uint64_t burst_period = 0;
  uint64_t burst_len = 0;
  /// Clock the spike spin watches; null = SystemClock::Shared().
  Clock* clock = nullptr;
};

/// Fault-injection decorator over any QueryService: seeded latency
/// spikes, error bursts and slow-degrade phases, so the overload
/// controller's response to a misbehaving backend is tested instead of
/// hoped for. With all rates 0 it is a byte-transparent passthrough.
/// Test support: only the overload and concurrency stress suites link it.
///
/// Determinism: every fault decision is a pure hash of (seed, n) where n
/// is the query's arrival index at this decorator — no RNG state, no
/// locks. A single-threaded submission sequence therefore reproduces the
/// exact fault trace; concurrent submitters still get a deterministic
/// *rate* but an interleaving-dependent assignment, which is fine for
/// the stress tests that use it.
///
/// Thread-safety: Route is safe from any thread; the only shared state
/// is the atomic arrival counter and the monotonic stat tallies (all
/// relaxed — independent counters, nothing published through them; see
/// common/thread_annotations.h for the memory-order rationale).
class ChaosService final : public QueryService {
 public:
  struct Stats {
    uint64_t queries = 0;
    uint64_t injected_errors = 0;
    uint64_t injected_spikes = 0;
    uint64_t forced_degrades = 0;
  };

  /// `wrapped` (and the clock, when provided) must outlive the decorator.
  explicit ChaosService(QueryService* wrapped,
                        const ChaosOptions& options = {});

  const L2RRouter& router() const override { return wrapped_->router(); }

  Result<RouteResult> Route(L2RQueryContext* ctx, VertexId s, VertexId d,
                            double departure_time) override;

  Stats GetStats() const;
  const ChaosOptions& options() const { return options_; }

 private:
  /// True when query n falls inside a fault window.
  bool InBurst(uint64_t n) const;

  QueryService* wrapped_;
  const ChaosOptions options_;
  Clock* clock_;
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> injected_errors_{0};
  std::atomic<uint64_t> injected_spikes_{0};
  std::atomic<uint64_t> forced_degrades_{0};
};

}  // namespace l2r

#endif  // L2R_TESTS_CHAOS_SERVICE_H_
