#include "chaos_service.h"

#include <thread>

#include "common/check.h"
#include "common/hash.h"

namespace l2r {

namespace {

/// Uniform double in [0, 1) hashed from (seed, n, salt): draw k of query
/// n. Independent salts give independent draws, so the error, spike and
/// degrade decisions of one query do not correlate.
double HashDraw(uint64_t seed, uint64_t n, uint64_t salt) {
  const uint64_t h = Mix64(seed ^ Mix64(n + 1) ^ (salt * 0x9e3779b97f4a7c15ULL));
  // 53 mantissa bits -> [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

ChaosService::ChaosService(QueryService* wrapped, const ChaosOptions& options)
    : wrapped_(wrapped),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SystemClock::Shared()) {
  L2R_CHECK(wrapped != nullptr);
  L2R_CHECK(options_.error_rate >= 0 && options_.error_rate <= 1);
  L2R_CHECK(options_.spike_rate >= 0 && options_.spike_rate <= 1);
  L2R_CHECK(options_.degrade_rate >= 0 && options_.degrade_rate <= 1);
  L2R_CHECK(options_.spike_us >= 0);
  L2R_CHECK(options_.burst_period == 0 ||
            options_.burst_len <= options_.burst_period);
}

bool ChaosService::InBurst(uint64_t n) const {
  if (options_.burst_period == 0) return true;
  return (n % options_.burst_period) < options_.burst_len;
}

Result<RouteResult> ChaosService::Route(L2RQueryContext* ctx, VertexId s,
                                        VertexId d, double departure_time) {
  // Relaxed ticket draw: RMW atomicity alone makes each query's number
  // unique, nothing is published through it (common/thread_annotations.h).
  const uint64_t n = seq_.fetch_add(1, std::memory_order_relaxed);
  if (!InBurst(n)) return wrapped_->Route(ctx, s, d, departure_time);

  if (options_.error_rate > 0 &&
      HashDraw(options_.seed, n, 1) < options_.error_rate) {
    injected_errors_.fetch_add(1, std::memory_order_relaxed);
    return Result<RouteResult>(
        Status::Internal("chaos: injected backend error"));
  }
  if (options_.spike_rate > 0 && options_.spike_us > 0 &&
      HashDraw(options_.seed, n, 2) < options_.spike_rate) {
    injected_spikes_.fetch_add(1, std::memory_order_relaxed);
    const int64_t until = clock_->NowMicros() + options_.spike_us;
    // A stall, not a sleep: the drain thread really is stuck for
    // spike_us, exactly like a backend hiccup (see the ChaosOptions note
    // on clocks that must advance).
    while (clock_->NowMicros() < until) std::this_thread::yield();
  }
  Result<RouteResult> result = wrapped_->Route(ctx, s, d, departure_time);
  if (result.ok() && !result->budget_degraded && options_.degrade_rate > 0 &&
      HashDraw(options_.seed, n, 3) < options_.degrade_rate) {
    forced_degrades_.fetch_add(1, std::memory_order_relaxed);
    result->budget_degraded = true;
  }
  return result;
}

ChaosService::Stats ChaosService::GetStats() const {
  Stats stats;
  // Pure tallies, relaxed loads (common/thread_annotations.h rationale).
  stats.queries = seq_.load(std::memory_order_relaxed);
  stats.injected_errors = injected_errors_.load(std::memory_order_relaxed);
  stats.injected_spikes = injected_spikes_.load(std::memory_order_relaxed);
  stats.forced_degrades = forced_degrades_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace l2r
