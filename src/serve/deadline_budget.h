#ifndef L2R_SERVE_DEADLINE_BUDGET_H_
#define L2R_SERVE_DEADLINE_BUDGET_H_

#include <cstddef>
#include <cstdint>

namespace l2r {

struct DeadlineBudgetOptions {
  /// Per-query budget for the preference-route (Algorithm 2) fallback, in
  /// microseconds; 0 disables the budget entirely.
  double fallback_budget_us = 0;
};

/// Translates a wall-clock fallback budget into the deterministic settle
/// cap the core query path enforces (L2RRouter::Route's
/// max_preference_settles). The translation happens once, at
/// configuration time: queries never consult a clock, so the degrade
/// decision for a given query is identical across runs, threads, and
/// machines with the same configuration — the property the byte-identical
/// serving contract depends on. The microsecond knob is operator-facing;
/// the settle cap is what the engine sees.
class DeadlineBudget {
 public:
  /// Calibration: how many vertices the preference search settles per
  /// microsecond. Conservative for the generated city worlds (BM_Dijkstra
  /// settles ~4.3k vertices in ~35 us, i.e. >100/us; a lower figure only
  /// makes the budget stricter).
  static constexpr double kSettlesPerUs = 80;
  /// Floor on the derived cap so aggressive budgets cannot starve short
  /// rebuilds that would have finished well inside any real deadline.
  static constexpr size_t kMinSettles = 256;

  DeadlineBudget() = default;
  explicit DeadlineBudget(const DeadlineBudgetOptions& options)
      : budget_us_(options.fallback_budget_us) {}

  bool enabled() const { return budget_us_ > 0; }

  /// The settle cap handed to the preference search; 0 = unlimited.
  size_t MaxPreferenceSettles() const {
    if (!enabled()) return 0;
    return SettleCap(budget_us_ * kSettlesPerUs);
  }

  /// Settle cap under an overload-control scale in (0, 1] — the
  /// controller's degraded-serving lever (OverloadDecision::budget_scale
  /// via ServingRouter::SetBudgetScale). Keeps the kMinSettles floor, so
  /// even panic-level scaling cannot starve rebuilds that would finish
  /// well inside any real deadline. scale >= 1 is the plain cap; a NaN or
  /// non-positive scale gives the kMinSettles floor.
  size_t ScaledSettleCap(double scale) const {
    if (!enabled()) return 0;
    if (scale >= 1.0) return MaxPreferenceSettles();
    return SettleCap(budget_us_ * kSettlesPerUs * scale);
  }

 private:
  /// `settles` as a cap in [kMinSettles, SIZE_MAX]. The double-to-size_t
  /// cast is only defined inside that range, so a NaN or non-positive
  /// count takes the floor and one past SIZE_MAX (1e300, inf) saturates.
  static size_t SettleCap(double settles) {
    if (!(settles > 0)) return kMinSettles;
    if (settles >= static_cast<double>(SIZE_MAX)) return SIZE_MAX;
    const size_t cap = static_cast<size_t>(settles);
    return cap < kMinSettles ? kMinSettles : cap;
  }

  double budget_us_ = 0;
};

}  // namespace l2r

#endif  // L2R_SERVE_DEADLINE_BUDGET_H_
