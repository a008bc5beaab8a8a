#include "baselines/trip.h"

#include <algorithm>

#include "linalg/solvers.h"

namespace l2r {

namespace {

/// Minimum trajectories per driver for per-road-type ratio estimation;
/// below it a single global ratio is used.
constexpr size_t kMinTripsForTypes = 3;
/// Ridge regularization of the least-squares ratio fit.
constexpr double kRidge = 1e-3;
/// Ratio clamp range.
constexpr double kMinRatio = 0.7;
constexpr double kMaxRatio = 1.4;

}  // namespace

TripRouter::TripRouter(const RoadNetwork* net)
    : net_(net),
      offpeak_time_(*net, CostFeature::kTravelTime, TimePeriod::kOffPeak),
      peak_time_(*net, CostFeature::kTravelTime, TimePeriod::kPeak),
      search_(*net) {}

Result<std::unique_ptr<TripRouter>> TripRouter::Train(
    const RoadNetwork* net, const std::vector<MatchedTrajectory>& training) {
  if (net == nullptr) return Status::InvalidArgument("net is null");
  std::unique_ptr<TripRouter> router(new TripRouter(net));

  // Per driver: accumulate the normal equations of
  //   observed_i = sum_t expected_{i,t} * r_t
  // where expected_{i,t} is trip i's expected time on road type t and r_t
  // the driver's per-type time ratio (> 1 = slower than the network
  // expectation).
  struct Accum {
    std::vector<std::vector<double>> ata =
        std::vector<std::vector<double>>(kNumRoadTypes,
                                         std::vector<double>(kNumRoadTypes, 0));
    std::vector<double> atb = std::vector<double>(kNumRoadTypes, 0);
    std::array<double, kNumRoadTypes> expected_by_type{};
    double expected_total = 0;
    double observed_total = 0;
    size_t trips = 0;
  };
  std::unordered_map<uint32_t, Accum> accums;

  for (const MatchedTrajectory& t : training) {
    if (t.path.size() < 2 || t.duration_s <= 0) continue;
    const TimePeriod period = PeriodOf(t.departure_time);
    const EdgeWeights& tw = period == TimePeriod::kPeak
                                ? router->peak_time_
                                : router->offpeak_time_;
    std::array<double, kNumRoadTypes> x{};
    bool ok = true;
    for (size_t k = 0; k + 1 < t.path.size(); ++k) {
      const EdgeId e = net->FindEdge(t.path[k], t.path[k + 1]);
      if (e == kInvalidEdge) {
        ok = false;
        break;
      }
      x[static_cast<int>(net->EdgeRoadType(e))] += tw[e];
    }
    if (!ok) continue;
    Accum& acc = accums[t.driver_id];
    for (int a = 0; a < kNumRoadTypes; ++a) {
      for (int b = 0; b < kNumRoadTypes; ++b) acc.ata[a][b] += x[a] * x[b];
      acc.atb[a] += x[a] * t.duration_s;
      acc.expected_by_type[a] += x[a];
      acc.expected_total += x[a];
    }
    acc.observed_total += t.duration_s;
    ++acc.trips;
  }

  for (auto& [driver, acc] : accums) {
    std::array<double, kNumRoadTypes> ratios;
    ratios.fill(1.0);
    const double global_factor =
        acc.expected_total > 0 ? acc.observed_total / acc.expected_total
                               : 1.0;
    if (acc.trips >= kMinTripsForTypes) {
      // Ridge: (AtA + ridge*trace*I) f = Atb.
      double trace = 0;
      for (int a = 0; a < kNumRoadTypes; ++a) trace += acc.ata[a][a];
      auto sys = acc.ata;
      const double reg = kRidge * std::max(trace, 1.0);
      for (int a = 0; a < kNumRoadTypes; ++a) {
        sys[a][a] += reg;
        // Pull unobserved types toward the driver's global factor.
        acc.atb[a] += reg * global_factor;
      }
      auto solved = SolveDense(sys, acc.atb);
      if (solved.ok()) {
        for (int a = 0; a < kNumRoadTypes; ++a) {
          const double f = (*solved)[a];
          ratios[a] =
              f > 1e-6 ? std::clamp(f, kMinRatio, kMaxRatio) : global_factor;
        }
      } else {
        ratios.fill(std::clamp(global_factor, kMinRatio, kMaxRatio));
      }
    } else {
      ratios.fill(std::clamp(global_factor, kMinRatio, kMaxRatio));
    }
    router->ratios_.emplace(driver, ratios);
  }
  return router;
}

std::array<double, kNumRoadTypes> TripRouter::DriverRatios(
    uint32_t driver_id) const {
  const auto it = ratios_.find(driver_id);
  if (it != ratios_.end()) return it->second;
  std::array<double, kNumRoadTypes> ones;
  ones.fill(1.0);
  return ones;
}

Result<Path> TripRouter::Route(VertexId s, VertexId d, double departure_time,
                               uint32_t driver_id) {
  const TimePeriod period = PeriodOf(departure_time);
  const EdgeWeights& tw =
      period == TimePeriod::kPeak ? peak_time_ : offpeak_time_;
  const std::array<double, kNumRoadTypes> ratios = DriverRatios(driver_id);
  // Personalized weights are derived on the fly in the search kernel
  // instead of materializing a per-query EdgeWeights array.
  return search_.ShortestPathW(s, d, [&](EdgeId e) {
    return tw[e] * ratios[static_cast<int>(net_->EdgeRoadType(e))];
  });
}

}  // namespace l2r
