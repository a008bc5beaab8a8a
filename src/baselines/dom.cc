#include "baselines/dom.h"

#include <algorithm>

#include "common/parallel.h"
#include "pref/similarity.h"

namespace l2r {

namespace {

/// Simplex grid step of the candidate per-driver weights over the
/// normalized (DI, TT, FC) costs.
constexpr double kGridStep = 0.25;
/// Training paths per driver (the longest ones) scored per candidate.
constexpr size_t kMaxPathsPerDriver = 3;
/// Skyline bounds of the (expensive) query phase.
constexpr SkylineOptions kSkyline{.epsilon = 0.03,
                                  .max_labels_per_vertex = 24,
                                  .max_total_labels = 300'000};

double MeanWeight(const EdgeWeights& w) {
  if (w.size() == 0) return 1;
  double s = 0;
  for (EdgeId e = 0; e < w.size(); ++e) s += w[e];
  return std::max(1e-12, s / static_cast<double>(w.size()));
}

}  // namespace

DomRouter::DomRouter(const RoadNetwork* net)
    : net_(net),
      offpeak_(*net, TimePeriod::kOffPeak),
      peak_(*net, TimePeriod::kPeak),
      fallback_search_(*net),
      skyline_(*net) {
  di_norm_ = MeanWeight(offpeak_.distance);
  tt_norm_ = MeanWeight(offpeak_.time);
  fc_norm_ = MeanWeight(offpeak_.fuel);
}

EdgeWeights DomRouter::CombinedWeights(const Weights& w,
                                       TimePeriod period) const {
  const WeightSet& ws = period == TimePeriod::kPeak ? peak_ : offpeak_;
  std::vector<double> values(net_->NumEdges());
  for (EdgeId e = 0; e < net_->NumEdges(); ++e) {
    values[e] = w.di * ws.distance[e] / di_norm_ +
                w.tt * ws.time[e] / tt_norm_ + w.fc * ws.fuel[e] / fc_norm_;
  }
  return EdgeWeights::FromValues(std::move(values));
}

Result<std::unique_ptr<DomRouter>> DomRouter::Train(
    const RoadNetwork* net, const std::vector<MatchedTrajectory>& training) {
  if (net == nullptr) return Status::InvalidArgument("net is null");
  std::unique_ptr<DomRouter> router(new DomRouter(net));

  // Candidate weight vectors on the simplex grid.
  std::vector<Weights> candidates;
  for (double a = 0; a <= 1.0 + 1e-9; a += kGridStep) {
    for (double b = 0; a + b <= 1.0 + 1e-9; b += kGridStep) {
      candidates.push_back(Weights{a, b, 1.0 - a - b});
    }
  }
  // Scalarized weights per candidate and period, shared by all drivers.
  std::vector<EdgeWeights> cand_weights(candidates.size() * 2);
  for (size_t c = 0; c < candidates.size(); ++c) {
    cand_weights[2 * c] =
        router->CombinedWeights(candidates[c], TimePeriod::kOffPeak);
    cand_weights[2 * c + 1] =
        router->CombinedWeights(candidates[c], TimePeriod::kPeak);
  }

  // Group trajectories by driver; keep the longest per driver (they carry
  // the most route-choice signal).
  std::unordered_map<uint32_t, std::vector<const MatchedTrajectory*>>
      by_driver;
  for (const MatchedTrajectory& t : training) {
    if (t.path.size() >= 2) by_driver[t.driver_id].push_back(&t);
  }
  std::vector<uint32_t> drivers;
  drivers.reserve(by_driver.size());
  for (const auto& kv : by_driver) drivers.push_back(kv.first);
  std::sort(drivers.begin(), drivers.end());

  std::vector<Weights> learned(drivers.size());
  ParallelForWorker(
      drivers.size(), [net]() { return DijkstraSearch(*net); },
      [&](DijkstraSearch& search, size_t di) {
        auto& trajs = by_driver[drivers[di]];
        std::sort(trajs.begin(), trajs.end(),
                  [](const MatchedTrajectory* a, const MatchedTrajectory* b) {
                    return a->path.size() > b->path.size();
                  });
        if (trajs.size() > kMaxPathsPerDriver) {
          trajs.resize(kMaxPathsPerDriver);
        }
        double best_score = -1;
        size_t best_c = 0;
        for (size_t c = 0; c < candidates.size(); ++c) {
          double score = 0;
          for (const MatchedTrajectory* t : trajs) {
            const int p =
                PeriodOf(t->departure_time) == TimePeriod::kPeak ? 1 : 0;
            auto routed = search.ShortestPath(t->path.front(),
                                              t->path.back(),
                                              cand_weights[2 * c + p]);
            if (routed.ok()) {
              score += PathSimilarity(*net, t->path, routed->vertices);
            }
          }
          if (score > best_score) {
            best_score = score;
            best_c = c;
          }
        }
        learned[di] = candidates[best_c];
      });

  for (size_t di = 0; di < drivers.size(); ++di) {
    router->driver_weights_.emplace(drivers[di], learned[di]);
  }
  return router;
}

DomRouter::Weights DomRouter::DriverWeights(uint32_t driver_id) const {
  const auto it = driver_weights_.find(driver_id);
  return it == driver_weights_.end() ? Weights{} : it->second;
}

Result<Path> DomRouter::Route(VertexId s, VertexId d, double departure_time,
                              uint32_t driver_id) {
  const TimePeriod period = PeriodOf(departure_time);
  const WeightSet& ws = period == TimePeriod::kPeak ? peak_ : offpeak_;
  const Weights w = DriverWeights(driver_id);

  // The expensive multi-objective skyline query (paper Fig. 12).
  auto skyline = skyline_.Route(s, d, ws, kSkyline);
  if (skyline.ok() && !skyline->paths.empty()) {
    const SkylinePath* best = nullptr;
    double best_cost = kInfCost;
    for (const SkylinePath& sp : skyline->paths) {
      const double c = w.di * sp.costs.di / di_norm_ +
                       w.tt * sp.costs.tt / tt_norm_ +
                       w.fc * sp.costs.fc / fc_norm_;
      if (c < best_cost) {
        best_cost = c;
        best = &sp;
      }
    }
    Path path = best->path;
    path.cost = best_cost;
    return path;
  }
  // Fallback: weighted single-objective search.
  const EdgeWeights combined = CombinedWeights(w, period);
  return fallback_search_.ShortestPath(s, d, combined);
}

}  // namespace l2r
