#include "core/batch_router.h"

#include <memory>
#include <unordered_map>
#include <utility>

#include "common/parallel.h"

namespace l2r {

BatchRouter::BatchRouter(const L2RRouter* router, unsigned num_threads)
    : BatchRouter(router, BatchRouterOptions{num_threads, false}) {}

BatchRouter::BatchRouter(QueryService* service, unsigned num_threads)
    : BatchRouter(service, BatchRouterOptions{num_threads, false}) {}

BatchRouter::BatchRouter(const L2RRouter* router,
                         const BatchRouterOptions& options)
    : router_(router),
      num_threads_(options.num_threads == 0 ? DefaultThreadCount()
                                            : options.num_threads),
      dedup_(options.dedup),
      contexts_([router] {
        return std::make_unique<L2RQueryContext>(router->MakeContext());
      }) {
  L2R_CHECK(router != nullptr);
}

BatchRouter::BatchRouter(QueryService* service,
                         const BatchRouterOptions& options)
    : BatchRouter(service == nullptr ? nullptr : &service->router(),
                  options) {
  service_ = service;
}

std::vector<Result<RouteResult>> BatchRouter::RouteIndices(
    const std::vector<BatchQuery>& queries,
    const std::vector<uint32_t>& indices) {
  std::vector<Result<RouteResult>> out(
      indices.size(), Result<RouteResult>(Status::Internal("not routed")));
  ParallelForWorker(
      indices.size(), [this] { return contexts_.Acquire(); },
      [&](WorkspacePool<L2RQueryContext>::Lease& ctx, size_t g) {
        const BatchQuery& q = queries[indices[g]];
        out[g] = service_ != nullptr
                     ? service_->Route(ctx.get(), q.s, q.d, q.departure_time)
                     : router_->Route(ctx.get(), q.s, q.d, q.departure_time);
      },
      num_threads_);
  return out;
}

void BatchRouter::RouteAll(const std::vector<BatchQuery>& queries,
                           const Completion& done) {
  std::vector<Result<RouteResult>> results = RouteAll(queries);
  for (size_t i = 0; i < results.size(); ++i) {
    done(i, std::move(results[i]));
  }
}

std::vector<Result<RouteResult>> BatchRouter::RouteAll(
    const std::vector<BatchQuery>& queries) {
  if (!dedup_) {
    std::vector<uint32_t> identity(queries.size());
    for (size_t i = 0; i < identity.size(); ++i) {
      identity[i] = static_cast<uint32_t>(i);
    }
    return RouteIndices(queries, identity);
  }

  // Group slots by their (s, d, period) identity, route one
  // representative per group (the first slot, so single runs match the
  // undeduped dispatch order), then fan each result out to its group.
  std::unordered_map<QueryKey, uint32_t, QueryKeyHash> groups;
  groups.reserve(queries.size());
  std::vector<uint32_t> group_of(queries.size());
  std::vector<uint32_t> rep_slot;
  for (size_t i = 0; i < queries.size(); ++i) {
    const BatchQuery& q = queries[i];
    const auto [it, inserted] =
        groups.emplace(QueryKeyOf(q.s, q.d, q.departure_time),
                       static_cast<uint32_t>(rep_slot.size()));
    if (inserted) rep_slot.push_back(static_cast<uint32_t>(i));
    group_of[i] = it->second;
  }
  duplicates_collapsed_.fetch_add(queries.size() - rep_slot.size(),
                                  std::memory_order_relaxed);

  const std::vector<Result<RouteResult>> unique =
      RouteIndices(queries, rep_slot);
  std::vector<Result<RouteResult>> out;
  out.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    out.push_back(unique[group_of[i]]);
  }
  return out;
}

}  // namespace l2r
