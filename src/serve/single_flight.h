#ifndef L2R_SERVE_SINGLE_FLIGHT_H_
#define L2R_SERVE_SINGLE_FLIGHT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/l2r.h"

namespace l2r {

/// Coalesces concurrent identical queries: the first caller for a
/// (s, d, period) key becomes the *leader* and computes the route; every
/// caller that arrives while that computation is in flight blocks and
/// receives a copy of the leader's result instead of repeating the work.
/// Batches full of duplicate queries (commute bursts) thus pay for each
/// distinct route once per burst, even before the route cache is warm.
///
/// Determinism: the leader runs the deterministic cold path, and
/// followers receive byte-identical copies — so a slot's result never
/// depends on whether it led, followed, or missed the flight entirely.
/// Errors are fanned out like values (each follower gets the same
/// status); flights are removed before publication, so a caller arriving
/// after completion starts a fresh (identical) computation rather than
/// reading a stale flight.
///
/// Deadlock-freedom: leaders never wait on other flights (the compute
/// callback must not call back into the same SingleFlight), and followers
/// wait on exactly one leader, so the wait graph is a forest.
///
/// Dynamic world: flights are keyed (QueryKey, WorldEpoch). Two queries
/// pinned to different epochs must not coalesce — the leader's bytes are
/// only valid for its own epoch — so a follower joins a flight only when
/// it pinned the same epoch the leader did. (With the world gate an
/// epoch bump excludes in-flight readers anyway, so cross-epoch flights
/// cannot overlap in time; the epoch in the key makes the invariant
/// structural rather than scheduling-dependent.)
class SingleFlight {
 public:
  struct Stats {
    uint64_t leaders = 0;    ///< calls that computed the route
    uint64_t coalesced = 0;  ///< calls served by another caller's flight
  };

  SingleFlight();

  /// Joins (or starts) the flight for `key` on `epoch`. The leader
  /// invokes `compute()` exactly once and its result is handed to every
  /// waiter that pinned the same epoch. If compute() throws, the waiters
  /// are released with an Internal error (never left blocked on a dead
  /// flight) and the exception propagates on the leader.
  template <typename Fn>
  Result<RouteResult> Do(const QueryKey& key, WorldEpoch epoch,
                         Fn&& compute) {
    const FlightKey fkey{key, epoch};
    bool leader = false;
    std::shared_ptr<Flight> flight = Join(fkey, &leader);
    if (!leader) return Await(*flight);
    try {
      Result<RouteResult> result = compute();
      Publish(fkey, *flight, result);
      return result;
    } catch (...) {
      Publish(fkey, *flight,
              Result<RouteResult>(
                  Status::Internal("single-flight compute failed")));
      throw;
    }
  }

  /// Frozen-world convenience overload (epoch 0).
  template <typename Fn>
  Result<RouteResult> Do(const QueryKey& key, Fn&& compute) {
    return Do(key, WorldEpoch{0}, std::forward<Fn>(compute));
  }

  Stats GetStats() const;

 private:
  /// In-flight identity: the shared query identity plus the world epoch
  /// the leader pinned (see the class comment).
  struct FlightKey {
    QueryKey key;
    WorldEpoch epoch = 0;
    bool operator==(const FlightKey&) const = default;
  };
  struct FlightKeyHash {
    size_t operator()(const FlightKey& k) const {
      // Re-mix the epoch into the avalanched query hash so shard
      // selection still sees every key bit.
      return static_cast<size_t>(
          Mix64(QueryKeyHash{}(k.key) ^
                (0x9e3779b97f4a7c15ULL * (k.epoch + 1))));
    }
  };

  /// Lock order: a thread never holds a Shard::mu and a Flight::mu at
  /// once (Join releases the shard lock before Await/Publish touch the
  /// flight; Publish's erase and wake are separate critical sections).
  struct Flight {
    Mutex mu;
    CondVar cv;
    bool done L2R_GUARDED_BY(mu) = false;
    /// Written once by the leader under mu; copied out by every waiter.
    std::optional<Result<RouteResult>> result L2R_GUARDED_BY(mu);
  };
  struct Shard {
    Mutex mu;
    std::unordered_map<FlightKey, std::shared_ptr<Flight>, FlightKeyHash>
        flights L2R_GUARDED_BY(mu);
  };

  /// Returns the flight for `key`, creating it (and marking the caller
  /// leader) when none is in progress.
  std::shared_ptr<Flight> Join(const FlightKey& key, bool* leader);
  /// Blocks until the leader publishes; returns a copy of its result.
  Result<RouteResult> Await(Flight& flight);
  /// Removes the flight from the table, then wakes all waiters with
  /// `result`. Removal happens first so late arrivals start fresh.
  void Publish(const FlightKey& key, Flight& flight,
               const Result<RouteResult>& result);

  Shard& ShardFor(const FlightKey& key) {
    return *shards_[FlightKeyHash{}(key) & (shards_.size() - 1)];
  }

  /// Heap-allocated for stable addresses (mutexes are pinned).
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Pure tallies, relaxed everywhere: nothing is published through
  /// them — the flight's *result* travels through Flight::mu — and RMW
  /// atomicity alone keeps each count exact under any number of
  /// concurrent callers, so leaders + coalesced == total Do() calls
  /// always reconciles (see common/thread_annotations.h for the full
  /// memory-order rationale; serve_test's 8-thread duplicate burst pins
  /// the conservation law).
  std::atomic<uint64_t> leaders_{0};
  std::atomic<uint64_t> coalesced_{0};
};

}  // namespace l2r

#endif  // L2R_SERVE_SINGLE_FLIGHT_H_
