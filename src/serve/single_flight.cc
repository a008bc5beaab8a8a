#include "serve/single_flight.h"

namespace l2r {

namespace {

/// Lock-striping width of the in-flight table (a power of two). The table
/// only ever holds queries currently being computed, so it stays tiny —
/// shards exist to keep join/publish off one hot mutex.
constexpr size_t kNumShards = 16;

}  // namespace

SingleFlight::SingleFlight() {
  shards_.reserve(kNumShards);
  for (size_t i = 0; i < kNumShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<SingleFlight::Flight> SingleFlight::Join(const FlightKey& key,
                                                         bool* leader) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto [it, inserted] = shard.flights.try_emplace(key);
  if (inserted) it->second = std::make_shared<Flight>();
  *leader = inserted;
  if (inserted) {
    leaders_.fetch_add(1, std::memory_order_relaxed);
  } else {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
  }
  return it->second;
}

Result<RouteResult> SingleFlight::Await(Flight& flight) {
  MutexLock lock(flight.mu);
  while (!flight.done) flight.cv.Wait(flight.mu);
  return *flight.result;  // copy out under the flight lock
}

void SingleFlight::Publish(const FlightKey& key, Flight& flight,
                           const Result<RouteResult>& result) {
  {
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    shard.flights.erase(key);
  }
  {
    MutexLock lock(flight.mu);
    flight.result = result;
    flight.done = true;
  }
  flight.cv.NotifyAll();
}

SingleFlight::Stats SingleFlight::GetStats() const {
  Stats stats;
  stats.leaders = leaders_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace l2r
