#ifndef L2R_SERVEBENCH_HISTOGRAM_H_
#define L2R_SERVEBENCH_HISTOGRAM_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace servebench {

/// Fixed-size log-bucketed latency histogram over nanoseconds, so the
/// sample count is unbounded and the memory cost is constant (about
/// 18 KB). Values below 64 ns get exact buckets; above that each power of
/// two splits into 64 linear sub-buckets, a relative resolution of 1/64.
/// Percentiles interpolate linearly inside the bucket that holds the
/// requested rank, so they move continuously with the data.
///
/// `Concurrent` selects relaxed atomic counters for recorders on several
/// threads; the plain variant is for one owning thread. Counts are pure
/// tallies read after the recorders joined, so relaxed order suffices.
template <bool Concurrent>
class BasicHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr int kMaxExp = 42;  ///< 2^42 ns is over an hour
  static constexpr size_t kBuckets = kSub + (kMaxExp - kSubBits + 1) * kSub;

  BasicHistogram() : counts_(new Count[kBuckets]()) {}

  void RecordNs(uint64_t ns) {
    Add(counts_[Index(ns)], 1);
    Add(count_, 1);
    Add(sum_ns_, ns);
  }
  void RecordUs(double us) {
    RecordNs(us <= 0 ? 0 : static_cast<uint64_t>(us * 1e3));
  }

  uint64_t count() const { return Load(count_); }
  double MeanUs() const {
    const uint64_t n = count();
    return n == 0 ? 0 : static_cast<double>(Load(sum_ns_)) / 1e3 /
                            static_cast<double>(n);
  }

  /// The q-quantile (0 < q < 1) in microseconds; 0 when empty.
  double PercentileUs(double q) const {
    const uint64_t n = count();
    if (n == 0) return 0;
    const double target = q * static_cast<double>(n);
    double before = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      const double c = static_cast<double>(Load(counts_[i]));
      if (c == 0) continue;
      if (before + c >= target) {
        const double frac = std::clamp((target - before) / c, 0.0, 1.0);
        const double ns = static_cast<double>(Lower(i)) +
                          static_cast<double>(Width(i)) * frac;
        return ns / 1e3;
      }
      before += c;
    }
    return static_cast<double>(Lower(kBuckets - 1)) / 1e3;
  }

  template <bool OtherConcurrent>
  void Merge(const BasicHistogram<OtherConcurrent>& other) {
    for (size_t i = 0; i < kBuckets; ++i) {
      Add(counts_[i], other.BucketCount(i));
    }
    Add(count_, other.count());
    Add(sum_ns_, other.SumNs());
  }

  uint64_t BucketCount(size_t i) const { return Load(counts_[i]); }
  uint64_t SumNs() const { return Load(sum_ns_); }

 private:
  using Count =
      std::conditional_t<Concurrent, std::atomic<uint64_t>, uint64_t>;

  static void Add(Count& c, uint64_t v) {
    if constexpr (Concurrent) {
      c.fetch_add(v, std::memory_order_relaxed);
    } else {
      c += v;
    }
  }
  static uint64_t Load(const Count& c) {
    if constexpr (Concurrent) {
      return c.load(std::memory_order_relaxed);
    } else {
      return c;
    }
  }

  static size_t Index(uint64_t ns) {
    if (ns < kSub) return static_cast<size_t>(ns);
    const int exp = std::min(static_cast<int>(std::bit_width(ns)) - 1, kMaxExp);
    const int shift = exp - kSubBits;
    const uint64_t sub = (ns >> shift) & (kSub - 1);
    return static_cast<size_t>(kSub + shift * kSub + sub);
  }
  static uint64_t Lower(size_t i) {
    if (i < kSub) return i;
    const size_t shift = (i - kSub) / kSub;
    const uint64_t sub = (i - kSub) % kSub;
    return (kSub + sub) << shift;
  }
  static uint64_t Width(size_t i) {
    return i < kSub ? 1 : uint64_t{1} << ((i - kSub) / kSub);
  }

  std::unique_ptr<Count[]> counts_;
  Count count_{0};
  Count sum_ns_{0};
};

using Histogram = BasicHistogram<false>;
using ConcurrentHistogram = BasicHistogram<true>;

}  // namespace servebench

#endif  // L2R_SERVEBENCH_HISTOGRAM_H_
