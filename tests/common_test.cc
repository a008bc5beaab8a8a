#include <gtest/gtest.h>

#include <set>

#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/timer.h"

namespace l2r {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad x");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad x");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad x");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_NE(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_NE(Status::NotFound("a"), Status::Internal("a"));
  EXPECT_EQ(Status::OK(), Status());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 8; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, ReturnNotOkPropagates) {
  auto fails = []() -> Status { return Status::Internal("inner"); };
  auto outer = [&]() -> Status {
    L2R_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool ok) -> Result<int> {
    if (!ok) return Status::OutOfRange("no");
    return 5;
  };
  auto outer = [&](bool ok) -> Result<int> {
    L2R_ASSIGN_OR_RETURN(const int v, inner(ok));
    return v * 2;
  };
  EXPECT_EQ(outer(true).value(), 10);
  EXPECT_EQ(outer(false).status().code(), StatusCode::kOutOfRange);
}

// ---------- Rng ----------

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.NextU64() == b.NextU64();
  EXPECT_LT(equal, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(RngTest, GaussianScaled) {
  Rng rng(12);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Gaussian(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.06);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.06);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(14);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, PickWeightedRespectsWeights) {
  Rng rng(15);
  std::vector<double> w = {1, 0, 3};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.PickWeighted(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / static_cast<double>(counts[0]), 3.0, 0.3);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(16);
  int first = 0;
  for (int i = 0; i < 5000; ++i) first += rng.Zipf(50, 1.1) == 0;
  EXPECT_GT(first, 800);  // rank 0 should dominate
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkIsIndependentStream) {
  Rng a(21);
  Rng fork = a.Fork();
  EXPECT_NE(a.NextU64(), fork.NextU64());
}

// ---------- strings ----------

TEST(StringsTest, StrFormatBasic) {
  EXPECT_EQ(StrFormat("%d-%s", 4, "x"), "4-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, StrFormatLongOutput) {
  const std::string big(500, 'a');
  EXPECT_EQ(StrFormat("%s!", big.c_str()).size(), 501u);
}

TEST(StringsTest, JoinAndSplitRoundTrip) {
  const std::vector<std::string> parts = {"a", "", "c"};
  EXPECT_EQ(Join(parts, ","), "a,,c");
  EXPECT_EQ(Split("a,,c", ','), parts);
}

TEST(StringsTest, SplitSingleField) {
  EXPECT_EQ(Split("abc", ','), std::vector<std::string>{"abc"});
  EXPECT_EQ(Split("", ','), std::vector<std::string>{""});
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x y\t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringsTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble(" -2e3 ").value(), -2000.0);
  EXPECT_FALSE(ParseDouble("3.5x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringsTest, ParseIntStrict) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt(" -7 ").value(), -7);
  EXPECT_FALSE(ParseInt("42.5").ok());
  EXPECT_FALSE(ParseInt("x").ok());
}

// ---------- stats / timer ----------

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
}

TEST(StatsTest, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 10);
  EXPECT_DOUBLE_EQ(Percentile(xs, 1.0), 40);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.5), 25);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0;
  // Plain assignment: compound assignment to volatile is deprecated in C++20.
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());  // ms >= s numerically
}

TEST(TimerTest, ScopedTimerAccumulates) {
  double sink = 0;
  {
    ScopedTimer st(&sink);
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }
  EXPECT_GE(sink, 0.0);
}

}  // namespace
}  // namespace l2r
