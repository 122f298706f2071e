// Unit tests for util/: Status, Result, Rng, ZipfDistribution,
// MemoryTracker, string helpers, ReaderFleet lifecycle.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/memory_tracker.h"
#include "util/random.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace stabletext {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("x").code(), Status::NotFound("x").code(),
      Status::IOError("x").code(),         Status::OutOfMemoryBudget("x").code(),
      Status::Corruption("x").code(),      Status::NotSupported("x").code(),
      Status::Internal("x").code()};
  EXPECT_EQ(codes.size(), 7u);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// Two uses of ST_ASSIGN_OR_RETURN in one scope.
Result<std::pair<int, int>> BothValues(Result<int> a, Result<int> b) {
  ST_ASSIGN_OR_RETURN(const int first, std::move(a));
  ST_ASSIGN_OR_RETURN(const int second, std::move(b));
  return std::make_pair(first, second);
}

TEST(ResultTest, AssignOrReturnTwiceInOneScope) {
  const auto both = BothValues(7, 9);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both.value().first, 7);
  EXPECT_EQ(both.value().second, 9);
  const auto failed = BothValues(7, Status::NotFound("second"));
  EXPECT_EQ(failed.status(), Status::NotFound("second"));
}

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.Uniform(bound), bound);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, NextDoubleInHalfOpenUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextWeightInLeftOpenUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double w = rng.NextWeight();
    EXPECT_GT(w, 0.0);
    EXPECT_LE(w, 1.0);
  }
}

TEST(RngTest, WeightedIndexRespectsZeroWeight) {
  Rng rng(17);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.WeightedIndex(weights), 1u);
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndComplete) {
  Rng rng(19);
  for (size_t n : {1ul, 5ul, 100ul}) {
    for (size_t k = 0; k <= n; k += (n > 10 ? 17 : 1)) {
      auto sample = rng.SampleWithoutReplacement(n, k);
      std::set<size_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), k);
      for (size_t v : sample) EXPECT_LT(v, n);
    }
  }
}

TEST(RngTest, ZipfIsSkewedTowardLowRanks) {
  Rng rng(23);
  ZipfDistribution zipf(1000, 1.0);
  size_t low = 0, total = 20000;
  for (size_t i = 0; i < total; ++i) {
    if (zipf.Sample(&rng) < 10) ++low;
  }
  // Top-10 of 1000 ranks under s=1 carries ~39% of the mass.
  EXPECT_GT(low, total / 4);
}

TEST(RngTest, ZipfZeroExponentIsUniformish) {
  Rng rng(29);
  ZipfDistribution zipf(10, 0.0);
  std::vector<size_t> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Sample(&rng)];
  for (size_t c : counts) {
    EXPECT_GT(c, 700u);
    EXPECT_LT(c, 1300u);
  }
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(MemoryTrackerTest, TracksLiveAndPeak) {
  MemoryTracker t;
  EXPECT_TRUE(t.Charge(100).ok());
  EXPECT_TRUE(t.Charge(50).ok());
  t.Release(120);
  EXPECT_EQ(t.live_bytes(), 30u);
  EXPECT_EQ(t.peak_bytes(), 150u);
}

TEST(MemoryTrackerTest, EnforcesBudget) {
  MemoryTracker t(100);
  EXPECT_TRUE(t.Charge(80).ok());
  Status s = t.Charge(30);
  EXPECT_EQ(s.code(), StatusCode::kOutOfMemoryBudget);
  EXPECT_EQ(t.live_bytes(), 80u);  // Failed charge leaves usage unchanged.
  EXPECT_TRUE(t.WouldFit(20));
  EXPECT_FALSE(t.WouldFit(21));
}

TEST(MemoryTrackerTest, ForceChargeBypassesBudget) {
  MemoryTracker t(10);
  t.ForceCharge(100);
  EXPECT_EQ(t.live_bytes(), 100u);
  EXPECT_EQ(t.peak_bytes(), 100u);
}

TEST(MemoryTrackerTest, ResetClearsUsageKeepsBudget) {
  MemoryTracker t(64);
  t.ForceCharge(32);
  t.Reset();
  EXPECT_EQ(t.live_bytes(), 0u);
  EXPECT_EQ(t.peak_bytes(), 0u);
  EXPECT_EQ(t.budget_bytes(), 64u);
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringsTest, JoinRoundTripsSplit) {
  std::vector<std::string> pieces = {"alpha", "beta", "gamma"};
  EXPECT_EQ(Split(Join(pieces, "|"), '|'), pieces);
}

TEST(StringsTest, ToLowerAsciiOnlyTouchesAsciiUppercase) {
  std::string s = "MiXeD 123 ÄÖ";
  ToLowerAscii(&s);
  EXPECT_EQ(s, "mixed 123 ÄÖ");
}

TEST(StringsTest, TrimAscii) {
  EXPECT_EQ(TrimAscii("  hi\t\n"), "hi");
  EXPECT_EQ(TrimAscii(""), "");
  EXPECT_EQ(TrimAscii("   "), "");
  EXPECT_EQ(TrimAscii("a b"), "a b");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("foo", ""));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512B");
  EXPECT_EQ(HumanBytes(2048), "2.0KB");
  EXPECT_EQ(HumanBytes(35ull << 20), "35.0MB");
}

TEST(StringsTest, StringPrintfFormats) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%.2f", 0.5), "0.50");
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer t;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GT(t.ElapsedMicros(), 0);
  t.Restart();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

TEST(ReaderFleetTest, RunsEveryReaderAndJoinIsIdempotent) {
  std::atomic<size_t> ran{0};
  ReaderFleet fleet(3, [&](size_t) { ran.fetch_add(1); });
  fleet.Join();
  fleet.Join();  // Idempotent: a second Join is a no-op, not a crash.
  EXPECT_EQ(ran.load(), 3u);
  EXPECT_EQ(fleet.failed(), 0u);
}

TEST(ReaderFleetTest, ThrowingReaderEndsItselfNotTheProcess) {
  std::atomic<size_t> completed{0};
  ReaderFleet fleet(4, [&](size_t reader) {
    if (reader % 2 == 0) throw std::runtime_error("reader died");
    completed.fetch_add(1);
  });
  fleet.Join();
  // The two throwing readers are counted; the two healthy ones finished
  // normally despite their siblings dying.
  EXPECT_EQ(fleet.failed(), 2u);
  EXPECT_EQ(completed.load(), 2u);
}

TEST(ReaderFleetTest, DestructorJoinsThrowingReaders) {
  // A fleet whose every reader throws immediately must be destroyable:
  // the destructor joins and the swallowed exceptions never reach
  // std::terminate.
  {
    ReaderFleet fleet(2, [](size_t) { throw 42; });
  }
  SUCCEED();
}

}  // namespace
}  // namespace stabletext
