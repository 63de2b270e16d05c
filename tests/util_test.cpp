// Unit tests for src/util: Status/Result, RNG, string helpers, flags,
// stopwatch and logging configuration.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "util/flags.h"
#include "util/large_block_allocator.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace lshclust {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::KeyError("x").IsKeyError());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  const Status st = Status::InvalidArgument("bad k");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "bad k");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad k");
}

TEST(StatusTest, CopyIsDeep) {
  Status a = Status::IOError("disk gone");
  Status b = a;
  EXPECT_EQ(a, b);
  a = Status::OK();
  EXPECT_TRUE(a.ok());
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(b.message(), "disk gone");
}

TEST(StatusTest, MoveLeavesSourceOk) {
  Status a = Status::KeyError("missing");
  Status b = std::move(a);
  EXPECT_TRUE(b.IsKeyError());
}

TEST(StatusTest, WithContextPrepends) {
  const Status st = Status::IOError("open failed").WithContext("loading x");
  EXPECT_EQ(st.message(), "loading x: open failed");
  EXPECT_TRUE(st.IsIOError());
  EXPECT_TRUE(Status::OK().WithContext("ignored").ok());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::IOError("a"), Status::IOError("a"));
  EXPECT_FALSE(Status::IOError("a") == Status::IOError("b"));
  EXPECT_FALSE(Status::IOError("a") == Status::KeyError("a"));
}

TEST(StatusTest, CodeNamesAreHumanReadable) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInvalidArgument),
            "Invalid argument");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotImplemented),
            "Not implemented");
}

// ---------------------------------------------------------------- Result --

Result<int> Divide(int a, int b) {
  if (b == 0) return Status::InvalidArgument("division by zero");
  return a / b;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = Divide(10, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_EQ(r.ValueOrDie(), 5);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Divide(1, 0);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  EXPECT_EQ(Divide(9, 3).ValueOr(-1), 3);
}

TEST(ResultTest, MoveOnlyTypesWork) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 7);
}

Result<int> UsesAssignOrReturn(int a, int b) {
  LSHC_ASSIGN_OR_RETURN(const int q, Divide(a, b));
  return q + 1;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*UsesAssignOrReturn(4, 2), 3);
  EXPECT_TRUE(UsesAssignOrReturn(4, 0).status().IsInvalidArgument());
}

Status UsesReturnNotOk(bool fail) {
  LSHC_RETURN_NOT_OK(fail ? Status::IOError("boom") : Status::OK());
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(UsesReturnNotOk(false).ok());
  EXPECT_TRUE(UsesReturnNotOk(true).IsIOError());
}

// ------------------------------------------------------------------- RNG --

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Below(bound), bound);
    }
  }
}

TEST(RngTest, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.Below(1), 0u);
}

TEST(RngTest, UniformCoversClosedRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.Uniform(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all 5 values hit
}

TEST(RngTest, NextDoubleInHalfOpenUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // mean of U(0,1)
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(17);
  const int kSamples = 20000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < kSamples; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / kSamples;
  const double variance = sum_sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(variance, 1.0, 0.05);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto shuffled = values;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, values);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(29);
  const auto sample = rng.SampleWithoutReplacement(1000, 100);
  EXPECT_EQ(sample.size(), 100u);
  std::set<uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 100u);
  for (const uint32_t v : sample) EXPECT_LT(v, 1000u);
}

TEST(RngTest, SampleWholePopulation) {
  Rng rng(31);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
  // Consecutive inputs should differ in many bits (avalanche sanity).
  const uint64_t diff = Mix64(1000) ^ Mix64(1001);
  EXPECT_GT(__builtin_popcountll(diff), 10);
}

TEST(ZipfSamplerTest, RankZeroMostProbable) {
  ZipfSampler zipf(100, 1.0);
  EXPECT_GT(zipf.Probability(0), zipf.Probability(1));
  EXPECT_GT(zipf.Probability(1), zipf.Probability(50));
}

TEST(ZipfSamplerTest, ProbabilitiesSumToOne) {
  ZipfSampler zipf(50, 1.2);
  double total = 0;
  for (uint32_t r = 0; r < 50; ++r) total += zipf.Probability(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, EmpiricalFrequenciesFollowRanks) {
  ZipfSampler zipf(10, 1.0);
  Rng rng(37);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[3]);
  EXPECT_GT(counts[3], counts[9]);
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(ZipfSamplerTest, SingletonAlwaysSamplesZero) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(41);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

// ----------------------------------------------------------- string_util --

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, JoinInvertsSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, TrimRemovesAsciiWhitespace) {
  EXPECT_EQ(Trim("  abc \t\n"), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, ToLowerAsciiOnly) {
  EXPECT_EQ(ToLower("AbC123"), "abc123");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-f", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

TEST(StringUtilTest, ParseInt64AcceptsFullMatchesOnly) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("42x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("4.2", &v));
}

TEST(StringUtilTest, ParseDoubleAcceptsFullMatchesOnly) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("0.25", &v));
  EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("1.2.3", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MiB");
}

// ----------------------------------------------------------------- flags --

TEST(FlagSetTest, ParsesAllKinds) {
  FlagSet flags("test");
  int64_t count = 5;
  double scale = 1.0;
  bool verbose = false;
  std::string name = "default";
  flags.AddInt64("count", &count, "a count");
  flags.AddDouble("scale", &scale, "a scale");
  flags.AddBool("verbose", &verbose, "verbosity");
  flags.AddString("name", &name, "a name");

  const char* argv[] = {"prog", "--count=7", "--scale", "0.5", "--verbose",
                        "--name=xyz", "positional"};
  ASSERT_TRUE(flags.Parse(7, const_cast<char**>(argv)).ok());
  EXPECT_EQ(count, 7);
  EXPECT_DOUBLE_EQ(scale, 0.5);
  EXPECT_TRUE(verbose);
  EXPECT_EQ(name, "xyz");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagSetTest, NoPrefixNegatesBool) {
  FlagSet flags("test");
  bool feature = true;
  flags.AddBool("feature", &feature, "a feature");
  const char* argv[] = {"prog", "--no-feature"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_FALSE(feature);
}

TEST(FlagSetTest, RejectsUnknownFlag) {
  FlagSet flags("test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_TRUE(flags.Parse(2, const_cast<char**>(argv)).IsInvalidArgument());
}

TEST(FlagSetTest, RejectsMalformedValues) {
  FlagSet flags("test");
  int64_t count = 0;
  flags.AddInt64("count", &count, "a count");
  const char* argv[] = {"prog", "--count=abc"};
  EXPECT_TRUE(flags.Parse(2, const_cast<char**>(argv)).IsInvalidArgument());
}

TEST(FlagSetTest, MissingValueIsError) {
  FlagSet flags("test");
  int64_t count = 0;
  flags.AddInt64("count", &count, "a count");
  const char* argv[] = {"prog", "--count"};
  EXPECT_TRUE(flags.Parse(2, const_cast<char**>(argv)).IsInvalidArgument());
}

TEST(FlagSetTest, UsageMentionsFlagsAndDefaults) {
  FlagSet flags("prog");
  double scale = 0.25;
  flags.AddDouble("scale", &scale, "dataset scale");
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("--scale"), std::string::npos);
  EXPECT_NE(usage.find("dataset scale"), std::string::npos);
  EXPECT_NE(usage.find("0.25"), std::string::npos);
}

// ------------------------------------------------------------- stopwatch --

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  const double t0 = watch.ElapsedSeconds();
  EXPECT_GE(t0, 0.0);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(watch.ElapsedSeconds(), t0);
  EXPECT_GE(watch.ElapsedNanos(), 0);
  watch.Restart();
  EXPECT_LT(watch.ElapsedSeconds(), 1.0);
}

// --------------------------------------------------------------- logging --

TEST(LoggingTest, ParseLevelNames) {
  EXPECT_EQ(Logger::ParseLevel("trace"), LogLevel::kTrace);
  EXPECT_EQ(Logger::ParseLevel("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(Logger::ParseLevel("Info"), LogLevel::kInfo);
  EXPECT_EQ(Logger::ParseLevel("warn"), LogLevel::kWarning);
  EXPECT_EQ(Logger::ParseLevel("warning"), LogLevel::kWarning);
  EXPECT_EQ(Logger::ParseLevel("error"), LogLevel::kError);
  EXPECT_EQ(Logger::ParseLevel("off"), LogLevel::kOff);
  EXPECT_EQ(Logger::ParseLevel("bogus"), LogLevel::kInfo);
}

TEST(LoggingTest, SetLevelRoundTrips) {
  const LogLevel before = Logger::level();
  Logger::set_level(LogLevel::kError);
  EXPECT_EQ(Logger::level(), LogLevel::kError);
  Logger::set_level(before);
}

TEST(LoggingTest, ChecksPassOnTrueCondition) {
  LSHC_CHECK(1 + 1 == 2) << "arithmetic broke";
  LSHC_CHECK_EQ(2, 2);
  LSHC_CHECK_NE(1, 2);
  LSHC_CHECK_LT(1, 2);
  LSHC_CHECK_LE(2, 2);
  LSHC_CHECK_GT(3, 2);
  LSHC_CHECK_GE(3, 3);
  LSHC_CHECK_OK(Status::OK());
}

TEST(LargeBlockAllocatorTest, LargeBlocksAreMappedAndKeepTheirContents) {
  using Allocator = LargeBlockAllocator<uint64_t>;
  const size_t large = Allocator::kMinMappedBytes / sizeof(uint64_t);
  std::vector<uint64_t, Allocator> values(1000);
  std::iota(values.begin(), values.end(), uint64_t{7});

  // Growing past the threshold moves the contents into a mapping of its
  // own, which starts on a page boundary (malloc's own mapped chunks start
  // 16 bytes past one).
  values.resize(large);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(values.data()) % 4096, 0u);
  for (size_t i = 0; i < 1000; ++i) ASSERT_EQ(values[i], i + 7);
  EXPECT_EQ(values[1000], 0u);
  EXPECT_EQ(values.back(), 0u);
  values.back() = 42;

  // And shrinking back below it returns them to operator new.
  values.resize(10);
  values.shrink_to_fit();
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(values[i], i + 7);
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH({ LSHC_CHECK(false) << "expected failure"; },
               "expected failure");
}

TEST(LoggingDeathTest, CheckOkAbortsOnError) {
  EXPECT_DEATH({ LSHC_CHECK_OK(Status::IOError("disk on fire")); },
               "disk on fire");
}

}  // namespace
}  // namespace lshclust
