// Unit tests for the util library: units, rng, stats, least squares,
// table/CSV formatting, rate traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>

#include "util/csv.hpp"
#include "util/least_squares.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time_series.hpp"
#include "util/units.hpp"

namespace cu = cynthia::util;

// ---------------------------------------------------------------- units

TEST(Units, ArithmeticAndComparison) {
  cu::GFlops a{10.0}, b{2.5};
  EXPECT_DOUBLE_EQ((a + b).value(), 12.5);
  EXPECT_DOUBLE_EQ((a - b).value(), 7.5);
  EXPECT_DOUBLE_EQ((a * 2.0).value(), 20.0);
  EXPECT_DOUBLE_EQ((2.0 * a).value(), 20.0);
  EXPECT_DOUBLE_EQ((a / 2.0).value(), 5.0);
  EXPECT_DOUBLE_EQ(a / b, 4.0);
  EXPECT_LT(b, a);
  EXPECT_EQ(a, cu::GFlops{10.0});
}

TEST(Units, CompoundAssignment) {
  cu::MegaBytes m{1.0};
  m += cu::MegaBytes{2.0};
  EXPECT_DOUBLE_EQ(m.value(), 3.0);
  m -= cu::MegaBytes{0.5};
  EXPECT_DOUBLE_EQ(m.value(), 2.5);
}

TEST(Units, PhysicalCrossUnitOps) {
  // 10 GFLOPs at 2 GFLOPS takes 5 s.
  EXPECT_DOUBLE_EQ((cu::GFlops{10} / cu::GFlopsRate{2}).value(), 5.0);
  // 100 MB at 50 MB/s takes 2 s.
  EXPECT_DOUBLE_EQ((cu::MegaBytes{100} / cu::MBps{50}).value(), 2.0);
  // rate x time = volume, both orders.
  EXPECT_DOUBLE_EQ((cu::GFlopsRate{2} * cu::Seconds{3}).value(), 6.0);
  EXPECT_DOUBLE_EQ((cu::Seconds{3} * cu::MBps{4}).value(), 12.0);
  // $0.36/h for 100 s costs one cent.
  EXPECT_NEAR((cu::DollarsPerHour{0.36} * cu::Seconds{100}).value(), 0.01, 1e-12);
}

TEST(Units, MinutesHoursHelpers) {
  EXPECT_DOUBLE_EQ(cu::minutes(2).value(), 120.0);
  EXPECT_DOUBLE_EQ(cu::hours(1.5).value(), 5400.0);
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  cu::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  cu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform(0, 1) == b.uniform(0, 1)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  cu::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  cu::Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    saw_lo |= v == 1;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BoundedNormalRespectsBound) {
  cu::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.bounded_normal(1.0, 0.5, 0.2);
    EXPECT_GE(x, 0.8);
    EXPECT_LE(x, 1.2);
  }
}

TEST(Rng, JitterAroundUnity) {
  cu::Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const double j = rng.jitter(0.1);
    EXPECT_GE(j, 0.9);
    EXPECT_LE(j, 1.1);
    sum += j;
  }
  EXPECT_NEAR(sum / 5000.0, 1.0, 0.01);
}

TEST(Rng, ChanceExtremes) {
  cu::Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// The engine is MT19937-64 bit for bit: std::mt19937_64 is the oracle for
// every seed, stream length, re-seed and copy, and for every distribution.
namespace {

/// Index of the first of `count` raw draws where `rng` and `oracle`
/// disagree, or -1. Both advance by `count` either way.
long first_raw_mismatch(cu::Rng& rng, std::mt19937_64& oracle, long count) {
  long mismatch = -1;
  for (long i = 0; i < count; ++i) {
    if (rng.bits() != oracle() && mismatch < 0) mismatch = i;
  }
  return mismatch;
}

/// Stream lengths on both sides of every block and first-block boundary.
constexpr long kBoundaryLengths[] = {0,   1,   2,   7,   8,   9,   155, 156, 157,
                                     311, 312, 313, 623, 624, 625, 936, 937};

}  // namespace

TEST(RngEngine, RawDrawsEqualStdMt19937_64) {
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42},
                                   std::uint64_t{2024}, std::uint64_t{0x9e3779b97f4a7c15ull},
                                   ~std::uint64_t{0}}) {
    cu::Rng rng(seed);
    std::mt19937_64 oracle(seed);
    EXPECT_EQ(first_raw_mismatch(rng, oracle, 5000), -1) << "seed " << seed;
  }
}

TEST(RngEngine, MixedSeedsAndLengthsEqualStdMt19937_64) {
  std::mt19937_64 seeds(20261019);
  for (int i = 0; i < 1200; ++i) {
    const std::uint64_t seed = seeds();
    // Every stream crosses a boundary length; every 16th runs long.
    const long length = i % 16 == 0 ? 5000 : kBoundaryLengths[i % std::size(kBoundaryLengths)] + 1;
    cu::Rng rng(seed);
    std::mt19937_64 oracle(seed);
    ASSERT_EQ(first_raw_mismatch(rng, oracle, length), -1) << "seed " << seed;
  }
}

TEST(RngEngine, ReseedMidStreamRestartsTheSequence) {
  for (const long drawn : kBoundaryLengths) {
    cu::Rng rng(7);
    std::mt19937_64 oracle(7);
    ASSERT_EQ(first_raw_mismatch(rng, oracle, drawn), -1);
    // Re-seeding a partly drawn stream discards it entirely, including the
    // seed words and twisted words already computed.
    const std::uint64_t next_seed = 1000 + static_cast<std::uint64_t>(drawn);
    rng.seed(next_seed);
    oracle.seed(next_seed);
    EXPECT_EQ(first_raw_mismatch(rng, oracle, 700), -1) << "re-seeded after " << drawn;
  }
}

TEST(RngEngine, CopyOfAPartlyDrawnStreamContinuesIdentically) {
  for (const long drawn : kBoundaryLengths) {
    cu::Rng rng(2024);
    std::mt19937_64 oracle(2024);
    ASSERT_EQ(first_raw_mismatch(rng, oracle, drawn), -1);
    cu::Rng copy = rng;
    std::mt19937_64 oracle_copy = oracle;
    EXPECT_EQ(first_raw_mismatch(rng, oracle, 700), -1) << "original after " << drawn;
    EXPECT_EQ(first_raw_mismatch(copy, oracle_copy, 700), -1) << "copy after " << drawn;
  }
}

TEST(RngEngine, DistributionsEqualStdOverMt19937_64) {
  constexpr auto kInt64Min = std::numeric_limits<std::int64_t>::min();
  constexpr auto kInt64Max = std::numeric_limits<std::int64_t>::max();
  for (const std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{42}, std::uint64_t{977}}) {
    cu::Rng rng(seed);
    std::mt19937_64 oracle(seed);
    // ~2,700 draws per seed: the interleaving crosses several blocks, and
    // the normal's rejection loop makes the word count vary per call.
    for (int i = 0; i < 300; ++i) {
      EXPECT_EQ(rng.uniform(-2.0, 5.0), std::uniform_real_distribution<double>(-2.0, 5.0)(oracle));
      EXPECT_EQ(rng.uniform_int(1, 6), std::uniform_int_distribution<std::int64_t>(1, 6)(oracle));
      EXPECT_EQ(rng.uniform_int(kInt64Min, kInt64Max),
                std::uniform_int_distribution<std::int64_t>(kInt64Min, kInt64Max)(oracle));
      EXPECT_EQ(rng.normal(10.0, 3.0), std::normal_distribution<double>(10.0, 3.0)(oracle));
      EXPECT_EQ(rng.bounded_normal(1.0, 0.5, 0.2),
                std::clamp(std::normal_distribution<double>(1.0, 0.5)(oracle), 0.8, 1.2));
      EXPECT_EQ(rng.jitter(0.1),
                std::uniform_real_distribution<double>(1.0 - 0.1, 1.0 + 0.1)(oracle));
      EXPECT_EQ(rng.chance(0.0), std::bernoulli_distribution(0.0)(oracle));
      EXPECT_EQ(rng.chance(1.0), std::bernoulli_distribution(1.0)(oracle));
      EXPECT_EQ(rng.chance(0.3), std::bernoulli_distribution(0.3)(oracle));
    }
    EXPECT_EQ(rng.bits(), oracle()) << "seed " << seed << ": streams out of step";
  }
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, MeanVarianceMinMax) {
  cu::RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  cu::RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, MapeSkipsZeroObservations) {
  std::vector<double> obs{100, 0, 200};
  std::vector<double> pred{110, 50, 180};
  // (10% + 10%) / 2 = 10%.
  EXPECT_NEAR(cu::mape_percent(obs, pred), 10.0, 1e-9);
}

TEST(Stats, MapeSizeMismatchThrows) {
  std::vector<double> a{1.0}, b{1.0, 2.0};
  EXPECT_THROW(cu::mape_percent(a, b), std::invalid_argument);
}

TEST(Stats, RelativeError) {
  EXPECT_NEAR(cu::relative_error_percent(200.0, 210.0), 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(cu::relative_error_percent(0.0, 5.0), 0.0);
}

// ------------------------------------------------------- least squares

TEST(LeastSquares, SolvesExactSystem) {
  cu::Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  auto x = cu::solve_linear_system(a, {5, 10});
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
}

TEST(LeastSquares, SingularThrows) {
  cu::Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_THROW(cu::solve_linear_system(a, {1, 2}), std::runtime_error);
}

TEST(LeastSquares, RecoversLinearCoefficients) {
  // y = 3 + 2x sampled exactly.
  cu::Matrix x(5, 2);
  std::vector<double> y(5);
  for (int i = 0; i < 5; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = i;
    y[i] = 3.0 + 2.0 * i;
  }
  auto beta = cu::least_squares(x, y);
  EXPECT_NEAR(beta[0], 3.0, 1e-6);
  EXPECT_NEAR(beta[1], 2.0, 1e-6);
}

TEST(LeastSquares, UnderdeterminedThrows) {
  cu::Matrix x(1, 2);
  std::vector<double> y{1.0};
  EXPECT_THROW(cu::least_squares(x, y), std::invalid_argument);
}

TEST(Nnls, ClampsNegativeCoefficients) {
  // y = -1 * x best fit is negative; NNLS must return 0.
  cu::Matrix x(3, 1);
  x(0, 0) = 1;
  x(1, 0) = 2;
  x(2, 0) = 3;
  auto beta = cu::nnls(x, std::vector<double>{-1, -2, -3});
  EXPECT_DOUBLE_EQ(beta[0], 0.0);
}

TEST(Nnls, MatchesOlsWhenPositive) {
  cu::Matrix x(4, 2);
  std::vector<double> y(4);
  for (int i = 0; i < 4; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = i + 1.0;
    y[i] = 0.5 + 1.5 * (i + 1.0);
  }
  auto beta = cu::nnls(x, y);
  EXPECT_NEAR(beta[0], 0.5, 1e-5);
  EXPECT_NEAR(beta[1], 1.5, 1e-5);
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAlignedCells) {
  cu::Table t("Demo");
  t.header({"a", "long-column"});
  t.row({"1", "2"});
  t.row({"333", "4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Demo"), std::string::npos);
  EXPECT_NE(s.find("long-column"), std::string::npos);
  EXPECT_NE(s.find("| 333 |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(cu::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(cu::Table::pct(42.345, 1), "42.3%");
}

TEST(Table, RaggedRowsPadded) {
  cu::Table t;
  t.header({"x", "y", "z"});
  t.row({"only-one"});
  EXPECT_NO_THROW(t.to_string());
}

// ---------------------------------------------------------------- csv

TEST(Csv, WritesAndEscapes) {
  const auto path = std::filesystem::temp_directory_path() / "cynthia_csv_test.csv";
  {
    cu::CsvWriter w(path.string());
    w.header({"name", "value"});
    w.row({"plain", "1"});
    w.row({"with,comma", "quote\"inside"});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,1");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with,comma\",\"quote\"\"inside\"");
  std::filesystem::remove(path);
}

TEST(Csv, NumericRows) {
  const auto path = std::filesystem::temp_directory_path() / "cynthia_csv_num.csv";
  {
    cu::CsvWriter w(path.string());
    w.row_numeric({1.5, 2.25});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2.25");
  std::filesystem::remove(path);
}

TEST(Csv, BadPathThrows) {
  EXPECT_THROW(cu::CsvWriter("/nonexistent_dir_xyz/file.csv"), std::runtime_error);
}

// ----------------------------------------------------------- rate trace

TEST(RateTrace, IntegratesIntoBuckets) {
  cu::RateTrace t(1.0);
  t.add_segment(0.0, 0.5, 10.0);  // 5 units in bucket 0
  t.add_segment(0.5, 2.0, 2.0);   // 1 unit in bucket 0, 2 in bucket 1
  auto b = t.buckets();
  ASSERT_EQ(b.size(), 2u);
  EXPECT_NEAR(b[0].value, 6.0, 1e-9);
  EXPECT_NEAR(b[1].value, 2.0, 1e-9);
  EXPECT_NEAR(t.total_volume(), 8.0, 1e-9);
  EXPECT_NEAR(t.average(), 4.0, 1e-9);
  EXPECT_NEAR(t.peak(), 6.0, 1e-9);
}

TEST(RateTrace, ZeroRateSegmentsExtendTime) {
  cu::RateTrace t(1.0);
  t.add_segment(0.0, 1.0, 4.0);
  t.add_segment(1.0, 4.0, 0.0);
  EXPECT_DOUBLE_EQ(t.end_time(), 4.0);
  EXPECT_NEAR(t.average(), 1.0, 1e-9);
  EXPECT_EQ(t.buckets().size(), 4u);
}

TEST(RateTrace, EmptySegmentIgnored) {
  cu::RateTrace t(1.0);
  t.add_segment(1.0, 1.0, 100.0);
  EXPECT_DOUBLE_EQ(t.total_volume(), 0.0);
  EXPECT_TRUE(t.buckets().empty());
}

TEST(RateTrace, InvalidBucketWidthThrows) {
  EXPECT_THROW(cu::RateTrace(0.0), std::invalid_argument);
}

TEST(RateTrace, VolumeConservedAcrossBucketBoundaries) {
  cu::RateTrace t(0.7);
  double expected = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double t0 = i * 0.31;
    const double t1 = t0 + 0.31;
    const double rate = (i % 5) * 1.7;
    t.add_segment(t0, t1, rate);
    expected += rate * 0.31;
  }
  double bucket_volume = 0.0;
  for (const auto& b : t.buckets()) bucket_volume += b.value * b.width;
  EXPECT_NEAR(bucket_volume, expected, 1e-6);
  EXPECT_NEAR(t.total_volume(), expected, 1e-6);
}
