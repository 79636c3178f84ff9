// Tests for the spot-market substrate (Proteus-style related work); the
// executed spot runs are covered by tests/spot_revocation_test.cpp.
#include <gtest/gtest.h>

#include <cmath>

#include "cloud/instance.hpp"
#include "cloud/spot.hpp"
#include "ddnn/workload.hpp"

namespace cc = cynthia::cloud;
namespace cd = cynthia::ddnn;

namespace {
const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }
}  // namespace

// -------------------------------------------------------------- market

TEST(SpotMarket, DeterministicForSeed) {
  cc::SpotMarket a(cc::Catalog::aws(), 5), b(cc::Catalog::aws(), 5);
  for (double t : {0.0, 1000.0, 86400.0}) {
    EXPECT_DOUBLE_EQ(a.price_at("m4.xlarge", t), b.price_at("m4.xlarge", t));
  }
  cc::SpotMarket c(cc::Catalog::aws(), 6);
  bool any_diff = false;
  for (double t = 0; t < 50000; t += 300) {
    any_diff |= a.price_at("m4.xlarge", t) != c.price_at("m4.xlarge", t);
  }
  EXPECT_TRUE(any_diff);
}

TEST(SpotMarket, PricesBoundedAndDiscounted) {
  cc::SpotMarket market;
  const double od = m4().price.value();
  double sum = 0.0;
  int n = 0;
  for (double t = 0; t < 7 * 86400; t += 300) {
    const double p = market.price_at("m4.xlarge", t);
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, od * 1.2 + 1e-9);
    sum += p;
    ++n;
  }
  const double avg = sum / n;
  // Long-run average near the configured discount.
  EXPECT_NEAR(avg, od * market.options().mean_discount, od * 0.25);
  EXPECT_LT(avg, od * 0.7) << "spot must be substantially cheaper than on-demand";
}

TEST(SpotMarket, TypesHaveIndependentTraces) {
  cc::SpotMarket market;
  bool differ = false;
  for (double t = 0; t < 20000; t += 300) {
    const double a = market.price_at("m4.xlarge", t) / m4().price.value();
    const double b =
        market.price_at("r3.xlarge", t) / cc::Catalog::aws().at("r3.xlarge").price.value();
    differ |= std::abs(a - b) > 1e-9;
  }
  EXPECT_TRUE(differ);
}

TEST(SpotMarket, CostIntegratesPrice) {
  cc::SpotMarket market;
  // Cost over an hour equals the average price over that hour.
  const double c = market.cost("m4.xlarge", 0.0, 3600.0).value();
  double avg = 0.0;
  for (int i = 0; i < 12; ++i) avg += market.price_at("m4.xlarge", i * 300.0);
  avg /= 12.0;
  EXPECT_NEAR(c, avg, 1e-9);
  EXPECT_DOUBLE_EQ(market.cost("m4.xlarge", 500.0, 500.0).value(), 0.0);
  EXPECT_THROW((void)market.cost("m4.xlarge", 100.0, 50.0), std::invalid_argument);
}

TEST(SpotMarket, RevocationAndAvailabilityAreConsistent) {
  cc::SpotMarket market;
  const double bid = market.mean_price("m4.xlarge") * 1.3;
  const auto held = market.held_windows("m4.xlarge", bid, 0.0, 14 * 86400.0);
  ASSERT_FALSE(held.empty());
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_LE(market.price_at("m4.xlarge", held[i].start), bid);
    EXPECT_GT(held[i].end, held[i].start);
    if (!held[i].revoked) {
      EXPECT_EQ(i + 1, held.size()) << "only the last window is censored";
      continue;
    }
    EXPECT_GT(market.price_at("m4.xlarge", held[i].end), bid);
    if (i + 1 < held.size()) {
      EXPECT_GT(held[i + 1].start, held[i].end);
    }
  }
}

TEST(SpotMarket, HighBidNeverRevoked) {
  cc::SpotMarket market;
  // Above the 1.2x on-demand cap, a bid can never be crossed.
  const double bid = m4().price.value() * 1.3;
  const auto held = market.held_windows("m4.xlarge", bid, 100.0, 3 * 86400.0);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_DOUBLE_EQ(held[0].start, 100.0);
  EXPECT_DOUBLE_EQ(held[0].end, 3 * 86400.0);
  EXPECT_FALSE(held[0].revoked);
}

TEST(SpotMarket, InvalidOptionsThrow) {
  cc::SpotTraceOptions bad;
  bad.step_seconds = cynthia::util::Seconds{0.0};
  EXPECT_THROW(cc::SpotMarket(cc::Catalog::aws(), 1, bad), std::invalid_argument);
  cc::SpotTraceOptions bad2;
  bad2.mean_discount = 0.0;
  EXPECT_THROW(cc::SpotMarket(cc::Catalog::aws(), 1, bad2), std::invalid_argument);
}
