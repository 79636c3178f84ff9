// Unit tests for the cloud substrate: catalog and billing meter.
#include <gtest/gtest.h>

#include "cloud/instance.hpp"
#include "cloud/pricing.hpp"

namespace cc = cynthia::cloud;
namespace cu = cynthia::util;

// ---------------------------------------------------------------- catalog

TEST(Catalog, ContainsPaperTestbedTypes) {
  const auto& cat = cc::Catalog::aws();
  for (const char* name : {"m4.xlarge", "m1.xlarge", "r3.xlarge", "c3.xlarge"}) {
    EXPECT_TRUE(cat.contains(name)) << name;
  }
}

TEST(Catalog, LookupReturnsCorrectEntry) {
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  EXPECT_EQ(m4.cpu_model, "Intel Xeon E5-2686 v4");
  EXPECT_EQ(m4.physical_cores, 2);
  EXPECT_FALSE(m4.previous_generation);
}

TEST(Catalog, UnknownTypeThrows) {
  EXPECT_THROW((void)cc::Catalog::aws().at("p3.16xlarge"), std::out_of_range);
  EXPECT_FALSE(cc::Catalog::aws().find("p3.16xlarge").has_value());
}

TEST(Catalog, M1IsStragglerClass) {
  const auto& cat = cc::Catalog::aws();
  const auto& m1 = cat.at("m1.xlarge");
  const auto& m4 = cat.at("m4.xlarge");
  EXPECT_TRUE(m1.previous_generation);
  // The straggler must be markedly slower (Figs. 1 and 9 rely on this).
  EXPECT_LT(m1.core_gflops.value(), 0.5 * m4.core_gflops.value());
}

TEST(Catalog, ProvisionableExcludesLegacy) {
  const auto types = cc::Catalog::aws().provisionable();
  EXPECT_FALSE(types.empty());
  for (const auto& t : types) {
    EXPECT_FALSE(t.previous_generation) << t.name;
  }
}

TEST(Catalog, DockerPriceSplitsInstancePrice) {
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  EXPECT_DOUBLE_EQ(m4.docker_price().value(), m4.price.value() / m4.physical_cores);
}

TEST(Catalog, AllEntriesPhysicallySane) {
  for (const auto& t : cc::Catalog::aws().types()) {
    EXPECT_GT(t.core_gflops.value(), 0.0) << t.name;
    EXPECT_GT(t.nic_mbps.value(), 0.0) << t.name;
    EXPECT_GT(t.price.value(), 0.0) << t.name;
    EXPECT_GE(t.vcpus, t.physical_cores) << t.name;
    EXPECT_GT(t.physical_cores, 0) << t.name;
  }
}

// ----------------------------------------------------------------- billing

TEST(Billing, AccruesPerSecond) {
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  cc::BillingMeter meter;
  const std::size_t record = meter.start("i-1", m4, cu::Seconds{0.0});
  meter.stop(record, cu::hours(1));
  EXPECT_NEAR(meter.total(cu::hours(1)).value(), 0.20, 1e-9);
}

TEST(Billing, MinimumChargeApplies) {
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  cc::BillingMeter meter;
  const std::size_t record = meter.start("i-1", m4, cu::Seconds{0.0});
  meter.stop(record, cu::Seconds{5.0});  // only 5 s, billed as 60 s
  EXPECT_NEAR(meter.total(cu::Seconds{10.0}).value(), 0.20 * 60.0 / 3600.0, 1e-9);
}

TEST(Billing, RunningInstancesValuedAtNow) {
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  cc::BillingMeter meter;
  const std::size_t record = meter.start("i-1", m4, cu::Seconds{100.0});
  ASSERT_EQ(meter.records().size(), 1u);
  EXPECT_TRUE(meter.records()[record].running());
  EXPECT_NEAR(meter.total(cu::Seconds{100.0 + 7200.0}).value(), 0.40, 1e-9);
}

TEST(Billing, StopAllAndErrors) {
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  cc::BillingMeter meter;
  const std::size_t record = meter.start("a", m4, cu::Seconds{0.0});
  EXPECT_THROW(meter.start("a", m4, cu::Seconds{1.0}), std::invalid_argument);  // duplicate
  EXPECT_THROW(meter.stop(record + 1, cu::Seconds{1.0}), std::out_of_range);    // unknown
  meter.stop(record, cu::Seconds{1.0});
  EXPECT_THROW(meter.stop(record, cu::Seconds{2.0}), std::out_of_range);  // already stopped
}

TEST(Billing, RestartAfterStopAllowed) {
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  cc::BillingMeter meter;
  meter.stop(meter.start("i-1", m4, cu::Seconds{0.0}), cu::hours(1));
  std::size_t again = 0;
  EXPECT_NO_THROW(again = meter.start("i-1", m4, cu::hours(2)));
  EXPECT_EQ(again, 1u);
  meter.stop(again, cu::hours(3));
  EXPECT_NEAR(meter.total(cu::hours(3)).value(), 0.40, 1e-9);
}

TEST(Billing, ClearStartsOver) {
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  cc::BillingMeter meter;
  meter.start("i-1", m4, cu::Seconds{0.0});
  EXPECT_NEAR(meter.total(cu::hours(2)).value(), 0.40, 1e-9);
  meter.clear();
  EXPECT_TRUE(meter.records().empty());
  EXPECT_EQ(meter.start("i-1", m4, cu::Seconds{0.0}), 0u);
  EXPECT_NEAR(meter.total(cu::hours(1)).value(), 0.20, 1e-9);
}
