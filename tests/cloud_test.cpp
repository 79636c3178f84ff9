// Unit tests for the cloud substrate: catalog, capability table, pricing,
// billing meter, netperf.
#include <gtest/gtest.h>

#include "cloud/capability.hpp"
#include "cloud/instance.hpp"
#include "cloud/netperf.hpp"
#include "cloud/pricing.hpp"
#include "util/rng.hpp"

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

// -------------------------------------------------------------- capability

TEST(Capability, CatalogAndTableAgree) {
  // The paper reads c_wk from a static CPU table; the catalog must match it
  // for every type (Fig. 8's cross-type prediction depends on this).
  for (const auto& t : cc::Catalog::aws().types()) {
    auto cap = cc::lookup_cpu_capability(t.cpu_model);
    ASSERT_TRUE(cap.has_value()) << t.cpu_model;
    EXPECT_DOUBLE_EQ(cap->value(), t.core_gflops.value()) << t.cpu_model;
  }
}

TEST(Capability, UnknownModel) {
  EXPECT_FALSE(cc::lookup_cpu_capability("Intel 8086").has_value());
  EXPECT_THROW(cc::cpu_capability("Intel 8086"), std::out_of_range);
}

TEST(Capability, TableNonEmpty) { EXPECT_GE(cc::capability_table_size(), 4u); }

// ----------------------------------------------------------------- pricing

TEST(Pricing, DockerCostLinearInCountAndTime) {
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  const auto one = cc::docker_cost(m4, 1, cu::hours(1));
  EXPECT_NEAR(one.value(), m4.docker_price().value(), 1e-12);
  EXPECT_NEAR(cc::docker_cost(m4, 6, cu::hours(2)).value(), 12 * one.value(), 1e-12);
}

TEST(Pricing, InstanceCost) {
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  EXPECT_NEAR(cc::instance_cost(m4, 3, cu::hours(1)).value(), 0.6, 1e-12);
}

TEST(Pricing, NegativeInputsThrow) {
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  EXPECT_THROW(cc::docker_cost(m4, -1, cu::hours(1)), std::invalid_argument);
  EXPECT_THROW(cc::instance_cost(m4, 1, cu::Seconds{-5}), std::invalid_argument);
}

// ----------------------------------------------------------------- billing

TEST(Billing, AccruesPerSecond) {
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  cc::BillingMeter meter;
  meter.start("i-1", m4, cu::Seconds{0.0});
  meter.stop("i-1", cu::hours(1));
  EXPECT_NEAR(meter.total(cu::hours(1)).value(), 0.20, 1e-9);
}

TEST(Billing, MinimumChargeApplies) {
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  cc::BillingMeter meter;
  meter.start("i-1", m4, cu::Seconds{0.0});
  meter.stop("i-1", cu::Seconds{5.0});  // only 5 s, billed as 60 s
  EXPECT_NEAR(meter.total(cu::Seconds{10.0}).value(), 0.20 * 60.0 / 3600.0, 1e-9);
}

TEST(Billing, RunningInstancesValuedAtNow) {
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  cc::BillingMeter meter;
  meter.start("i-1", m4, cu::Seconds{100.0});
  EXPECT_EQ(meter.running_count(), 1u);
  EXPECT_NEAR(meter.total(cu::Seconds{100.0 + 7200.0}).value(), 0.40, 1e-9);
}

TEST(Billing, StopAllAndErrors) {
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  cc::BillingMeter meter;
  meter.start("a", m4, cu::Seconds{0.0});
  meter.start("b", m4, cu::Seconds{0.0});
  EXPECT_THROW(meter.start("a", m4, cu::Seconds{1.0}), std::invalid_argument);  // duplicate
  EXPECT_THROW(meter.stop("zzz", cu::Seconds{1.0}), std::out_of_range);
  meter.stop_all(cu::Seconds{1800.0});
  EXPECT_EQ(meter.running_count(), 0u);
  EXPECT_NEAR(meter.total(cu::Seconds{9999.0}).value(), 2 * 0.20 * 0.5, 1e-9);
}

TEST(Billing, RestartAfterStopAllowed) {
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  cc::BillingMeter meter;
  meter.start("i-1", m4, cu::Seconds{0.0});
  meter.stop("i-1", cu::hours(1));
  EXPECT_NO_THROW(meter.start("i-1", m4, cu::hours(2)));
  meter.stop("i-1", cu::hours(3));
  EXPECT_NEAR(meter.total(cu::hours(3)).value(), 0.40, 1e-9);
}

// ----------------------------------------------------------------- netperf

TEST(Netperf, MeasuresMinOfEndpointNics) {
  const auto& cat = cc::Catalog::aws();
  cu::Rng rng(5);
  const auto r = cc::netperf(cat.at("m4.xlarge"), cat.at("m1.xlarge"), rng, 0.0);
  EXPECT_DOUBLE_EQ(r.throughput.value(), cat.at("m1.xlarge").nic_mbps.value());
  EXPECT_GT(r.duration.value(), 0.0);
}

TEST(Netperf, NoiseIsBounded) {
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  cu::Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const double v = cc::measure_nic(m4, rng, 0.02).value();
    EXPECT_GE(v, m4.nic_mbps.value() * 0.98 - 1e-9);
    EXPECT_LE(v, m4.nic_mbps.value() * 1.02 + 1e-9);
  }
}
