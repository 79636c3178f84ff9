// Multi-tenant provisioning service suite: region capacity accounting,
// synthetic traffic determinism, admission/queueing policy, and the fleet
// determinism contract (run-twice digest equality).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "core/provisioner.hpp"
#include "ddnn/workload.hpp"
#include "orchestrator/cluster_manager.hpp"
#include "profiler/profiler.hpp"
#include "region/region.hpp"
#include "service/job.hpp"
#include "service/service.hpp"
#include "service/traffic.hpp"
#include "sim/simulator.hpp"
#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace cc = cynthia::cloud;
namespace co = cynthia::core;
namespace cd = cynthia::ddnn;
namespace cp = cynthia::profiler;
namespace cr = cynthia::region;
namespace orch = cynthia::orch;
namespace cs = cynthia::service;
namespace ct = cynthia::telemetry;
namespace cu = cynthia::util;

namespace {

class ScopedInvariants {
 public:
  explicit ScopedInvariants(bool enabled) : saved_(cu::invariants_enabled()) {
    cu::set_invariants_enabled(enabled);
  }
  ~ScopedInvariants() { cu::set_invariants_enabled(saved_); }
  ScopedInvariants(const ScopedInvariants&) = delete;
  ScopedInvariants& operator=(const ScopedInvariants&) = delete;

 private:
  bool saved_;
};

const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }

co::Provisioner make_provisioner(const char* name,
                                 std::vector<cc::InstanceType> types = {}) {
  static std::map<std::string, cp::ProfileResult> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, cp::profile_workload(cd::workload_by_name(name), m4())).first;
  }
  const auto& w = cd::workload_by_name(name);
  co::LossModel loss(w.sync, w.loss().beta0, w.loss().beta1);
  if (types.empty()) types = cc::Catalog::aws().provisionable();
  return co::Provisioner(co::CynthiaModel(it->second), std::move(loss), std::move(types));
}

const co::ProvisionGoal kMnistGoal{cu::hours(1.0), 0.5};

/// Docker footprint of the cost-optimal mnist plan on m4.xlarge alone —
/// several fixtures size their region to exactly one such job at a time.
int mnist_m4_footprint() {
  static const int footprint = [] {
    auto prov = make_provisioner("mnist", {m4()});
    const auto plan = prov.plan(cd::workload_by_name("mnist").sync, kMnistGoal);
    EXPECT_TRUE(plan.feasible);
    return plan.n_workers + plan.n_ps;
  }();
  return footprint;
}

cs::JobRequest mnist_request(long id, cs::Priority priority, double arrival,
                             double patience = 0.0) {
  cs::JobRequest rq;
  rq.id = id;
  rq.tenant = "t" + std::to_string(id);
  rq.workload = "mnist";
  rq.goal = kMnistGoal;
  rq.priority = priority;
  rq.arrival = cu::Seconds{arrival};
  rq.max_queue_wait = cu::Seconds{patience};
  return rq;
}

}  // namespace

// ---------------------------------------------------------------------------
// Region: finite per-type capacity accounting.
// ---------------------------------------------------------------------------

namespace {

/// The index of `type` in region.capacities(): the index the accounting
/// calls take.
std::size_t slot_of(const cr::Region& region, const std::string& type) {
  const std::vector<cr::TypeCapacity> caps = region.capacities();
  const auto at = std::find_if(caps.begin(), caps.end(),
                               [&](const cr::TypeCapacity& c) { return c.type == type; });
  if (at == caps.end()) throw std::out_of_range("test region does not stock " + type);
  return static_cast<std::size_t>(at - caps.begin());
}

}  // namespace

TEST(Region, ReserveReleaseAccounting) {
  cr::Region region({{"m4.xlarge", 8}, {"c3.xlarge", 4}});
  const std::size_t m4x = slot_of(region, "m4.xlarge");
  EXPECT_FALSE(region.is_unbounded());
  EXPECT_EQ(region.capacity(m4x), 8);
  EXPECT_EQ(region.available(m4x), 8);
  EXPECT_EQ(region.capacity_total(), 12);

  EXPECT_TRUE(region.fits(m4x, 8));
  EXPECT_FALSE(region.fits(m4x, 9));

  region.reserve(m4x, 5, cu::Seconds{0.0});
  EXPECT_EQ(region.reserved(m4x), 5);
  EXPECT_EQ(region.available(m4x), 3);
  EXPECT_EQ(region.reserved_total(), 5);

  region.release(m4x, 5, cu::Seconds{10.0});
  EXPECT_EQ(region.reserved_total(), 0);
  EXPECT_EQ(region.available(m4x), 8);
}

// A type's index is its position in capacities() (name order); each
// accounting call touches that type alone, and an index past the last type
// throws.
TEST(Region, IndexIsThePositionInCapacities) {
  cr::Region region({{"m4.xlarge", 8}, {"c3.xlarge", cr::Region::kUnbounded}, {"r3.xlarge", 2}});
  const std::vector<cr::TypeCapacity> caps = region.capacities();
  ASSERT_EQ(caps.size(), 3u);
  EXPECT_EQ(caps[0].type, "c3.xlarge");
  EXPECT_EQ(caps[1].type, "m4.xlarge");
  EXPECT_EQ(caps[2].type, "r3.xlarge");
  for (std::size_t i = 0; i < caps.size(); ++i) {
    EXPECT_EQ(region.capacity(i), caps[i].docker_slots);
  }

  region.reserve(1, 5, cu::Seconds{0.0});
  EXPECT_EQ(region.reserved(1), 5);
  EXPECT_EQ(region.available(1), 3);
  EXPECT_TRUE(region.fits(1, 3));
  EXPECT_FALSE(region.fits(1, 4));
  EXPECT_EQ(region.reserved(0), 0);
  EXPECT_EQ(region.available(2), 2);
  region.release(1, 5, cu::Seconds{1.0});
  EXPECT_EQ(region.reserved(1), 0);
  EXPECT_EQ(region.available(0), cr::Region::kUnbounded);
  EXPECT_THROW((void)region.fits(3, 1), std::out_of_range);
  EXPECT_THROW((void)region.capacity(3), std::out_of_range);
  EXPECT_THROW(region.reserve(3, 1, cu::Seconds{1.0}), std::out_of_range);
  EXPECT_THROW(region.release(3, 0, cu::Seconds{1.0}), std::out_of_range);
}

TEST(Region, ConstructorRejectsBadCapacities) {
  EXPECT_THROW(cr::Region({{"m4.xlarge", 4}, {"m4.xlarge", 2}}), std::invalid_argument);
  EXPECT_THROW(cr::Region({{"m4.xlarge", -7}}), std::invalid_argument);
}

TEST(Region, OverCommitAndOverReleaseThrow) {
  cr::Region region({{"m4.xlarge", 4}});
  EXPECT_THROW(region.reserve(0, 5, cu::Seconds{0.0}), std::logic_error);
  region.reserve(0, 4, cu::Seconds{0.0});
  EXPECT_THROW(region.release(0, 5, cu::Seconds{1.0}), std::logic_error);
}

TEST(Region, BackwardsClockTripsInvariantCheck) {
  ScopedInvariants on(true);
  cr::Region region({{"m4.xlarge", 4}});
  region.reserve(0, 2, cu::Seconds{10.0});
  EXPECT_THROW(region.release(0, 2, cu::Seconds{5.0}), cu::CheckFailure);
}

TEST(Region, UtilizationIsAnExactIntegral) {
  cr::Region region({{"m4.xlarge", 4}});
  region.reserve(0, 2, cu::Seconds{0.0});
  region.release(0, 2, cu::Seconds{50.0});
  region.advance_to(cu::Seconds{100.0});
  EXPECT_DOUBLE_EQ(region.busy_docker_seconds(), 100.0);  // 2 dockers x 50 s
  EXPECT_DOUBLE_EQ(region.utilization(cu::Seconds{100.0}), 0.25);
}

TEST(Region, UnboundedFactoryFitsEverything) {
  const cr::Region region = cr::Region::unbounded();
  EXPECT_TRUE(region.is_unbounded());
  const std::size_t m4x = slot_of(region, "m4.xlarge");
  EXPECT_TRUE(region.fits(m4x, 1 << 20));
  EXPECT_EQ(region.available(m4x), cr::Region::kUnbounded);
  EXPECT_EQ(region.capacity_total(), 0);  // no finite capacity
  EXPECT_DOUBLE_EQ(region.utilization(cu::Seconds{100.0}), 0.0);
}

TEST(Region, ParseGrammar) {
  const cr::Region two = cr::Region::parse("m4.xlarge=256,c3.xlarge=128");
  EXPECT_EQ(two.capacity(slot_of(two, "m4.xlarge")), 256);
  EXPECT_EQ(two.capacity(slot_of(two, "c3.xlarge")), 128);
  EXPECT_EQ(two.capacities().size(), 2u);

  const cr::Region star = cr::Region::parse("*=512");
  for (const auto& cap : star.capacities()) EXPECT_EQ(cap.docker_slots, 512);
  EXPECT_GT(star.capacities().size(), 2u);

  EXPECT_TRUE(cr::Region::parse("inf").is_unbounded());

  EXPECT_THROW(cr::Region::parse(""), std::invalid_argument);
  EXPECT_THROW(cr::Region::parse("no-such-type=4"), std::invalid_argument);
  EXPECT_THROW(cr::Region::parse("m4.xlarge=abc"), std::invalid_argument);
  EXPECT_THROW(cr::Region::parse("m4.xlarge=4,m4.xlarge=8"), std::invalid_argument);
}

// Slot counts are whole-token decimal integers: nothing is truncated.
TEST(Region, ParseRejectsTrailingText) {
  EXPECT_THROW(cr::Region::parse("*=32abc"), std::invalid_argument);
  EXPECT_THROW(cr::Region::parse("m4.xlarge=32 "), std::invalid_argument);
}

TEST(Region, ParseRejectsFractionalCount) {
  EXPECT_THROW(cr::Region::parse("*=3.9"), std::invalid_argument);
}

TEST(Region, ParseRejectsHexCount) {
  EXPECT_THROW(cr::Region::parse("m4.xlarge=0x10"), std::invalid_argument);
}

TEST(Region, ParseRejectsOutOfRangeCount) {
  EXPECT_THROW(cr::Region::parse("*=99999999999"), std::invalid_argument);
  EXPECT_THROW(cr::Region::parse("m4.xlarge=-4"), std::invalid_argument);
  EXPECT_EQ(cr::Region::parse("m4.xlarge=0").capacity(0), 0);
}

// ---------------------------------------------------------------------------
// Core: the finite-region planning cap (ProvisionOptions::max_total_dockers).
// ---------------------------------------------------------------------------

TEST(MaxTotalDockers, CapsPlanFootprint) {
  auto prov = make_provisioner("cifar10");
  const auto sync = cd::workload_by_name("cifar10").sync;
  const co::ProvisionGoal goal{cu::minutes(120), 0.8};
  const auto unconstrained = prov.plan(sync, goal);
  ASSERT_TRUE(unconstrained.feasible);
  const int footprint = unconstrained.n_workers + unconstrained.n_ps;

  // A cap at the unconstrained footprint changes nothing.
  co::ProvisionOptions at_cap;
  at_cap.max_total_dockers = footprint;
  const auto same = prov.plan(sync, goal, at_cap);
  ASSERT_TRUE(same.feasible);
  EXPECT_EQ(same.type.name, unconstrained.type.name);
  EXPECT_EQ(same.n_workers, unconstrained.n_workers);
  EXPECT_EQ(same.n_ps, unconstrained.n_ps);

  // Any feasible capped plan respects the cap.
  co::ProvisionOptions tight;
  tight.max_total_dockers = footprint > 2 ? footprint - 1 : footprint;
  const auto capped = prov.plan(sync, goal, tight);
  if (capped.feasible) {
    EXPECT_LE(capped.n_workers + capped.n_ps, tight.max_total_dockers);
  }

  // One docker cannot hold a worker and a PS.
  co::ProvisionOptions one;
  one.max_total_dockers = 1;
  EXPECT_FALSE(prov.plan(sync, goal, one).feasible);
}

TEST(MaxTotalDockers, CapsReplanFootprint) {
  auto prov = make_provisioner("cifar10");
  const auto sync = cd::workload_by_name("cifar10").sync;
  co::ProvisionOptions opts;
  opts.max_total_dockers = 4;
  const auto plan = prov.replan(sync, 2000, cu::hours(4.0), opts);
  if (plan.feasible) {
    EXPECT_LE(plan.n_workers + plan.n_ps, 4);
  }
  co::ProvisionOptions one;
  one.max_total_dockers = 1;
  EXPECT_FALSE(prov.replan(sync, 2000, cu::hours(4.0), one).feasible);
}

// ---------------------------------------------------------------------------
// Traffic generator.
// ---------------------------------------------------------------------------

TEST(Traffic, DeterministicAndArrivalOrdered) {
  cs::TrafficOptions opts;
  opts.jobs = 300;
  opts.seed = 11;
  const cs::TrafficGenerator gen(opts);
  const auto a = gen.generate();
  const auto b = gen.generate();
  ASSERT_EQ(a.size(), 300u);
  ASSERT_EQ(b.size(), 300u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<long>(i));
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(a[i].goal.time_goal.value(), b[i].goal.time_goal.value());
    EXPECT_EQ(a[i].goal.target_loss, b[i].goal.target_loss);
    EXPECT_EQ(a[i].priority, b[i].priority);
    EXPECT_EQ(a[i].arrival.value(), b[i].arrival.value());
    if (i > 0) {
      EXPECT_GE(a[i].arrival.value(), a[i - 1].arrival.value());
    }
  }

  cs::TrafficOptions other = opts;
  other.seed = 12;
  const auto c = cs::TrafficGenerator(other).generate();
  bool any_difference = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c[i].arrival.value() != a[i].arrival.value() || c[i].workload != a[i].workload) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Traffic, MixesWorkloadsAndClasses) {
  cs::TrafficOptions opts;
  opts.jobs = 500;
  opts.seed = 3;
  std::map<std::string, int> workloads;
  std::map<cs::Priority, int> classes;
  for (const auto& rq : cs::TrafficGenerator(opts).generate()) {
    workloads[rq.workload] += 1;
    classes[rq.priority] += 1;
    EXPECT_GE(rq.arrival.value(), 0.0);
    EXPECT_LE(rq.arrival.value(), opts.horizon.value());
    EXPECT_GT(rq.goal.target_loss, 0.0);
    EXPECT_GT(rq.goal.time_goal.value(), 0.0);
  }
  EXPECT_GE(workloads.size(), 3u);  // the default mix actually mixes
  EXPECT_EQ(classes.size(), 3u);    // all three priority classes appear
}

TEST(Traffic, ParseGrammar) {
  const auto opts =
      cs::TrafficOptions::parse("poisson:jobs=250,horizon=6h,diurnal=0.6,peak=9,seed=5,"
                                "tenants=16,patience=30m,production=0.1,batch=0.5,"
                                "mix=mnist:6+cifar10:4");
  EXPECT_EQ(opts.jobs, 250);
  EXPECT_DOUBLE_EQ(opts.horizon.value(), 6.0 * 3600.0);
  EXPECT_DOUBLE_EQ(opts.diurnal_amplitude, 0.6);
  EXPECT_DOUBLE_EQ(opts.peak_hour, 9.0);
  EXPECT_EQ(opts.seed, 5u);
  EXPECT_EQ(opts.tenants, 16);
  EXPECT_DOUBLE_EQ(opts.patience.value(), 1800.0);
  EXPECT_DOUBLE_EQ(opts.production_fraction, 0.1);
  EXPECT_DOUBLE_EQ(opts.batch_fraction, 0.5);
  ASSERT_EQ(opts.mix.size(), 2u);
  EXPECT_EQ(opts.mix[0].workload, "mnist");
  EXPECT_DOUBLE_EQ(opts.mix[0].weight, 6.0);

  EXPECT_THROW(cs::TrafficOptions::parse("jobs=0"), std::invalid_argument);
  EXPECT_THROW(cs::TrafficOptions::parse("jobs=abc"), std::invalid_argument);
  EXPECT_THROW(cs::TrafficOptions::parse("diurnal=1.5"), std::invalid_argument);
  EXPECT_THROW(cs::TrafficOptions::parse("production=0.8,batch=0.4"), std::invalid_argument);
  EXPECT_THROW(cs::TrafficOptions::parse("nonsense=1"), std::invalid_argument);
}

namespace {

/// The message TrafficOptions::parse rejects `spec` with ("" if accepted).
std::string traffic_error(const std::string& spec) {
  try {
    (void)cs::TrafficOptions::parse(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

}  // namespace

// The traffic grammar fails closed: each value is read as a whole token, and
// the error names the key.
TEST(Traffic, RejectsTrailingText) {
  EXPECT_EQ(traffic_error("jobs=5abc,horizon=1h"),
            "traffic: bad jobs '5abc': expected an integer");
  EXPECT_EQ(traffic_error("diurnal=0.5x"), "traffic: bad diurnal '0.5x': expected a number");
  EXPECT_EQ(traffic_error("horizon=2hh"), "traffic: bad horizon '2hh': expected a number");
  EXPECT_EQ(traffic_error("jobs=99999999999999999999"),
            "traffic: bad jobs '99999999999999999999': out of range");
}

TEST(Traffic, RejectsNonFiniteReals) {
  EXPECT_EQ(traffic_error("diurnal=nan"), "traffic: bad diurnal 'nan': must be finite");
  EXPECT_EQ(traffic_error("peak=nan"), "traffic: bad peak 'nan': must be finite");
  EXPECT_EQ(traffic_error("production=nan"), "traffic: bad production 'nan': must be finite");
  EXPECT_EQ(traffic_error("horizon=infh"), "traffic: bad horizon 'infh': must be finite");
  EXPECT_EQ(traffic_error("mix=mnist:nan"), "traffic: bad mix weight 'mnist:nan': must be finite");
  // Finite text that overflows once scaled to seconds.
  EXPECT_EQ(traffic_error("horizon=1e306h"), "traffic: horizon must be finite and positive");
}

TEST(Traffic, RejectsTenantsBelowOne) {
  EXPECT_EQ(traffic_error("tenants=0"), "traffic: tenants must be at least 1");
  EXPECT_EQ(traffic_error("tenants=-3"), "traffic: tenants must be at least 1");
}

TEST(Traffic, RejectsSignedSeed) {
  EXPECT_EQ(traffic_error("seed=-1"), "traffic: bad seed '-1': expected a non-negative integer");
  EXPECT_EQ(cs::TrafficOptions::parse("seed=18446744073709551615").seed,
            18446744073709551615ull);
}

TEST(Traffic, RejectsNegativePatience) {
  EXPECT_EQ(traffic_error("patience=-5m"),
            "traffic: patience must be finite and >= 0 (0 waits forever)");
  EXPECT_EQ(cs::TrafficOptions::parse("patience=0").patience.value(), 0.0);
}

TEST(Traffic, ValidateCatchesOverriddenFields) {
  // cynthiactl serve applies --jobs/--seed/--patience after parse().
  auto opts = cs::TrafficOptions::parse("poisson:jobs=5,horizon=1h");
  EXPECT_NO_THROW(opts.validate());
  opts.jobs = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.jobs = 5;
  opts.patience = cu::minutes(-5.0);
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ProvisioningService: admission, queueing, and determinism.
// ---------------------------------------------------------------------------

TEST(Service, UnboundedRegionAdmitsEverythingImmediately) {
  cs::ProvisioningService svc(cr::Region::unbounded());
  std::vector<cs::JobRequest> requests;
  for (long id = 0; id < 8; ++id) {
    requests.push_back(mnist_request(id, cs::Priority::kStandard, 10.0 * static_cast<double>(id)));
  }
  const auto result = svc.run(requests);
  EXPECT_EQ(result.stats.submitted, 8);
  EXPECT_EQ(result.stats.admitted, 8);
  EXPECT_EQ(result.stats.completed, 8);
  EXPECT_EQ(result.stats.rejected, 0);
  EXPECT_DOUBLE_EQ(result.stats.queue_wait_max.value(), 0.0);
  EXPECT_DOUBLE_EQ(result.stats.utilization, 0.0);  // no finite denominator
  for (const auto& o : result.outcomes) {
    EXPECT_EQ(o.state, cs::JobState::kCompleted);
    EXPECT_DOUBLE_EQ(o.queue_wait.value(), 0.0);
    EXPECT_GT(o.cost.value(), 0.0);
    EXPECT_GT(o.run_seconds.value(), 0.0);
  }
}

TEST(Service, PriorityQueueOrderOnContendedRegion) {
  // Capacity for exactly one mnist job at a time. Job 9 takes the region at
  // t=0; jobs 0 (batch), 1 (production), 2 (standard) all arrive at t=1 and
  // queue. Admission order must be production, standard, batch regardless
  // of arrival-event order, and each queued job takes the region exactly
  // when the job ahead of it releases it.
  const int slots = mnist_m4_footprint();
  cs::ProvisioningService svc(cr::Region({{"m4.xlarge", slots}}));
  std::vector<cs::JobRequest> requests;
  requests.push_back(mnist_request(9, cs::Priority::kStandard, 0.0));
  requests.push_back(mnist_request(0, cs::Priority::kBatch, 1.0));
  requests.push_back(mnist_request(1, cs::Priority::kProduction, 1.0));
  requests.push_back(mnist_request(2, cs::Priority::kStandard, 1.0));
  const auto result = svc.run(requests);

  ASSERT_EQ(result.stats.completed, 4);
  std::map<long, const cs::JobOutcome*> by_id;
  for (const auto& o : result.outcomes) by_id[o.request.id] = &o;
  EXPECT_DOUBLE_EQ(by_id.at(9)->queue_wait.value(), 0.0);
  EXPECT_GT(by_id.at(1)->queue_wait.value(), 0.0);
  EXPECT_LT(by_id.at(1)->admitted_at.value(), by_id.at(2)->admitted_at.value());
  EXPECT_LT(by_id.at(2)->admitted_at.value(), by_id.at(0)->admitted_at.value());
  EXPECT_EQ(by_id.at(1)->admitted_at.value(), by_id.at(9)->completed_at.value());
  EXPECT_EQ(by_id.at(2)->admitted_at.value(), by_id.at(1)->completed_at.value());
  EXPECT_EQ(by_id.at(0)->admitted_at.value(), by_id.at(2)->completed_at.value());
  EXPECT_GT(result.stats.utilization, 0.0);
}

TEST(Service, QueueOrderStableAcrossReruns) {
  const int slots = mnist_m4_footprint();
  std::vector<cs::JobRequest> requests;
  requests.push_back(mnist_request(9, cs::Priority::kStandard, 0.0));
  for (long id = 0; id < 6; ++id) {
    const auto cls = static_cast<cs::Priority>(id % 3);
    requests.push_back(mnist_request(id, cls, 1.0));
  }
  cs::ProvisioningService first(cr::Region({{"m4.xlarge", slots}}));
  cs::ProvisioningService second(cr::Region({{"m4.xlarge", slots}}));
  const auto a = first.run(requests);
  const auto b = second.run(requests);
  EXPECT_EQ(a.digest, b.digest);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].admitted_at.value(), b.outcomes[i].admitted_at.value());
    EXPECT_EQ(a.outcomes[i].completed_at.value(), b.outcomes[i].completed_at.value());
  }
}

TEST(Service, PatienceTimesOutQueuedJobs) {
  const int slots = mnist_m4_footprint();
  cs::ProvisioningService svc(cr::Region({{"m4.xlarge", slots}}));
  std::vector<cs::JobRequest> requests;
  requests.push_back(mnist_request(0, cs::Priority::kStandard, 0.0));
  requests.push_back(mnist_request(1, cs::Priority::kStandard, 0.0, /*patience=*/1.0));
  const auto result = svc.run(requests);
  EXPECT_EQ(result.outcomes[0].state, cs::JobState::kCompleted);
  EXPECT_EQ(result.outcomes[1].state, cs::JobState::kTimedOut);
  EXPECT_TRUE(result.outcomes[1].terminal_failure());
  EXPECT_EQ(result.stats.timed_out, 1);
  EXPECT_EQ(result.outcomes[1].reason, "patience exceeded");
}

TEST(Service, RejectsUnknownWorkloadAndImpossibleGoals) {
  cs::ProvisioningService svc(cr::Region::unbounded());
  std::vector<cs::JobRequest> requests;
  auto unknown = mnist_request(0, cs::Priority::kStandard, 0.0);
  unknown.workload = "no-such-model";
  requests.push_back(unknown);
  auto impossible = mnist_request(1, cs::Priority::kStandard, 0.0);
  impossible.workload = "vgg19";
  impossible.goal = co::ProvisionGoal{cu::Seconds{1.0}, 0.8};  // nothing is this fast
  requests.push_back(impossible);
  const auto result = svc.run(requests);
  EXPECT_EQ(result.stats.rejected, 2);
  EXPECT_EQ(result.outcomes[0].state, cs::JobState::kRejected);
  EXPECT_NE(result.outcomes[0].reason.find("unknown workload"), std::string::npos);
  EXPECT_EQ(result.outcomes[1].state, cs::JobState::kRejected);
  EXPECT_NE(result.outcomes[1].reason.find("no feasible plan"), std::string::npos);
}

TEST(Service, RejectsJobsThatCanNeverFitTheRegion) {
  // One docker cannot host a worker and a PS, so no mnist plan ever fits.
  cs::ProvisioningService svc(cr::Region({{"m4.xlarge", 1}}));
  const auto result = svc.run({mnist_request(0, cs::Priority::kStandard, 0.0)});
  EXPECT_EQ(result.outcomes[0].state, cs::JobState::kRejected);
  EXPECT_NE(result.outcomes[0].reason.find("exceeds region capacity"), std::string::npos);
}

TEST(Service, RunTwiceDigestIdenticalOn1kJobTrace) {
  const auto requests =
      cs::TrafficGenerator(cs::TrafficOptions::parse("jobs=1000,horizon=6h,seed=7")).generate();
  ASSERT_EQ(requests.size(), 1000u);
  const cr::Region region = cr::Region::parse("*=96");
  const auto a = cs::ProvisioningService(region).run(requests);
  const auto b = cs::ProvisioningService(region).run(requests);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.total_cost.value(), b.stats.total_cost.value());
  EXPECT_EQ(a.stats.queue_wait_p99.value(), b.stats.queue_wait_p99.value());
  EXPECT_GT(a.stats.completed, 0);
  EXPECT_GT(a.stats.slo_attain_rate, 0.0);
  EXPECT_GT(a.stats.utilization, 0.0);
}

// Pinned fleet outcomes: `cynthiactl serve --jobs 1000 --seed 1` and the same
// day with `--revocations 90 --spot`. Run-twice equality cannot catch an
// admission change that is deterministic but wrong; these pins do. A change
// to how the admission ladder prunes its searches may move
// `ladder_searches`, never the digest or the replan count.
TEST(Service, PinnedFleetDigests) {
  struct Case {
    const char* name;
    bool churn;
    std::uint64_t digest;
    long replans;
    long attempts;
    long revocations;
    long ladder_searches;
  };
  const Case cases[] = {
      {"plain", false, 0xb901fb185ea21d68ull, 21926, 1000, 0, 16897},
      {"churn", true, 0x7dc5de34e4cf24e7ull, 32251, 1588, 588, 19740},
  };
  const auto requests =
      cs::TrafficGenerator(cs::TrafficOptions::parse("jobs=1000,horizon=24h,seed=1")).generate();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    cs::ServeOptions opts;
    opts.seed = 1;
    if (c.churn) {
      opts.mean_revocation_interval = cu::minutes(90.0);
      opts.spot_fleets = true;
    }
    const auto result =
        cs::ProvisioningService(cr::Region::parse("*=160"), cc::Catalog::aws(), opts).run(requests);
    EXPECT_EQ(result.digest, c.digest);
    EXPECT_EQ(result.stats.replans, c.replans);
    EXPECT_EQ(result.stats.attempts, c.attempts);
    EXPECT_EQ(result.stats.revocations, c.revocations);
    EXPECT_EQ(result.stats.ladder_searches, c.ladder_searches);
  }
}

// The same 1k-job day on a mixed region: c3.xlarge and m4.xlarge capped at 32
// dockers each beside an unbounded r3.xlarge. A capped search on an unbounded
// type runs uncapped, a path the uniform `*=160` region never takes; every
// type admits jobs, plain and churn.
TEST(Service, PinnedMixedRegionFleetDigests) {
  struct Case {
    const char* name;
    bool churn;
    std::uint64_t digest;
    long replans;
    long attempts;
    long revocations;
    long ladder_searches;
  };
  const Case cases[] = {
      {"plain", false, 0xd5d8515aa5b96d2bull, 571, 1000, 0, 2150},
      {"churn", true, 0xcd042fcf0e480763ull, 1078, 1464, 464, 3925},
  };
  const auto requests =
      cs::TrafficGenerator(cs::TrafficOptions::parse("jobs=1000,horizon=24h,seed=1")).generate();
  const cr::Region region({{"c3.xlarge", 32}, {"m4.xlarge", 32},
                           {"r3.xlarge", cr::Region::kUnbounded}});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    cs::ServeOptions opts;
    opts.seed = 1;
    if (c.churn) {
      opts.mean_revocation_interval = cu::minutes(90.0);
      opts.spot_fleets = true;
    }
    const auto result = cs::ProvisioningService(region, cc::Catalog::aws(), opts).run(requests);
    EXPECT_EQ(result.digest, c.digest);
    EXPECT_EQ(result.stats.replans, c.replans);
    EXPECT_EQ(result.stats.attempts, c.attempts);
    EXPECT_EQ(result.stats.revocations, c.revocations);
    EXPECT_EQ(result.stats.ladder_searches, c.ladder_searches);
  }
}

// The fleet measures every attempt's provisioning on one reused
// orch::DeployMeter. For every plan the pinned 1k-job day admits, plain and
// churn, a reused meter returns what a new control plane returns, bit for bit.
TEST(DeployMeter, ReusedMeterMatchesAFreshControlPlaneOnThePinnedDay) {
  const auto requests =
      cs::TrafficGenerator(cs::TrafficOptions::parse("jobs=1000,horizon=24h,seed=1")).generate();
  orch::DeployMeter meter;
  long walks = 0;
  for (const bool churn : {false, true}) {
    SCOPED_TRACE(churn ? "churn" : "plain");
    cs::ServeOptions opts;
    opts.seed = 1;
    if (churn) {
      opts.mean_revocation_interval = cu::minutes(90.0);
      opts.spot_fleets = true;
    }
    const auto result =
        cs::ProvisioningService(cr::Region::parse("*=160"), cc::Catalog::aws(), opts).run(requests);
    for (const cs::JobOutcome& o : result.outcomes) {
      if (o.attempts == 0) continue;
      const std::uint64_t seed = 0x5eedull * static_cast<std::uint64_t>(o.request.id + 1) +
                                 static_cast<std::uint64_t>(o.attempts);
      cynthia::sim::Simulator sim;
      cc::BillingMeter billing;
      orch::ClusterManager manager(sim, billing, seed);
      const double fresh = manager.deploy(o.plan).provisioning_seconds();
      EXPECT_EQ(meter.measure(o.plan, seed).value(), fresh) << "job " << o.request.id;
      ++walks;
    }
  }
  EXPECT_GT(walks, 1000);
}

TEST(Service, RevocationsAreDeterministicAndRecovered) {
  const auto requests =
      cs::TrafficGenerator(cs::TrafficOptions::parse("jobs=120,horizon=2h,seed=21")).generate();
  cs::ServeOptions opts;
  opts.mean_revocation_interval = cu::minutes(20.0);
  const cr::Region region = cr::Region::parse("*=96");
  const auto a = cs::ProvisioningService(region, cc::Catalog::aws(), opts).run(requests);
  const auto b = cs::ProvisioningService(region, cc::Catalog::aws(), opts).run(requests);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_GT(a.stats.revocations, 0);
  // Revoked jobs are re-admitted and carried to completion, never dropped.
  for (const auto& o : a.outcomes) {
    if (o.revocations > 0) {
      EXPECT_EQ(o.state, cs::JobState::kCompleted);
      EXPECT_GT(o.attempts, 1);
    }
  }
  EXPECT_EQ(a.stats.starved, 0);
}

TEST(Service, TelemetryLedgerReproducesFleetCostExactly) {
  const auto requests =
      cs::TrafficGenerator(cs::TrafficOptions::parse("jobs=60,horizon=1h,seed=4")).generate();
  const cr::Region region = cr::Region::parse("*=96");

  ct::Telemetry tel;
  const auto observed = cs::ProvisioningService(region).run(requests, &tel);
  const auto silent = cs::ProvisioningService(region).run(requests);
  // Attaching telemetry changes no outcome.
  EXPECT_EQ(observed.digest, silent.digest);

  // Bit-exact cost attribution: the ledger fold reproduces the fleet total.
  const ct::CostLedger ledger = ct::CostLedger::from(tel.journal);
  EXPECT_EQ(ledger.total().value(), observed.stats.total_cost.value());

  std::map<ct::JournalKind, long> kinds;
  for (const auto& rec : tel.journal.records()) kinds[rec.kind] += 1;
  EXPECT_EQ(kinds[ct::JournalKind::kJobSubmitted], observed.stats.submitted);
  EXPECT_EQ(kinds[ct::JournalKind::kJobAdmitted], observed.stats.attempts);
  EXPECT_EQ(kinds[ct::JournalKind::kJobCompleted], observed.stats.completed);
  EXPECT_EQ(kinds[ct::JournalKind::kJobRejected],
            observed.stats.rejected + observed.stats.timed_out + observed.stats.starved);

  // Fleet gauges mirror the stats rollup.
  EXPECT_DOUBLE_EQ(tel.metrics.gauge(ct::metric::kServiceSloAttainRate).value(),
                   observed.stats.slo_attain_rate);
  EXPECT_DOUBLE_EQ(tel.metrics.gauge(ct::metric::kServiceUtilization).value(),
                   observed.stats.utilization);
}

TEST(Service, OutcomesAccountEveryDollarAndSecond) {
  const auto requests =
      cs::TrafficGenerator(cs::TrafficOptions::parse("jobs=40,horizon=1h,seed=13")).generate();
  const auto result = cs::ProvisioningService(cr::Region::parse("*=96")).run(requests);
  long terminal = 0;
  for (const auto& o : result.outcomes) {
    EXPECT_NE(o.state, cs::JobState::kQueued);
    EXPECT_NE(o.state, cs::JobState::kRunning);
    terminal += 1;
    if (o.state == cs::JobState::kCompleted) {
      EXPECT_GT(o.cost.value(), 0.0);
      EXPECT_GT(o.provisioning.value(), 0.0);
      EXPECT_GE(o.completed_at.value(), o.admitted_at.value());
      EXPECT_EQ(o.slo_met,
                o.completed_at.value() - o.request.arrival.value() <= o.request.goal.time_goal.value());
    } else {
      EXPECT_TRUE(o.terminal_failure());
    }
  }
  EXPECT_EQ(terminal, result.stats.submitted);
}

TEST(Service, DuplicateJobIdsTripInvariantCheck) {
  ScopedInvariants on(true);
  cs::ProvisioningService svc(cr::Region::unbounded());
  std::vector<cs::JobRequest> requests;
  requests.push_back(mnist_request(3, cs::Priority::kStandard, 0.0));
  requests.push_back(mnist_request(3, cs::Priority::kStandard, 1.0));
  EXPECT_THROW(svc.run(requests), cu::CheckFailure);
}
