// Unit tests for the telemetry library: metrics registry (counters, gauges,
// log-scale histograms), simulation-time tracer with Chrome trace_event JSON
// export, and the trainer/orchestrator instrumentation contract — the
// breakdown counters must tile training wall-clock time and barrier waits
// must be attributable to the straggler gap.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "cloud/instance.hpp"
#include "cloud/pricing.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "faults/fault_spec.hpp"
#include "orchestrator/cluster_manager.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace ct = cynthia::telemetry;
namespace cd = cynthia::ddnn;
using cynthia::cloud::Catalog;

// ------------------------------------------------------------- histograms

TEST(Histogram, BucketEdgesFollowTheLogLayout) {
  ct::HistogramOptions o;
  o.lowest_bound = 0.5;
  o.growth = 2.0;
  o.bucket_count = 4;
  const auto bounds = ct::Histogram::make_bounds(o);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 0.5);
  EXPECT_DOUBLE_EQ(bounds[1], 1.0);
  EXPECT_DOUBLE_EQ(bounds[2], 2.0);
  EXPECT_DOUBLE_EQ(bounds[3], 4.0);
}

TEST(Histogram, DefaultLayoutSpansMicrosecondsToTenMegaseconds) {
  const auto bounds = ct::Histogram::make_bounds({});
  ASSERT_EQ(bounds.size(), 14u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  EXPECT_NEAR(bounds.back(), 1e7, 1e-3);
}

TEST(Histogram, InvalidLayoutsThrow) {
  EXPECT_THROW(ct::Histogram::make_bounds({0.0, 10.0, 4}), std::invalid_argument);
  EXPECT_THROW(ct::Histogram::make_bounds({1e-6, 1.0, 4}), std::invalid_argument);
  EXPECT_THROW(ct::Histogram::make_bounds({1e-6, 10.0, 0}), std::invalid_argument);
}

TEST(Histogram, ObservationsLandInTheFirstAdmittingBucket) {
  ct::Histogram h({0.5, 2.0, 4});  // bounds 0.5, 1, 2, 4 + overflow
  h.observe(0.5);   // == bound: bucket 0 (upper bounds are inclusive)
  h.observe(0.75);  // bucket 1
  h.observe(4.0);   // bucket 3
  h.observe(100.0);  // overflow
  h.observe(-3.0);   // below everything: bucket 0
  const auto& counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 5u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(counts[4], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 0.75 + 4.0 + 100.0 - 3.0);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(Histogram, EmptyHistogramReportsZeroExtrema) {
  ct::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Histogram, EmptyHistogramQuantileIsExactlyZero) {
  // Documented contract: with no observations every quantile is a
  // deterministic 0.0 — never NaN, never a bucket midpoint — so report
  // generators can render empty runs without special-casing.
  ct::Histogram h;
  for (const double q : {0.0, 0.5, 0.99, 1.0, -0.25, 7.0}) {
    const double v = h.approx_quantile(q);
    EXPECT_EQ(v, 0.0) << "q=" << q;
    EXPECT_FALSE(std::isnan(v));
  }
  // One observation flips it to the real statistic; draining back to empty
  // is impossible (histograms are append-only), so 0.0 only means "empty".
  h.observe(3.0);
  EXPECT_GT(h.approx_quantile(0.5), 0.0);
}

// ------------------------------------------------------ counters / gauges

TEST(Metrics, CounterIsMonotone) {
  ct::Counter c;
  c.inc();
  c.inc(2.5);
  c.inc(0.0);    // ignored
  c.inc(-10.0);  // counters never go down
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
}

TEST(Metrics, GaugeIsLastWriteWins) {
  ct::Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(4.0);
  g.set(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), -1.5);
}

TEST(Metrics, RegistryReturnsStableIdentities) {
  ct::MetricsRegistry reg;
  ct::Counter& a = reg.counter("x");
  a.inc(2.0);
  reg.counter("y").inc();  // growing the map must not invalidate `a`
  EXPECT_EQ(&a, &reg.counter("x"));
  EXPECT_DOUBLE_EQ(reg.counter("x").value(), 2.0);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.find_gauge("x"), nullptr);  // kinds are separate namespaces
  EXPECT_DOUBLE_EQ(reg.counter_value("absent", 7.0), 7.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("absent", -2.0), -2.0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Metrics, CsvExportIsPrometheusShaped) {
  ct::MetricsRegistry reg;
  reg.counter("events").inc(3.0);
  reg.gauge("util").set(0.5);
  auto& h = reg.histogram("lat", {1.0, 10.0, 2});  // bounds 1, 10 + overflow
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  std::ostringstream os;
  reg.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("kind,name,field,value\n"), std::string::npos);
  EXPECT_NE(csv.find("counter,events,value,3"), std::string::npos);
  EXPECT_NE(csv.find("gauge,util,value,0.5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,count,3"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,le_1,1"), std::string::npos);    // cumulative
  EXPECT_NE(csv.find("histogram,lat,le_10,2"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,le_inf,3"), std::string::npos);  // == count
}

// ----------------------------------------------------------------- tracer

TEST(Tracer, SpansRecordTracksInFirstUseOrder) {
  ct::Tracer tr;
  tr.span("b", "one", "cat", 0.0, 1.0);
  tr.span("a", "two", "cat", 1.0, 1.5);
  tr.span("b", "one", "cat", 2.0, 2.25);
  tr.instant("a", "mark", "cat", 3.0);
  ASSERT_EQ(tr.tracks().size(), 2u);
  EXPECT_EQ(tr.tracks()[0], "b");
  EXPECT_EQ(tr.tracks()[1], "a");
  ASSERT_EQ(tr.events().size(), 4u);
  EXPECT_EQ(tr.events()[1].track, 1);
  EXPECT_DOUBLE_EQ(tr.span_seconds("b", "one"), 1.25);
  EXPECT_DOUBLE_EQ(tr.span_seconds("a", "mark"), 0.0);  // instants have no span time
  EXPECT_DOUBLE_EQ(tr.span_seconds("absent", "one"), 0.0);
}

TEST(Tracer, DegenerateSpansClampToZeroDuration) {
  ct::Tracer tr;
  tr.span("t", "backwards", "cat", 5.0, 3.0);
  ASSERT_EQ(tr.events().size(), 1u);
  EXPECT_DOUBLE_EQ(tr.events()[0].duration, 0.0);
  EXPECT_DOUBLE_EQ(tr.events()[0].start, 5.0);
}

TEST(Tracer, TimeOffsetSequencesPhasesOnOneTimeline) {
  ct::Tracer tr;
  tr.span("t", "provision", "orch", 0.0, 10.0);
  tr.set_time_offset(10.0);  // training clock restarts at 0
  tr.span("t", "compute", "trainer", 0.0, 2.0);
  tr.instant("t", "mark", "trainer", 2.0);
  EXPECT_DOUBLE_EQ(tr.events()[1].start, 10.0);
  EXPECT_DOUBLE_EQ(tr.events()[2].start, 12.0);
}

// Minimal recursive-descent JSON validator: enough to prove the exported
// Chrome trace is well-formed (chrome://tracing would reject anything less).
namespace minijson {

struct Parser {
  const char* p;
  const char* end;

  void ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
  }
  bool lit(const char* s) {
    const char* q = p;
    while (*s) {
      if (q >= end || *q != *s) return false;
      ++q, ++s;
    }
    p = q;
    return true;
  }
  bool string() {
    if (p >= end || *p != '"') return false;
    ++p;
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) return false;
      }
      ++p;
    }
    if (p >= end) return false;
    ++p;  // closing quote
    return true;
  }
  bool number() {
    const char* q = p;
    if (p < end && (*p == '-' || *p == '+')) ++p;
    while (p < end && (std::isdigit(static_cast<unsigned char>(*p)) || *p == '.' ||
                       *p == 'e' || *p == 'E' || *p == '-' || *p == '+')) {
      ++p;
    }
    return p > q;
  }
  bool value() {
    ws();
    if (p >= end) return false;
    if (*p == '{') return object();
    if (*p == '[') return array();
    if (*p == '"') return string();
    if (lit("true") || lit("false") || lit("null")) return true;
    return number();
  }
  bool object() {
    ++p;  // '{'
    ws();
    if (p < end && *p == '}') return ++p, true;
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (p >= end || *p != ':') return false;
      ++p;
      if (!value()) return false;
      ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == '}') return ++p, true;
      return false;
    }
  }
  bool array() {
    ++p;  // '['
    ws();
    if (p < end && *p == ']') return ++p, true;
    while (true) {
      if (!value()) return false;
      ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == ']') return ++p, true;
      return false;
    }
  }
};

bool valid(const std::string& text) {
  Parser parser{text.data(), text.data() + text.size()};
  if (!parser.value()) return false;
  parser.ws();
  return parser.p == parser.end;
}

}  // namespace minijson

int count_occurrences(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(Tracer, ChromeJsonRoundTripsThroughAParser) {
  ct::Tracer tr;
  tr.span("wk0.cpu", "compute", "trainer", 0.0, 1.5);
  tr.span("wk0.comm", "push \"quoted\"\n", "trainer", 1.5, 2.0);  // escaping
  tr.instant("wk0.cpu", "parked", "trainer", 2.0);

  const std::string path = (std::filesystem::temp_directory_path() /
                            "cynthia_telemetry_test_trace.json").string();
  tr.write_chrome_json_file(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  std::filesystem::remove(path);

  EXPECT_TRUE(minijson::valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"thread_name\""), 2);  // one per track
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 2);     // spans
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"i\""), 1);     // instants
  // Timestamps are microseconds: the 1.5 s span starts at 0 and lasts 1.5e6.
  EXPECT_NE(json.find("\"dur\":1500000.000"), std::string::npos);
  EXPECT_NE(json.find("push \\\"quoted\\\"\\n"), std::string::npos);
}

// ------------------------------------------------- trainer instrumentation

/// Heterogeneous 2-worker BSP run: wk0 is the fast (m4) worker, wk1 the
/// m1 straggler; the PS sits on the fast type.
cd::TrainResult straggler_run(ct::Telemetry* tel, long iterations = 30) {
  const auto cluster = cd::ClusterSpec::with_stragglers(
      Catalog::aws().at("m4.xlarge"), Catalog::aws().at("m1.xlarge"), 2, 1);
  cd::TrainOptions o;
  o.iterations = iterations;
  o.telemetry = tel;
  return cd::run_training(cluster, cd::workload_by_name("mnist"), o);
}

TEST(TrainerTelemetry, BreakdownCountersTileTrainingTime) {
  ct::Telemetry tel;
  const auto r = straggler_run(&tel);
  const auto& m = tel.metrics;
  const double comp = m.counter_value(ct::metric::kCompSeconds);
  const double comm = m.counter_value(ct::metric::kCommExposedSeconds);
  const double barrier = m.counter_value(ct::metric::kBarrierSeconds);
  const double total = m.gauge_value(ct::metric::kTrainSeconds);
  EXPECT_GT(comp, 0.0);
  EXPECT_GT(barrier, 0.0);
  EXPECT_NEAR(total, r.total_time, 1e-9);
  // The per-worker tiling is exact by construction; 1e-6 relative is far
  // inside the issue's 2% acceptance bound.
  EXPECT_NEAR(comp + comm + barrier, total, total * 1e-6);
  EXPECT_DOUBLE_EQ(m.counter_value(ct::metric::kIterations), 30.0);
  EXPECT_DOUBLE_EQ(m.gauge_value(ct::metric::kTrainWorkers), 2.0);
  EXPECT_GT(m.counter_value(ct::metric::kSimEvents), 0.0);
  EXPECT_GT(m.counter_value(ct::metric::kFluidSettles), 0.0);
  EXPECT_GT(m.counter_value(ct::metric::kPushSeconds), 0.0);
  EXPECT_GT(m.counter_value(ct::metric::kPullSeconds), 0.0);
}

TEST(TrainerTelemetry, FastWorkerAbsorbsTheStragglerGapAtTheBarrier) {
  ct::Telemetry tel;
  straggler_run(&tel);
  const auto& tr = tel.tracer;
  const double comp_fast = tr.span_seconds("wk0.cpu", "compute");
  const double comp_slow = tr.span_seconds("wk1.cpu", "compute");
  const double barrier_fast = tr.span_seconds("wk0.cpu", "barrier");
  const double barrier_slow = tr.span_seconds("wk1.cpu", "barrier");
  EXPECT_GT(comp_fast, 0.0);
  EXPECT_GT(comp_slow, comp_fast);  // the m1 straggler computes longer
  EXPECT_GT(barrier_fast, barrier_slow);  // ... so the m4 worker waits
  const double comm_fast =
      tr.span_seconds("wk0.comm", "push") + tr.span_seconds("wk0.comm", "pull");
  EXPECT_GT(comm_fast, 0.0);
  // Communication spans live on the comm tracks, not the cpu tracks.
  EXPECT_DOUBLE_EQ(tr.span_seconds("wk0.cpu", "push"), 0.0);
}

TEST(TrainerTelemetry, SummaryFractionsCoverTheRun) {
  ct::Telemetry tel;
  straggler_run(&tel);
  const auto s = ct::TelemetrySummary::from(tel.metrics);
  EXPECT_GT(s.train_seconds, 0.0);
  EXPECT_EQ(s.iterations, 30);
  EXPECT_EQ(s.workers, 2);
  EXPECT_NEAR(s.comp_fraction + s.comm_fraction + s.barrier_fraction, 1.0, 0.02);
  EXPECT_FALSE(s.table().to_string().empty());
}

TEST(TrainerTelemetry, DisabledTelemetryLeavesResultsBitIdentical) {
  ct::Telemetry tel;
  const auto with = straggler_run(&tel);
  const auto without = straggler_run(nullptr);
  EXPECT_EQ(with.total_time, without.total_time);
  EXPECT_EQ(with.computation_time, without.computation_time);
  EXPECT_EQ(with.communication_time, without.communication_time);
  EXPECT_EQ(with.final_loss, without.final_loss);
  EXPECT_FALSE(tel.tracer.events().empty());
  EXPECT_EQ(tel.tracer.dropped(), 0u);
}

TEST(TrainerTelemetry, AspAccountsCyclesAndWaits) {
  auto w = cd::workload_by_name("mnist");
  w.sync = cd::SyncMode::ASP;
  const auto cluster = cd::ClusterSpec::homogeneous(Catalog::aws().at("m4.xlarge"), 2, 1);
  ct::Telemetry tel;
  cd::TrainOptions o;
  o.iterations = 40;
  o.telemetry = &tel;
  const auto r = cd::run_training(cluster, w, o);
  const auto& m = tel.metrics;
  const double comp = m.counter_value(ct::metric::kCompSeconds);
  const double comm = m.counter_value(ct::metric::kCommExposedSeconds);
  const double barrier = m.counter_value(ct::metric::kBarrierSeconds);
  EXPECT_GT(comp, 0.0);
  EXPECT_GT(comm, 0.0);
  EXPECT_NEAR(comp + comm + barrier, r.total_time, r.total_time * 0.02);
  EXPECT_NE(m.find_gauge(ct::metric::kStaleness), nullptr);
}

// -------------------------------------------- orchestrator instrumentation

TEST(OrchestratorTelemetry, DeployEmitsLifecycleAndProvisionSpans) {
  cynthia::sim::Simulator sim;
  cynthia::cloud::BillingMeter billing;
  cynthia::orch::ClusterManager manager(sim, billing);
  ct::Telemetry tel;
  manager.set_telemetry(&tel);
  cynthia::core::ProvisionPlan plan;
  plan.feasible = true;
  plan.type = Catalog::aws().at("m4.xlarge");
  plan.n_workers = 4;
  plan.n_ps = 1;
  const auto d = manager.deploy(plan);
  EXPECT_TRUE(d.active);
  const auto& tr = tel.tracer;
  EXPECT_NEAR(tr.span_seconds("orchestrator", "provision"), d.provisioning_seconds(), 1e-9);
  EXPECT_NEAR(tel.metrics.counter_value(ct::metric::kProvisionSeconds),
              d.provisioning_seconds(), 1e-9);
  EXPECT_GT(tel.metrics.gauge_value(ct::metric::kBillingDollars), 0.0);
  // Every node went Requested -> Booting -> Installing -> Joining; each
  // closed state is a span on the node's own "i-<id>" track.
  ASSERT_FALSE(d.nodes.empty());
  const std::string track = "i-" + std::to_string(d.nodes.front());
  EXPECT_GT(tr.span_seconds(track, "Booting"), 0.0);
  EXPECT_GT(tr.span_seconds(track, "Installing"), 0.0);
  EXPECT_GT(tr.span_seconds(track, "Joining"), 0.0);
}

TEST(OrchestratorTelemetry, JoinFailuresCountRetries) {
  cynthia::sim::Simulator sim;
  cynthia::cloud::BillingMeter billing;
  cynthia::orch::ClusterManager manager(sim, billing, /*seed=*/7,
                                        /*join_failure_probability=*/1.0);  // every join fails
  ct::Telemetry tel;
  manager.set_telemetry(&tel);
  manager.launch(Catalog::aws().at("m4.xlarge"), 1);
  EXPECT_FALSE(manager.wait_all_ready());
  EXPECT_DOUBLE_EQ(tel.metrics.counter_value(ct::metric::kJoinRetries), 1.0);
}

// ------------------------------------------------------- pinned CSV export
//
// The tests above check each layer's metrics by shape. This one pins the
// exact CSV that one registry holds after a BSP run, an ASP run under
// faults, a deploy and a few planner calls (both prediction-cache tiers),
// so a change to how metrics store or combine values shows up here. The
// planner.plan_seconds rows hold wall-clock latencies and are left out.

namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// write_csv output without the rows of metric `skip`.
std::string csv_without(const ct::MetricsRegistry& m, const std::string& skip) {
  std::ostringstream os;
  m.write_csv(os);
  std::istringstream in(os.str());
  std::string kept, line;
  while (std::getline(in, line)) {
    if (line.find(',' + skip + ',') == std::string::npos) kept += line + '\n';
  }
  return kept;
}

}  // namespace

TEST(Metrics, PinnedCsvDigest) {
  namespace co = cynthia::core;
  const auto& m4 = Catalog::aws().at("m4.xlarge");
  ct::Telemetry tel;
  straggler_run(&tel);  // BSP

  auto asp = cd::workload_by_name("mnist");
  asp.sync = cd::SyncMode::ASP;
  const auto schedule = cynthia::faults::FaultSchedule::parse("slow:wk0@0.1x3+0.2;crash:wk1@0.3+0.1");
  cd::TrainOptions o;
  o.iterations = 120;
  o.telemetry = &tel;
  o.faults = &schedule;
  ASSERT_GT(cd::run_training(cd::ClusterSpec::homogeneous(m4, 4, 1), asp, o).faults.injected, 0);

  cynthia::sim::Simulator sim;
  cynthia::cloud::BillingMeter billing;
  cynthia::orch::ClusterManager manager(sim, billing);
  manager.set_telemetry(&tel);
  co::ProvisionPlan shape;
  shape.feasible = true;
  shape.type = m4;
  shape.n_workers = 3;
  shape.n_ps = 1;
  ASSERT_TRUE(manager.deploy(shape).active);

  const auto& w = cd::workload_by_name("cifar10");
  const co::Predictor pred = co::Predictor::build(w, m4);
  co::Provisioner prov(pred.model(), pred.loss(), Catalog::aws().provisionable());
  prov.set_metrics(&tel.metrics);
  const co::ProvisionGoal goal{cynthia::util::minutes(90), 0.8};
  ASSERT_TRUE(prov.plan(w.sync, goal).feasible);
  ASSERT_TRUE(prov.plan(w.sync, goal).feasible);  // answered from the warm cache
  // 13 PS lies past the cache's flat table: the map tier answers.
  EXPECT_GT(prov.plan(w.sync, {cynthia::util::minutes(5), 2.0}).n_ps, 8);
  ASSERT_TRUE(prov.replan(w.sync, 2000, cynthia::util::minutes(45)).feasible);

  // Ties with a bound, underflow, overflow and NaN, as the instrument sees them.
  ct::Histogram& h = tel.metrics.histogram("pin.values", {0.5, 2.0, 4});
  for (const double v : {0.5, 0.75, 4.0, 100.0, -3.0, 0.75,
                         std::numeric_limits<double>::quiet_NaN()}) {
    h.observe(v);
  }

  const std::string csv = csv_without(tel.metrics, ct::metric::kPlannerPlanSeconds);
  ASSERT_NE(csv.find("gauge,planner.cache_hits,value,"), std::string::npos);
  char digest[19];
  std::snprintf(digest, sizeof digest, "0x%016llx",
                static_cast<unsigned long long>(fnv1a(csv)));
  EXPECT_STREQ(digest, "0x0727bcf9dd2a2c67") << csv;
}
