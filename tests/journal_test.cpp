// Run-journal & attribution-ledger suite (tentpole of the observability PR).
//
// Covers the journal's determinism contract (same run -> same digest;
// journal-on -> bit-identical training and billing to journal-off), the
// cost-attribution ledger's exactness invariant (the grouped settlement
// fold reproduces the billing-meter chain bit-for-bit, never approximately),
// the prediction-audit flagging rule, and the JSONL/JSON/HTML writers.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "cloud/instance.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "faults/fault_spec.hpp"
#include "orchestrator/executor.hpp"
#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"

namespace cc = cynthia::cloud;
namespace cd = cynthia::ddnn;
namespace cf = cynthia::faults;
namespace core = cynthia::core;
namespace ct = cynthia::telemetry;
namespace orch = cynthia::orch;

namespace {

const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }

core::ProvisionPlan manual_plan(int n_workers, int n_ps, long iterations) {
  core::ProvisionPlan plan;
  plan.feasible = true;
  plan.type = m4();
  plan.n_workers = n_workers;
  plan.n_ps = n_ps;
  plan.iterations = iterations;
  plan.total_iterations = iterations;
  return plan;
}

/// Repair-in-place (or elastic) fault run with an optional journal-bearing
/// telemetry.
orch::JobRun fault_run(ct::Telemetry* tel, bool elastic = false) {
  const auto& w = cd::workload_by_name("mnist");
  orch::JobSpec spec{w, manual_plan(4, 1, 300), {cynthia::util::Seconds{3600.0}, 1.0},
                     cf::FaultSchedule::parse("crash:ps0@3;slow:wk0@1x2+4")};
  spec.training.telemetry = tel;
  if (elastic) {
    spec.policy = orch::Elastic{};
    const auto pred = core::Predictor::build(w, m4());
    const core::Provisioner provisioner(pred.model(), pred.loss(),
                                        cc::Catalog::aws().provisionable());
    return orch::execute_job(spec, &provisioner);
  }
  return orch::execute_job(spec);
}

/// Sentinel straggler run (auto policy) with an optional telemetry bundle.
orch::JobRun sentinel_run(ct::Telemetry* tel) {
  orch::JobSpec spec{cd::workload_by_name("mnist"), manual_plan(4, 1, 400),
                     {cynthia::util::Seconds{3600.0}, 1.0},
                     cf::FaultSchedule::parse("slow:wk1@1x4"),
                     orch::Sentinel{orch::MitigationPolicy::kAuto}};
  spec.seed = 7;
  spec.training.telemetry = tel;
  return orch::execute_job(spec);
}

}  // namespace

// ---------------------------------------------------------------- journal

TEST(Journal, EventRecordingAndDigestAreDeterministic) {
  ct::Journal a;
  ct::Journal b;
  for (ct::Journal* j : {&a, &b}) {
    j->event(1.0, ct::JournalKind::kFaultInjected, "crash:wk1@40", "detail", 2.0);
    j->segment(0.0, "segment-0", "completed", 100, 0.02, 0.021, 2.1);
    j->verdict(5.0, "time-goal", true, 10.0, 5.0);
    j->billing_delta(5.0, j->next_settlement(), ct::CostPhase::kTrain,
                     ct::CostCause::kPlan, "i-1", 0.5);
  }
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a.digest(), b.digest());
  b.event(6.0, ct::JournalKind::kDetection, "straggler");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Journal, TimeOffsetShiftsRecordedTimes) {
  ct::Journal j;
  j.event(1.0, ct::JournalKind::kDetection, "a");
  j.set_time_offset(10.0);
  j.event(1.0, ct::JournalKind::kDetection, "b");
  j.set_time_offset(0.0);
  ASSERT_EQ(j.size(), 2u);
  EXPECT_EQ(j.records()[0].t, 1.0);
  EXPECT_EQ(j.records()[1].t, 11.0);
}

TEST(Journal, JsonlEmitsEveryFieldOnEveryLine) {
  ct::Journal j;
  j.event(1.5, ct::JournalKind::kMitigation, "replace \"wk1\"", "line\nbreak");
  j.billing_delta(2.0, j.next_settlement(), ct::CostPhase::kRecover,
                  ct::CostCause::kFault, "i-3", 0.25, "m4.xlarge");
  std::ostringstream os;
  j.write_jsonl(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"kind\":\"mitigation\""), std::string::npos);
  EXPECT_NE(out.find("replace \\\"wk1\\\""), std::string::npos);
  EXPECT_NE(out.find("line\\nbreak"), std::string::npos);
  EXPECT_NE(out.find("\"phase\":\"recover\""), std::string::npos);
  EXPECT_NE(out.find("\"cause\":\"fault\""), std::string::npos);
  EXPECT_NE(out.find("\"settlement\":0"), std::string::npos);
  // Two lines, each a complete record.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

// ------------------------------------------------------------ cost ledger

TEST(CostLedger, GroupedFoldReproducesSettlementChain) {
  ct::Journal j;
  // Settlement 0: three per-node deltas (a meter total); settlement 1: one
  // plan-cost delta. The reference is the exact arithmetic the orchestrator
  // performs: fold within each settlement, then across settlements.
  const double d1 = 0.1, d2 = 0.2, d3 = 0.30000000000000004, d4 = 0.7;
  const int s0 = j.next_settlement();
  j.billing_delta(1.0, s0, ct::CostPhase::kTrain, ct::CostCause::kPlan, "i-1", d1);
  j.billing_delta(1.0, s0, ct::CostPhase::kTrain, ct::CostCause::kPlan, "i-2", d2);
  j.billing_delta(1.0, s0, ct::CostPhase::kProvision, ct::CostCause::kPlan, "i-3", d3);
  const int s1 = j.next_settlement();
  j.billing_delta(2.0, s1, ct::CostPhase::kRecover, ct::CostCause::kFault, "x", d4);

  const auto ledger = ct::CostLedger::from(j);
  ASSERT_EQ(ledger.entries().size(), 4u);
  const double reference = ((0.0 + d1) + d2 + d3) + (0.0 + d4);
  EXPECT_EQ(ledger.total().value(), reference);  // bitwise, not NEAR
  EXPECT_EQ(ledger.phase_dollars(ct::CostPhase::kRecover), d4);
  EXPECT_EQ(ledger.cause_dollars(ct::CostCause::kFault), d4);
  EXPECT_EQ(ledger.node_dollars().at("i-2"), d2);
}

// ------------------------------------------------------- prediction audit

TEST(PredictionAudit, FlagsDivergenceBeyondBoundOnly) {
  ct::Journal j;
  j.segment(0.0, "segment-0", "completed", 100, 0.020, 0.021, 2.1);  // +5%
  j.segment(2.1, "segment-1", "completed", 100, 0.020, 0.025, 2.5);  // +25%
  j.segment(4.6, "segment-2", "manual", 100, 0.0, 0.025, 2.5);       // unpredicted
  j.verdict(7.1, "time-goal", true, 7.0, 7.1);
  const auto audit = ct::PredictionAudit::from(j, 0.10);
  ASSERT_EQ(audit.rows.size(), 3u);
  EXPECT_FALSE(audit.rows[0].flagged);
  EXPECT_TRUE(audit.rows[1].flagged);
  EXPECT_NEAR(audit.rows[1].error_frac, 0.25, 1e-12);
  EXPECT_FALSE(audit.rows[2].flagged) << "no prediction -> nothing to audit";
  EXPECT_TRUE(audit.has_tg);
  EXPECT_EQ(audit.tg_predicted_seconds, 7.0);
  EXPECT_FALSE(audit.tg_flagged);
}

// ------------------------------------------------- end-to-end determinism

TEST(JournalDeterminism, RunTwiceProducesIdenticalDigest) {
  ct::Telemetry a;
  ct::Telemetry b;
  (void)fault_run(&a);
  (void)fault_run(&b);
  EXPECT_GT(a.journal.size(), 0u);
  EXPECT_EQ(a.journal.size(), b.journal.size());
  EXPECT_EQ(a.journal.digest(), b.journal.digest());
  EXPECT_EQ(a.journal.dropped(), 0u);
}

TEST(JournalDeterminism, JournalOnIsBitIdenticalToJournalOff) {
  ct::Telemetry tel;
  const auto with = fault_run(&tel);
  const auto without = fault_run(nullptr);
  EXPECT_EQ(with.training.total_time, without.training.total_time);
  EXPECT_EQ(with.training.iterations, without.training.iterations);
  EXPECT_EQ(with.training.final_loss, without.training.final_loss);
  EXPECT_EQ(with.actual_cost.value(), without.actual_cost.value());
  EXPECT_GT(tel.journal.size(), 0u);
}

// ---------------------------------------------------- exactness invariant

TEST(JournalAttribution, RepairInPlaceLedgerSumsToMeterExactly) {
  ct::Telemetry tel;
  const auto report = fault_run(&tel);
  const auto ledger = ct::CostLedger::from(tel.journal);
  EXPECT_FALSE(ledger.entries().empty());
  EXPECT_EQ(ledger.total().value(), report.actual_cost.value());
  EXPECT_EQ(tel.metrics.gauge_value(ct::metric::kBillingDollars),
            report.actual_cost.value());
  EXPECT_GT(ledger.phase_dollars(ct::CostPhase::kRecover), 0.0)
      << "the crash replacement must be attributed to the recover phase";
}

TEST(JournalAttribution, ElasticReplanLedgerSumsToMeterExactly) {
  ct::Telemetry tel;
  const auto report = fault_run(&tel, /*elastic=*/true);
  const auto ledger = ct::CostLedger::from(tel.journal);
  EXPECT_FALSE(ledger.entries().empty());
  EXPECT_EQ(ledger.total().value(), report.actual_cost.value());
  EXPECT_EQ(tel.metrics.gauge_value(ct::metric::kBillingDollars),
            report.actual_cost.value());
}

TEST(JournalAttribution, SentinelLedgerSumsToMeterExactly) {
  ct::Telemetry tel;
  const auto report = sentinel_run(&tel);
  const auto ledger = ct::CostLedger::from(tel.journal);
  EXPECT_FALSE(ledger.entries().empty());
  EXPECT_EQ(ledger.total().value(), report.actual_cost.value());
  EXPECT_EQ(tel.metrics.gauge_value(ct::metric::kBillingDollars),
            report.actual_cost.value());
}

// ------------------------------------------------------------ run report

TEST(RunReport, BuildsLedgersAndWritesJsonAndHtml) {
  ct::Telemetry tel;
  const auto report = sentinel_run(&tel);
  const auto run = ct::RunReport::build(tel.journal, "sentinel smoke", 0.10);
  EXPECT_EQ(run.total_cost_dollars(), report.actual_cost.value());
  EXPECT_EQ(run.journal_records, tel.journal.size());
  EXPECT_FALSE(run.verdicts.empty());
  EXPECT_FALSE(run.audit.rows.empty());

  std::ostringstream json;
  run.write_json(json);
  const std::string j = json.str();
  EXPECT_NE(j.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(j.find("\"total_dollars\""), std::string::npos);
  EXPECT_NE(j.find("\"by_phase\""), std::string::npos);
  EXPECT_NE(j.find("\"tg\""), std::string::npos);

  std::ostringstream html;
  run.write_html(html);
  const std::string h = html.str();
  EXPECT_NE(h.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(h.find("sentinel smoke"), std::string::npos);
  EXPECT_NE(h.find("Cost waterfall"), std::string::npos);
  EXPECT_NE(h.find("SLO verdict chain"), std::string::npos);
}
