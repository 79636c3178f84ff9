// Append-only structured run journal: the single source every per-run
// ledger is derived from.
//
// Every instrumented layer (provisioner, orchestrator, sentinel, faults,
// trainer, cloud meter) appends typed records through the same nullable
// Telemetry* bundle that gates metrics and tracing: nullptr means no
// journal, and a journal-enabled run is bit-identical to a journal-off run
// because every emission site only *observes* state the simulation already
// computed.
//
// Records carry job-clock simulation seconds (Tracer-style time offsets
// compose multi-segment runs onto one timeline) and a stable schema that
// docs/OBSERVABILITY.md documents field by field. The journal exports JSONL
// (one record per line) and an FNV-1a digest over the canonical record
// encoding, so "same run" is checkable as a single integer.
//
// The kBillingDelta records double as the cost-attribution ledger's input:
// each carries a settlement id grouping the per-instance deltas that were
// folded into one BillingMeter::total() call (or one plan_cost() addition),
// which lets telemetry::CostLedger reproduce the run's actual_cost
// arithmetic bit-for-bit (see report.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cynthia::telemetry {

/// Record type. The enumerator order is part of the stable schema (the
/// digest folds the numeric value); append new kinds at the end.
enum class JournalKind {
  kPlanChosen,     ///< no writer; kept so later kinds keep their values
  kPlanSummary,    ///< no writer; kept so later kinds keep their values
  kNodeLifecycle,  ///< node state transition / provisioning milestone
  kFaultInjected,  ///< trainer injected a fault (subject: fault spec)
  kFaultRecovered, ///< trainer recovered from a fault
  kDetection,      ///< sentinel/recovery detected a condition
  kMitigation,     ///< a mitigation or repair was executed
  kReplan,         ///< Algorithm 1 re-ran mid-job (subject: new plan)
  kSegment,        ///< one training segment (prediction-audit input)
  kBillingDelta,   ///< one attributed billing charge (cost-ledger input)
  kVerdict,        ///< SLO verdict chain entry (time/loss/cost goal)
  // Fleet service records (src/service) — appended for schema stability.
  kJobSubmitted,   ///< tenant job arrived at the provisioning service
  kJobAdmitted,    ///< job granted capacity (value: queue-wait seconds)
  kJobCompleted,   ///< job ran to completion (value: billed dollars)
  kJobRejected,    ///< job left without running (infeasible/capacity/timeout)
};
const char* to_string(JournalKind kind);

/// Which lifecycle phase a billed dollar belongs to.
enum class CostPhase {
  kProvision,  ///< buying capacity before (or while) it becomes useful
  kTrain,      ///< capacity running the planned training
  kMitigate,   ///< capacity bought by a sentinel mitigation
  kRecover,    ///< capacity bought to heal a fault
};
const char* to_string(CostPhase phase);

/// Why the dollar was spent.
enum class CostCause {
  kPlan,            ///< the original Algorithm 1 plan
  kFault,           ///< an injected fault forced the spend
  kSentinelAction,  ///< an online mitigation decision forced the spend
};
const char* to_string(CostCause cause);

/// One journal record. All fields are always serialized (stable schema);
/// kinds that do not use a field leave it at its default.
struct JournalRecord {
  double t = 0.0;  ///< job-clock simulation seconds (offset applied)
  JournalKind kind = JournalKind::kSegment;
  std::string subject;  ///< node id, worker, plan, fault spec, goal name
  std::string detail;   ///< free-form deterministic annotation
  double value = 0.0;   ///< kind-specific scalar (dollars, seconds, severity)
  long iterations = 0;  ///< kSegment iteration counts
  double predicted = 0.0;  ///< kSegment t_iter / kVerdict goal value
  double actual = 0.0;     ///< measured counterpart of `predicted`
  int settlement = -1;     ///< kBillingDelta: fold group id; -1 otherwise
  CostPhase phase = CostPhase::kTrain;  ///< kBillingDelta only
  CostCause cause = CostCause::kPlan;   ///< kBillingDelta only
};

/// Append-only, single-threaded (like Tracer) event journal for one run.
class Journal {
 public:
  /// Runaway-instrumentation guard: further records are counted, not stored.
  static constexpr std::size_t kMaxRecords = 1'000'000;

  /// Appends `r`, adding the current time offset to r.t.
  void record(JournalRecord r);

  /// Convenience append for kinds that only need subject/detail/value.
  void event(double t, JournalKind kind, std::string subject, std::string detail = "",
             double value = 0.0);

  /// Appends a kSegment record: one training segment's predicted vs
  /// measured per-iteration time (the prediction-audit ledger's input).
  void segment(double t, std::string subject, std::string detail, long iterations,
               double predicted_t_iter, double actual_t_iter, double seconds);

  /// Appends a kVerdict record ("time-goal" / "loss-goal" / "cost"). The
  /// predicted/actual pair carries whatever unit the subject implies
  /// (seconds, loss, dollars).
  // cynthia-lint: allow(UNITS-001) — subject-dependent unit
  void verdict(double t, std::string subject, bool met, double predicted, double actual);

  /// Opens a new settlement group: one id per BillingMeter::total() call or
  /// per single plan_cost() addition folded into a run's actual_cost.
  int next_settlement() { return next_settlement_++; }

  /// Appends a kBillingDelta record attributing `dollars` on `node`.
  void billing_delta(double t, int settlement, CostPhase phase, CostCause cause,
                     std::string node, double dollars, std::string detail = "");

  /// Offset added to all subsequently recorded times (mirrors
  /// Tracer::set_time_offset so multi-segment runs share one timeline).
  void set_time_offset(double seconds) { offset_ = seconds; }
  [[nodiscard]] double time_offset() const { return offset_; }

  [[nodiscard]] const std::vector<JournalRecord>& records() const { return records_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  /// Records discarded after the kMaxRecords safety cap was hit.
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  /// FNV-1a digest over the canonical encoding of every record, in append
  /// order. Two runs of the same binary with the same seed and flags must
  /// produce equal digests (pinned by tests/journal_test.cpp).
  [[nodiscard]] std::uint64_t digest() const;

  /// JSONL export: one JSON object per record, append order, stable field
  /// set (docs/OBSERVABILITY.md).
  void write_jsonl(std::ostream& os) const;
  void write_jsonl_file(const std::string& path) const;

 private:
  std::vector<JournalRecord> records_;
  double offset_ = 0.0;
  std::size_t dropped_ = 0;
  int next_settlement_ = 0;

  bool admit();
};

namespace detail {
/// JSON string escaping shared by journal and report writers.
std::string json_escape(const std::string& s);
/// Shortest round-tripping decimal for a double ("%.17g").
std::string json_number(double v);
/// One FNV-1a step over a byte range.
std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t bytes);
}  // namespace detail

}  // namespace cynthia::telemetry
