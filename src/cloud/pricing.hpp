// Cost accounting for provisioned instances.
//
// The paper's Figs. 11-13 compare the dollar cost of provisioning plans
// (Eq. 8 is core::plan_cost). This module bills what actually ran: a
// BillingMeter accrues cost per instance with EC2-style per-second billing
// and a 60-second minimum charge.
#pragma once

#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "telemetry/journal.hpp"
#include "util/units.hpp"

namespace cynthia::cloud {

/// One open or closed billing record. Times are simulation-clock instants.
struct BillingRecord {
  std::string instance_id;
  std::string type_name;
  util::DollarsPerHour hourly;
  util::Seconds start_time;
  util::Seconds stop_time{-1.0};  ///< negative while the instance is running

  [[nodiscard]] bool running() const { return stop_time.value() < 0.0; }
};

/// Accrues per-instance charges against a simulation clock.
class BillingMeter {
 public:
  /// Duration below which a started instance is still charged (EC2 minimum).
  static constexpr util::Seconds kMinimumBillable{60.0};

  /// Registers a launch at `now`; returns the billing record index.
  std::size_t start(std::string instance_id, const InstanceType& type, util::Seconds now);

  /// Stops the instance of billing record `record` (start()'s return
  /// value); throws if the record is unknown or already stopped.
  void stop(std::size_t record, util::Seconds now);

  /// Drops every record and restarts the monotonicity check below.
  void clear() {
    records_.clear();
    last_total_time_ = util::Seconds{};
    last_total_value_ = 0.0;
  }

  /// Total accrued cost, valuing still-running instances as-if stopped `now`.
  [[nodiscard]] util::Dollars total(util::Seconds now) const;

  [[nodiscard]] const std::vector<BillingRecord>& records() const { return records_; }

  /// The charge total(until) accrues for one record — public so the journal
  /// settlement below can mirror total()'s per-record fold exactly.
  [[nodiscard]] static util::Dollars record_charge(const BillingRecord& r, util::Seconds until) {
    return charge(r, until);
  }

 private:
  std::vector<BillingRecord> records_;

  // Cost-monotonicity invariant state (util/check.hpp): accrued cost may
  // never shrink as the clock advances. Mutable because total() is a const
  // query; only touched when invariant checking is enabled.
  mutable util::Seconds last_total_time_;
  mutable double last_total_value_ = 0.0;

  [[nodiscard]] static util::Dollars charge(const BillingRecord& r, util::Seconds until);
};

/// Journals one settlement of `meter` as-of `now`: one kBillingDelta per
/// billing record, in meter order, under a single fresh settlement id —
/// the deltas fold back (telemetry::CostLedger::total) to exactly the
/// value meter.total(now) returned to the caller, bit for bit.
///
/// Attribution: records that stopped at or before `provision_end` never
/// survived provisioning (join-failure replacements) and are tagged
/// {kProvision, cause}; everything else gets {phase, cause}.
void journal_meter_settlement(telemetry::Journal& journal, const BillingMeter& meter,
                              util::Seconds now, telemetry::CostPhase phase,
                              telemetry::CostCause cause, util::Seconds provision_end,
                              const std::string& detail = "");

}  // namespace cynthia::cloud
