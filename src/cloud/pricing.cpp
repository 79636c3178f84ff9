#include "cloud/pricing.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"

namespace cynthia::cloud {

std::size_t BillingMeter::start(std::string instance_id, const InstanceType& type,
                                util::Seconds now) {
  for (const auto& r : records_) {
    if (r.running() && r.instance_id == instance_id) {
      throw std::invalid_argument("BillingMeter: instance '" + instance_id + "' already running");
    }
  }
  records_.push_back({std::move(instance_id), type.name, type.price, now, util::Seconds{-1.0}});
  return records_.size() - 1;
}

void BillingMeter::stop(std::size_t record, util::Seconds now) {
  if (record >= records_.size() || !records_[record].running()) {
    throw std::out_of_range("BillingMeter: no running record " + std::to_string(record));
  }
  BillingRecord& r = records_[record];
  if (now < r.start_time) throw std::invalid_argument("BillingMeter: stop before start");
  r.stop_time = now;
}

util::Dollars BillingMeter::charge(const BillingRecord& r, util::Seconds until) {
  const util::Seconds stop = r.running() ? until : r.stop_time;
  const util::Seconds billed = std::max(stop - r.start_time, kMinimumBillable);
  return r.hourly * billed;
}

util::Dollars BillingMeter::total(util::Seconds now) const {
  util::Dollars sum{};
  for (const auto& r : records_) sum += charge(r, now);
  if (util::invariants_enabled() && now >= last_total_time_) {
    // Cost monotonicity: with the clock advanced (and records only ever
    // added or stopped in between), the accrued bill can only grow.
    CYNTHIA_CHECK(sum.value() >= last_total_value_ - 1e-9,
                  "billing total shrank: $", sum.value(), " at t=", now.value(), " after $",
                  last_total_value_, " at t=", last_total_time_.value());
    last_total_time_ = now;
    last_total_value_ = sum.value();
  }
  return sum;
}

void journal_meter_settlement(telemetry::Journal& journal, const BillingMeter& meter,
                              util::Seconds now, telemetry::CostPhase phase,
                              telemetry::CostCause cause, util::Seconds provision_end,
                              const std::string& detail) {
  const int settlement = journal.next_settlement();
  for (const BillingRecord& r : meter.records()) {
    const bool died_provisioning = !r.running() && r.stop_time <= provision_end;
    journal.billing_delta(now.value(), settlement,
                          died_provisioning ? telemetry::CostPhase::kProvision : phase, cause,
                          r.instance_id, BillingMeter::record_charge(r, now).value(),
                          detail.empty() ? r.type_name : detail + " " + r.type_name);
  }
}

}  // namespace cynthia::cloud
