#include "region/region.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/check.hpp"

namespace cynthia::region {

namespace {

std::vector<TypeCapacity> catalog_types(const cloud::Catalog& catalog, int docker_slots,
                                        bool include_accelerated) {
  std::vector<TypeCapacity> out;
  for (const auto& type : catalog.provisionable()) {
    out.push_back({type.name, docker_slots});
  }
  if (include_accelerated) {
    for (const auto& type : catalog.accelerated()) {
      out.push_back({type.name, docker_slots});
    }
  }
  return out;
}

}  // namespace

Region::Region(std::vector<TypeCapacity> capacities) {
  for (auto& entry : capacities) {
    if (entry.docker_slots < 0 && entry.docker_slots != kUnbounded) {
      throw std::invalid_argument("Region: negative capacity for " + entry.type);
    }
    const auto at = std::lower_bound(slots_.begin(), slots_.end(), entry.type,
                                     [](const Slot& s, const std::string& t) { return s.type < t; });
    if (at != slots_.end() && at->type == entry.type) {
      throw std::invalid_argument("Region: duplicate type " + entry.type);
    }
    if (entry.docker_slots != kUnbounded) capacity_total_ += entry.docker_slots;
    slots_.insert(at, Slot{std::move(entry.type), entry.docker_slots, 0});
  }
}

Region Region::unbounded(const cloud::Catalog& catalog) {
  return Region(catalog_types(catalog, kUnbounded, /*include_accelerated=*/true));
}

Region Region::uniform(int docker_slots, const cloud::Catalog& catalog) {
  return Region(catalog_types(catalog, docker_slots, /*include_accelerated=*/false));
}

Region Region::parse(const std::string& spec, const cloud::Catalog& catalog) {
  if (spec == "inf" || spec == "unbounded") return unbounded(catalog);
  std::vector<TypeCapacity> capacities;
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("Region::parse: expected <type>=<slots> in '" + item + "'");
    }
    const std::string name = item.substr(0, eq);
    // The whole value must be one decimal integer: "32abc", "3.9" and "0x10"
    // are rejected, not truncated.
    const std::string_view value = std::string_view(item).substr(eq + 1);
    int count = 0;
    const auto [end, ec] = std::from_chars(value.data(), value.data() + value.size(), count);
    if (ec != std::errc() || end != value.data() + value.size()) {
      throw std::invalid_argument("Region::parse: bad slot count in '" + item +
                                  "': expected a non-negative integer");
    }
    if (count < 0) {
      throw std::invalid_argument("Region::parse: negative slot count in '" + item + "'");
    }
    if (name == "*") {
      for (const auto& type : catalog.provisionable()) {
        capacities.push_back({type.name, count});
      }
      continue;
    }
    if (!catalog.contains(name)) {
      throw std::invalid_argument("Region::parse: unknown instance type '" + name + "'");
    }
    capacities.push_back({name, count});
  }
  if (capacities.empty()) {
    throw std::invalid_argument("Region::parse: empty region spec '" + spec + "'");
  }
  return Region(std::move(capacities));
}

bool Region::is_unbounded() const {
  return std::all_of(slots_.begin(), slots_.end(),
                     [](const Slot& s) { return s.capacity == kUnbounded; });
}

const Region::Slot& Region::slot(std::size_t index) const {
  if (index >= slots_.size()) {
    throw std::out_of_range("Region: type index " + std::to_string(index) + " out of range");
  }
  return slots_[index];
}

bool Region::fits(std::size_t index, int docker_slots) const {
  const Slot& s = slot(index);
  return s.capacity == kUnbounded || s.reserved + docker_slots <= s.capacity;
}

void Region::reserve(std::size_t index, int docker_slots, util::Seconds now) {
  if (docker_slots < 0) throw std::logic_error("Region::reserve: negative count");
  if (!fits(index, docker_slots)) {
    throw std::logic_error("Region::reserve: " + std::to_string(docker_slots) + "x " +
                           slots_[index].type + " does not fit (" + describe() + ")");
  }
  accrue(now);
  slots_[index].reserved += docker_slots;
  reserved_total_ += docker_slots;
  check_conservation();
}

void Region::release(std::size_t index, int docker_slots, util::Seconds now) {
  if (docker_slots < 0) throw std::logic_error("Region::release: negative count");
  if (slot(index).reserved < docker_slots) {
    throw std::logic_error("Region::release: over-release of " + std::to_string(docker_slots) +
                           "x " + slots_[index].type + " (" + describe() + ")");
  }
  accrue(now);
  slots_[index].reserved -= docker_slots;
  reserved_total_ -= docker_slots;
  check_conservation();
}

void Region::advance_to(util::Seconds now) {
  accrue(now);
  check_conservation();
}

int Region::capacity(std::size_t index) const { return slot(index).capacity; }

int Region::reserved(std::size_t index) const { return slot(index).reserved; }

int Region::available(std::size_t index) const {
  const Slot& s = slot(index);
  return s.capacity == kUnbounded ? kUnbounded : s.capacity - s.reserved;
}

double Region::utilization(util::Seconds horizon) const {
  if (capacity_total_ <= 0 || horizon.value() <= 0.0) return 0.0;
  return busy_docker_seconds_ / (static_cast<double>(capacity_total_) * horizon.value());
}

std::string Region::describe() const {
  std::string out;
  for (const Slot& s : slots_) {
    if (!out.empty()) out += ", ";
    out += s.type + " " + std::to_string(s.reserved) + "/";
    out += s.capacity == kUnbounded ? "inf" : std::to_string(s.capacity);
  }
  return out.empty() ? "(empty region)" : out;
}

std::vector<TypeCapacity> Region::capacities() const {
  std::vector<TypeCapacity> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) out.push_back({s.type, s.capacity});
  return out;
}

void Region::accrue(util::Seconds now) {
  CYNTHIA_CHECK(now.value() >= last_event_time_.value(), "Region clock ran backwards: ",
                now.value(), " < ", last_event_time_.value());
  // Guard outside the check too: the busy integral must stay correct in
  // unchecked builds even if a caller replays an equal timestamp.
  if (now.value() > last_event_time_.value()) {
    busy_docker_seconds_ +=
        static_cast<double>(reserved_total_) * (now - last_event_time_).value();
    last_event_time_ = now;
  }
}

void Region::check_conservation() const {
  if (!util::invariants_enabled()) return;
  int reserved_sum = 0;
  for (const Slot& s : slots_) {
    CYNTHIA_CHECK(s.reserved >= 0, "negative reservation on ", s.type);
    CYNTHIA_CHECK(s.capacity == kUnbounded || s.reserved <= s.capacity, "over-subscribed ",
                  s.type, ": ", s.reserved, " > ", s.capacity);
    reserved_sum += s.reserved;
  }
  CYNTHIA_CHECK(reserved_sum == reserved_total_, "reservation conservation broken: ",
                reserved_sum, " != ", reserved_total_);
  CYNTHIA_CHECK(busy_docker_seconds_ >= 0.0, "negative busy integral");
}

}  // namespace cynthia::region
