#include "region/region.hpp"

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
  for (const auto& entry : capacities) {
    if (entry.docker_slots < 0 && entry.docker_slots != kUnbounded) {
      throw std::invalid_argument("Region: negative capacity for " + entry.type);
    }
    if (slots_.count(entry.type) > 0) {
      throw std::invalid_argument("Region: duplicate type " + entry.type);
    }
    slots_[entry.type] = Slot{entry.docker_slots, 0};
    if (entry.docker_slots != kUnbounded) capacity_total_ += entry.docker_slots;
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
  for (const auto& [name, slot] : slots_) {
    if (slot.capacity != kUnbounded) return false;
  }
  return true;
}

bool Region::fits(const std::string& type, int docker_slots) const {
  const auto it = slots_.find(type);
  if (it == slots_.end()) return false;
  if (it->second.capacity == kUnbounded) return true;
  return it->second.reserved + docker_slots <= it->second.capacity;
}

void Region::reserve(const std::string& type, int docker_slots, util::Seconds now) {
  if (docker_slots < 0) throw std::logic_error("Region::reserve: negative count");
  if (!fits(type, docker_slots)) {
    throw std::logic_error("Region::reserve: " + std::to_string(docker_slots) + "x " + type +
                           " does not fit (" + describe() + ")");
  }
  accrue(now);
  slots_[type].reserved += docker_slots;
  reserved_total_ += docker_slots;
  check_conservation();
}

void Region::release(const std::string& type, int docker_slots, util::Seconds now) {
  if (docker_slots < 0) throw std::logic_error("Region::release: negative count");
  const auto it = slots_.find(type);
  if (it == slots_.end() || it->second.reserved < docker_slots) {
    throw std::logic_error("Region::release: over-release of " + std::to_string(docker_slots) +
                           "x " + type + " (" + describe() + ")");
  }
  accrue(now);
  it->second.reserved -= docker_slots;
  reserved_total_ -= docker_slots;
  check_conservation();
}

void Region::advance_to(util::Seconds now) {
  accrue(now);
  check_conservation();
}

int Region::capacity(const std::string& type) const {
  const auto it = slots_.find(type);
  return it == slots_.end() ? 0 : it->second.capacity;
}

int Region::reserved(const std::string& type) const {
  const auto it = slots_.find(type);
  return it == slots_.end() ? 0 : it->second.reserved;
}

int Region::available(const std::string& type) const {
  const auto it = slots_.find(type);
  if (it == slots_.end()) return 0;
  if (it->second.capacity == kUnbounded) return kUnbounded;
  return it->second.capacity - it->second.reserved;
}

double Region::utilization(util::Seconds horizon) const {
  if (capacity_total_ <= 0 || horizon.value() <= 0.0) return 0.0;
  return busy_docker_seconds_ / (static_cast<double>(capacity_total_) * horizon.value());
}

std::string Region::describe() const {
  std::string out;
  for (const auto& [name, slot] : slots_) {
    if (!out.empty()) out += ", ";
    out += name + " " + std::to_string(slot.reserved) + "/";
    out += slot.capacity == kUnbounded ? "inf" : std::to_string(slot.capacity);
  }
  return out.empty() ? "(empty region)" : out;
}

std::vector<TypeCapacity> Region::capacities() const {
  std::vector<TypeCapacity> out;
  out.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) out.push_back({name, slot.capacity});
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
  for (const auto& [name, slot] : slots_) {
    CYNTHIA_CHECK(slot.reserved >= 0, "negative reservation on ", name);
    CYNTHIA_CHECK(slot.capacity == kUnbounded || slot.reserved <= slot.capacity,
                  "over-subscribed ", name, ": ", slot.reserved, " > ", slot.capacity);
    reserved_sum += slot.reserved;
  }
  CYNTHIA_CHECK(reserved_sum == reserved_total_, "reservation conservation broken: ",
                reserved_sum, " != ", reserved_total_);
  CYNTHIA_CHECK(busy_docker_seconds_ >= 0.0, "negative busy integral");
}

}  // namespace cynthia::region
