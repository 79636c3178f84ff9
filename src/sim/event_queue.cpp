#include "sim/event_queue.hpp"

#include <stdexcept>

#include "util/check.hpp"

namespace cynthia::sim {

namespace {

std::uint32_t slot_of(EventId id) { return static_cast<std::uint32_t>(id); }
std::uint32_t generation_of(EventId id) { return static_cast<std::uint32_t>(id >> 32); }

}  // namespace

EventId EventQueue::schedule(double time, std::function<void()> action) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(generation_.size());
    generation_.push_back(1);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const EventId id = static_cast<EventId>(generation_[slot]) << 32 | slot;
  heap_.push({time, next_seq_++, id, std::move(action)});
  ++pending_;
  return id;
}

bool EventQueue::is_pending(EventId id) const {
  const std::uint32_t slot = slot_of(id);
  const std::uint32_t gen = generation_of(id);
  return gen != 0 && slot < generation_.size() && generation_[slot] == gen;
}

void EventQueue::retire(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (++generation_[slot] != 0) free_slots_.push_back(slot);
  --pending_;
}

bool EventQueue::cancel(EventId id) {
  // Entries stay in the heap; drop_cancelled() skips any whose id is no
  // longer pending. Cancelling a fired or unknown id is a harmless no-op.
  if (!is_pending(id)) return false;
  retire(id);
  return true;
}

void EventQueue::clear() {
  for (; !heap_.empty(); heap_.pop()) {
    if (is_pending(heap_.top().id)) retire(heap_.top().id);
  }
  last_pop_time_ = -std::numeric_limits<double>::infinity();
  last_pop_seq_ = 0;
}

void EventQueue::drop_cancelled() {
  while (!heap_.empty() && !is_pending(heap_.top().id)) heap_.pop();
}

double EventQueue::next_time() const {
  auto& self = const_cast<EventQueue&>(*this);
  self.drop_cancelled();
  if (self.heap_.empty()) throw std::logic_error("EventQueue: next_time on empty queue");
  return self.heap_.top().time;
}

EventQueue::Fired EventQueue::pop() {
  drop_cancelled();
  if (heap_.empty()) throw std::logic_error("EventQueue: pop on empty queue");
  // priority_queue::top() is const; the entry is moved out right before pop.
  Entry top = std::move(const_cast<Entry&>(heap_.top()));
  heap_.pop();
  retire(top.id);
  // Pop order is the determinism contract: time never decreases, and among
  // equal timestamps events fire in scheduling (seq) order.
  CYNTHIA_CHECK(top.time >= last_pop_time_, "event time ran backwards: ", top.time, " after ",
                last_pop_time_);
  CYNTHIA_CHECK(top.time > last_pop_time_ || top.seq > last_pop_seq_,
                "same-timestamp events fired out of scheduling order at t=", top.time);
  last_pop_time_ = top.time;
  last_pop_seq_ = top.seq;
  return {top.time, top.id, std::move(top.action)};
}

}  // namespace cynthia::sim
