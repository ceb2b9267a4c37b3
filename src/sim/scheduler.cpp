#include "sim/scheduler.h"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace vids::sim {

Scheduler::EventId Scheduler::AcquireSlot() {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].active = true;
  return EventId(slot, slots_[slot].gen);
}

void Scheduler::ReleaseSlot(uint32_t slot) {
  // The generation bump invalidates every handle still pointing here before
  // the slot is reused.
  ++slots_[slot].gen;
  slots_[slot].active = false;
  free_slots_.push_back(slot);
}

Scheduler::EventId Scheduler::ScheduleAt(Time t, Callback cb) {
  if (t < now_) throw std::invalid_argument("ScheduleAt: time in the past");
  const EventId id = AcquireSlot();
  slots_[id.slot_].cb = std::move(cb);
  queue_.push(Entry{t, next_seq_++, id.slot_});
  scheduled_counter_->Inc();
  depth_gauge_->Set(static_cast<int64_t>(PendingEvents()));
  return id;
}

Scheduler::EventId Scheduler::ScheduleAfter(Duration d, Callback cb) {
  if (d < Duration{}) throw std::invalid_argument("ScheduleAfter: negative");
  return ScheduleAt(now_ + d, std::move(cb));
}

bool Scheduler::Cancel(EventId& id) {
  if (!IsPending(id)) {
    id = EventId();
    return false;
  }
  // The queue entry stays behind as a tombstone and frees the slot when it
  // reaches the top; the callback (and whatever it captured) goes now.
  slots_[id.slot_].active = false;
  slots_[id.slot_].cb = nullptr;
  ++cancelled_count_;
  id = EventId();
  return true;
}

bool Scheduler::IsPending(const EventId& id) const {
  return id.slot_ != EventId::kNoSlot && id.slot_ < slots_.size() &&
         slots_[id.slot_].gen == id.gen_ && slots_[id.slot_].active;
}

Time Scheduler::NextEventTime() {
  while (!queue_.empty()) {
    const Entry& top = queue_.top();
    if (slots_[top.slot].active) return top.time;
    assert(cancelled_count_ > 0);
    --cancelled_count_;
    const uint32_t slot = top.slot;
    queue_.pop();
    ReleaseSlot(slot);
    drain_counter_->Inc();
  }
  return Time::Max();
}

bool Scheduler::Step() {
  NextEventTime();  // the top, if any, is now a live event
  if (queue_.empty()) return false;
  const Entry entry = queue_.top();
  queue_.pop();
  now_ = entry.time;
  // Move the callback out before running it: it may schedule, and a new
  // slot can reallocate the slot table under it.
  Callback cb = std::move(slots_[entry.slot].cb);
  slots_[entry.slot].cb = nullptr;
  ReleaseSlot(entry.slot);  // fired: stale handles must not cancel it
  ++executed_;
  executed_counter_->Inc();
  depth_gauge_->Set(static_cast<int64_t>(PendingEvents()));
  cb();
  return true;
}

void Scheduler::Run() {
  while (Step()) {
  }
}

void Scheduler::RunUntil(Time deadline) {
  while (NextEventTime() <= deadline && Step()) {
  }
  if (now_ < deadline) now_ = deadline;
}

void Scheduler::AttachMetrics(obs::MetricsRegistry& registry) {
  scheduled_counter_ = &registry.GetCounter("sim.events_scheduled");
  executed_counter_ = &registry.GetCounter("sim.events_executed");
  drain_counter_ = &registry.GetCounter("sim.tombstone_drains");
  depth_gauge_ = &registry.GetGauge("sim.queue_depth");
}

void Timer::Start(Duration d, Scheduler::Callback cb) {
  Cancel();
  pending_ = scheduler_.ScheduleAfter(d, std::move(cb));
}

void Timer::Cancel() { scheduler_.Cancel(pending_); }

}  // namespace vids::sim
