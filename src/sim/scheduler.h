// Discrete-event scheduler.
//
// The single-threaded event core that substitutes for OPNET Modeler in the
// paper's testbed: every link transmission, protocol timer, call arrival and
// IDS timeout is an event on one totally-ordered queue. Ties in time are
// broken by insertion order, so runs are deterministic.
//
// Cancellation handles are (slot, generation) pairs into a recycled slot
// vector — no per-event shared_ptr allocation. A slot's generation bumps
// when its event fires or its slot is recycled, so stale handles are
// detected by a single integer compare. The slot also holds the event's
// callback, so the heap orders 24-byte {time, seq, slot} keys and never
// moves a std::function; Cancel releases the callback at once.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "obs/metrics.h"
#include "sim/time.h"

namespace vids::sim {

class Scheduler {
 public:
  using Callback = std::function<void()>;

  /// Handle for cancelling a scheduled event. Default-constructed ids are
  /// inert: cancelling them is a no-op. A handle outlives its event safely;
  /// once the event fires (or the handle is cancelled) the slot's
  /// generation moves on and the handle goes stale.
  class EventId {
   public:
    EventId() = default;

   private:
    friend class Scheduler;
    static constexpr uint32_t kNoSlot = UINT32_MAX;
    EventId(uint32_t slot, uint32_t gen) : slot_(slot), gen_(gen) {}
    uint32_t slot_ = kNoSlot;
    uint32_t gen_ = 0;
  };

  /// Schedules `cb` at absolute time `t` (>= now).
  EventId ScheduleAt(Time t, Callback cb);

  /// Schedules `cb` after `d` (>= 0) from now.
  EventId ScheduleAfter(Duration d, Callback cb);

  /// Cancels a pending event. Returns false if it already ran, was already
  /// cancelled, or the id is inert.
  bool Cancel(EventId& id);

  /// True while the event behind `id` is scheduled and not yet run or
  /// cancelled.
  bool IsPending(const EventId& id) const;

  Time Now() const { return now_; }

  /// Runs events until the queue is empty.
  void Run();

  /// Runs events with time <= `deadline`, then advances the clock to
  /// `deadline` (so subsequent ScheduleAfter calls are relative to it).
  void RunUntil(Time deadline);

  /// Executes the next event, if any. Returns false when the queue is empty.
  bool Step();

  /// Time of the earliest pending event, or Time::Max() when none is
  /// pending. Drains cancelled tombstones off the top of the queue (as
  /// RunUntil does) but never executes an event or moves the clock.
  Time NextEventTime();

  /// Number of pending (non-cancelled) events.
  size_t PendingEvents() const { return queue_.size() - cancelled_count_; }

  /// Total events executed so far; a cheap progress/cost metric for benches.
  uint64_t ExecutedEvents() const { return executed_; }

  /// Registers this scheduler's metrics (sim.events_scheduled,
  /// sim.events_executed, sim.tombstone_drains counters and the
  /// sim.queue_depth gauge) in `registry`. Before attachment the updates go
  /// to the shared null sinks — no branch on the event path either way.
  void AttachMetrics(obs::MetricsRegistry& registry);

 private:
  struct Entry {
    Time time;
    uint64_t seq;
    uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Callback cb;  // empty unless the slot's event is pending
    uint32_t gen = 0;
    bool active = false;
  };

  EventId AcquireSlot();
  void ReleaseSlot(uint32_t slot);

  Time now_;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t cancelled_count_ = 0;
  obs::Counter* scheduled_counter_ = &obs::NullCounter();
  obs::Counter* executed_counter_ = &obs::NullCounter();
  obs::Counter* drain_counter_ = &obs::NullCounter();
  obs::Gauge* depth_gauge_ = &obs::NullGauge();
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

/// A restartable one-shot timer bound to a scheduler — the building block for
/// RFC 3261 transaction timers and the vIDS detection timers T and T1.
class Timer {
 public:
  explicit Timer(Scheduler& scheduler) : scheduler_(scheduler) {}
  ~Timer() { Cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)starts the timer: fires `cb` once after `d`. A running timer is
  /// cancelled first.
  void Start(Duration d, Scheduler::Callback cb);

  /// Stops the timer if running.
  void Cancel();

  bool IsRunning() const { return scheduler_.IsPending(pending_); }

 private:
  Scheduler& scheduler_;
  Scheduler::EventId pending_;
};

}  // namespace vids::sim
