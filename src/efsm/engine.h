// EFSM runtime: instances, communicating groups, sync channels, timers.
//
// One MachineGroup exists per monitored call (paper §5: "only one instance
// of a protocol state machine is maintained ... per call"). A group holds
// only its call's configuration: name, flight ring, global variable store,
// machines and channel routing. What every group of one deployment shares
// lives once in a Runtime: the scheduler, the observer, the engine metrics
// and the δ synchronization FIFO (Fig. 2(b)). Delivery follows the paper's
// priority rule: synchronization events are processed before any further
// data event. DeliverData drains the FIFO before it returns, so the FIFO
// is empty whenever no data event is being delivered, and no group keeps a
// queue at rest.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "efsm/machine.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"

namespace vids::efsm {

class MachineInstance;
class MachineGroup;

/// Preallocated metric slots for the engine, held once by the Runtime that
/// every machine group of one deployment shares (per-call metrics would
/// explode the registry; the interesting cardinality lives in the per-call
/// flight recorders instead). Defaults are the null sinks, so an
/// unattached runtime pays one pointer write per update and never
/// branches. The per-transition latency histogram is sampled
/// 1-in-kLatencySamplePeriod so its two wall-clock reads amortize to well
/// under a nanosecond per delivery.
struct EngineMetrics {
  static constexpr uint32_t kLatencySamplePeriod = 64;

  obs::Counter* transitions = &obs::NullCounter();
  obs::Counter* deviations = &obs::NullCounter();  // out-of-spec hits
  obs::Counter* sync_sends = &obs::NullCounter();  // FIFO channel emits
  // Sync events left in the FIFO when a pump hit Runtime::kMaxSyncEvents.
  obs::Counter* sync_dropped = &obs::NullCounter();
  obs::Counter* nondeterminism = &obs::NullCounter();
  obs::Counter* retired = &obs::NullCounter();
  obs::Histogram* transition_ns = &obs::NullHistogram();
  uint32_t sample_tick = 0;  // the runtime's one sampling phase

  /// Registers the slots under "efsm.*" in `registry`.
  static EngineMetrics Registered(obs::MetricsRegistry& registry);
};

/// Receives the analysis-relevant happenings. The vIDS Analysis Engine
/// implements this; tests use it to assert machine behavior.
class Observer {
 public:
  virtual ~Observer() = default;
  /// A transition fired.
  virtual void OnTransition(const MachineInstance&, const Transition&,
                            const Event&) {}
  /// A transition entered a state annotated kAttack.
  virtual void OnAttackState(const MachineInstance&, StateId,
                             const Event&) {}
  /// An in-alphabet event arrived with no enabled transition — a deviation
  /// from the protocol specification (only for machines that report them).
  virtual void OnDeviation(const MachineInstance&, const Event&) {}
  /// More than one predicate was enabled (`enabled_count` of them): the
  /// definition violates the mutual-disjointness condition of §4.1. First
  /// candidate wins.
  virtual void OnNondeterminism(const MachineInstance&, const Event&,
                                size_t /*enabled_count*/) {}
  /// The machine reached a kFinal state and retired.
  virtual void OnRetired(const MachineInstance&) {}
};

/// What every machine group of one deployment shares: the scheduler its
/// timers run on, the observer, the engine metrics and the δ channel FIFO.
/// One per deployment — a fact base owns one; a test or an example that
/// builds groups by hand makes its own. It must outlive its groups.
///
/// The FIFO holds the sync events emitted while a data event is delivered,
/// in global emission order, each with its destination machine. The pump
/// that DeliverData runs drains it before returning; it delivers at most
/// kMaxSyncEvents per data event, so a cyclic emit chain cannot livelock
/// the IDS, and drops what is left at that cap (efsm.sync_dropped).
class Runtime {
 public:
  static constexpr size_t kMaxSyncEvents = 1000;

  /// `observer` may be null; it must outlive the runtime otherwise. The
  /// slots `metrics` points at must outlive it too (in practice they live
  /// in a MetricsRegistry owned by the deployment).
  explicit Runtime(sim::Scheduler& scheduler, Observer* observer = nullptr,
                   const EngineMetrics& metrics = {})
      : scheduler_(scheduler), observer_(observer), metrics_(metrics) {}
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

 private:
  friend class MachineInstance;
  friend class MachineGroup;

  struct SyncEvent {
    MachineInstance* dst;
    Event event;
  };

  /// Delivers the FIFO to quiescence or to the cap. A no-op while a pump
  /// is running: an event emitted during a sync delivery joins the FIFO
  /// and the running pump reaches it in order.
  void Pump();

  sim::Scheduler& scheduler_;
  Observer* observer_;
  EngineMetrics metrics_;
  std::vector<SyncEvent> fifo_;  // capacity kept across pumps
  bool pumping_ = false;
};

class MachineInstance {
 public:
  enum class DeliverResult {
    kTransitioned,
    kNotInAlphabet,  // event name never appears in the definition: ignored
    kIgnored,        // timer event with no enabled transition: harmless
    kDeviation,      // data/sync event with no enabled transition
    kRetired,        // machine already reached a final state
  };

  ~MachineInstance();
  MachineInstance(const MachineInstance&) = delete;
  MachineInstance& operator=(const MachineInstance&) = delete;

  DeliverResult Deliver(const Event& event);

  const MachineDef& def() const { return def_; }
  std::string_view name() const { return name_.name(); }
  StateId state() const { return state_; }
  std::string_view StateName() const { return def_.StateName(state_); }
  bool retired() const { return retired_; }
  VariableStore& local() { return local_; }
  const VariableStore& local() const { return local_; }
  MachineGroup& group() { return group_; }
  const MachineGroup& group() const { return group_; }
  /// Position within the owning group — the flight recorder's machine id.
  uint8_t index_in_group() const { return index_in_group_; }

  /// Approximate per-instance footprint (§7.3 memory accounting).
  size_t MemoryBytes() const;

 private:
  friend class MachineGroup;
  friend class Context;

  /// Returns the instance to its initial configuration: initial state,
  /// empty variable valuation, no pending timers. Variable-store capacity
  /// is retained — that is the point of recycling.
  void ResetForReuse();
  MachineInstance(const MachineDef& def, ArgKey name, MachineGroup& group);

  // Context's action-side hooks.
  void EmitFrom(ArgKey channel, Event event);
  void StartTimer(ArgKey name, sim::Duration after);
  void CancelTimer(ArgKey name);
  /// Cancels every pending timer; the slots stay for the next start.
  void CancelTimers();
  sim::Time Now() const;

  // One slot per timer name this machine has started (a definition uses
  // one or two), so lookup is a short integer scan. The expiry callback
  // captures only (this, name): it fits std::function's inline buffer, so
  // re-arming a timer allocates nothing.
  struct TimerSlot {
    ArgKey name;
    sim::Scheduler::EventId pending;
  };

  const MachineDef& def_;
  MachineGroup& group_;
  StateId state_;
  ArgKey name_;  // interned: instance names repeat across every group
  bool retired_ = false;
  uint8_t index_in_group_ = obs::Record::kNoMachine;  // ring-record identity
  VariableStore local_;
  std::vector<TimerSlot> timers_;
};

class MachineGroup {
 public:
  /// `runtime` is shared with every other group of the deployment and must
  /// outlive this one.
  MachineGroup(std::string name, Runtime& runtime)
      : name_(std::move(name)), runtime_(runtime) {}

  /// Instantiates `def` into this group under `instance_name`. The
  /// definition is shared, not copied — it must outlive the group (that is
  /// the paper's cost model: per-call state is a configuration, the machine
  /// itself exists once). The rvalue overload is deleted so a temporary
  /// definition cannot dangle.
  MachineInstance& AddMachine(const MachineDef& def,
                              std::string_view instance_name);
  MachineInstance& AddMachine(MachineDef&& def,
                              std::string_view instance_name) = delete;
  /// Sizes the machine table for a group built to a known layout, so the
  /// AddMachine calls that follow allocate it once at its exact size.
  void ReserveMachines(size_t count) { machines_.reserve(count); }

  /// Routes the named channel (e.g. "SIP->RTP") to a destination machine.
  /// A channel's flight-record id is its routing position + 1.
  void RouteChannel(ArgKey channel, MachineInstance& dst);
  void RouteChannel(std::string_view channel, MachineInstance& dst) {
    RouteChannel(ArgKey::Intern(channel), dst);
  }

  /// Resets the group for reuse under a new call name: every machine back
  /// to its initial configuration, variable valuations emptied, pending
  /// timers cancelled, flight ring forgotten. Machine set and channel
  /// routing are kept, so only a pool of identically-shaped groups may
  /// recycle through this (the fact base's call groups are).
  /// Buffer capacities survive — recycling a group skips the allocation
  /// storm of building one.
  void ResetForReuse(std::string name);

  /// Delivers a data event to one machine, then pumps the runtime's sync
  /// FIFO (sync has priority over the next data event). The FIFO is empty
  /// when this returns.
  void DeliverData(MachineInstance& machine, const Event& event);

  /// Name scan over the machines — for tests and tools. The packet path
  /// addresses machines by their fixed position instead (machine()).
  MachineInstance* Find(std::string_view instance_name);
  /// The machine at `index` in AddMachine order.
  MachineInstance& machine(size_t index) { return *machines_[index]; }
  const MachineInstance& machine(size_t index) const {
    return *machines_[index];
  }

  const std::string& name() const { return name_; }
  VariableStore& global() { return global_; }
  const std::vector<std::unique_ptr<MachineInstance>>& machines() const {
    return machines_;
  }
  /// True when every machine reached a final state — the call completed and
  /// the fact base may delete this group (paper §5).
  bool AllRetired() const;
  size_t MemoryBytes() const;

  /// The per-call flight recorder: the last FlightRecorder::kCapacity
  /// engine happenings of this call, in compact binary form. The analysis
  /// engine appends its own fact-base and alert records here too, so an
  /// alert's provenance is the tail of exactly one ring. Mutable through a
  /// const group: recording is an observability side effect, not a change
  /// of the group's logical state (observers hold const references).
  obs::FlightRecorder& flight_recorder() const { return recorder_; }

  /// Decodes records the group itself cannot interpret (fact-base records
  /// with producer-tagged `aux` payloads). Returns empty to fall back to a
  /// generic rendering.
  using FactDecoder = std::function<std::string(const obs::Record&)>;

  /// Renders the newest `max` flight-recorder records, oldest first, one
  /// human-readable line each. This is the alert-provenance view; it
  /// allocates freely and must stay off the packet hot path.
  std::vector<std::string> ExplainFlight(
      size_t max = obs::FlightRecorder::kCapacity,
      const FactDecoder& fact_decoder = {}) const;

 private:
  friend class MachineInstance;
  void Enqueue(const MachineInstance& from, ArgKey channel, Event event);
  void OnTimerFired(MachineInstance& machine, ArgKey timer_name);

  struct Channel {
    ArgKey name;
    MachineInstance* dst;
  };

  std::string name_;
  Runtime& runtime_;
  mutable obs::FlightRecorder recorder_;
  VariableStore global_;
  std::vector<std::unique_ptr<MachineInstance>> machines_;
  std::vector<Channel> channels_;  // id = position + 1
};

}  // namespace vids::efsm
