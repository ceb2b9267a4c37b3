#include "efsm/engine.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/log.h"

namespace vids::efsm {

EngineMetrics EngineMetrics::Registered(obs::MetricsRegistry& registry) {
  EngineMetrics m;
  m.transitions = &registry.GetCounter("efsm.transitions");
  m.deviations = &registry.GetCounter("efsm.deviations");
  m.sync_sends = &registry.GetCounter("efsm.sync_sends");
  m.sync_dropped = &registry.GetCounter("efsm.sync_dropped");
  m.nondeterminism = &registry.GetCounter("efsm.nondeterminism");
  m.retired = &registry.GetCounter("efsm.machines_retired");
  m.transition_ns = &registry.GetHistogram("efsm.transition_ns");
  return m;
}

// ------------------------------------------------------------- Context

// A store takes its slot layout on the first write through a Context, so
// a machine that never writes (a REGISTER's RTP machine, an RTCP-BYE
// watcher that saw no BYE) holds no slot array at all.
VariableStore& Context::mutable_local() {
  if (!local_.has_slots()) local_.AddSlots(instance_.def().local_variables());
  return local_;
}

VariableStore& Context::mutable_global() {
  if (!global_.has_slots()) {
    for (const auto& machine : instance_.group().machines()) {
      global_.AddSlots(machine->def().global_variables());
    }
  }
  return global_;
}

void Context::Emit(ArgKey channel, Event event) {
  instance_.EmitFrom(channel, std::move(event));
}
void Context::StartTimer(ArgKey name, sim::Duration after) {
  instance_.StartTimer(name, after);
}
void Context::CancelTimer(ArgKey name) { instance_.CancelTimer(name); }
sim::Time Context::Now() const { return instance_.Now(); }

// ------------------------------------------------------------- Runtime

void Runtime::Pump() {
  if (pumping_) return;
  pumping_ = true;
  size_t head = 0;
  while (head < fifo_.size()) {
    if (head == kMaxSyncEvents) {
      // A cyclic emit chain: cut it here rather than let it resume on the
      // next data event.
      metrics_.sync_dropped->Inc(fifo_.size() - head);
      break;
    }
    // Moved out before delivery: the delivery may emit, and a push may
    // reallocate the FIFO under a reference.
    SyncEvent& next = fifo_[head++];
    MachineInstance* dst = next.dst;
    const Event event = std::move(next.event);
    dst->Deliver(event);
  }
  fifo_.clear();  // keeps capacity for the next emit
  pumping_ = false;
}

// ----------------------------------------------------- MachineInstance

MachineInstance::MachineInstance(const MachineDef& def, ArgKey name,
                                 MachineGroup& group)
    : def_(def), group_(group), state_(def.initial_state()), name_(name) {
  if (state_ == kInvalidState) {
    throw std::invalid_argument(def.name() + ": no initial state defined");
  }
}

MachineInstance::~MachineInstance() { CancelTimers(); }

MachineInstance::DeliverResult MachineInstance::Deliver(const Event& event) {
  if (retired_) return DeliverResult::kRetired;

  // 1-in-kLatencySamplePeriod deliveries measure wall-clock latency into
  // the shared histogram; everything else pays one increment and one
  // predictable branch. Keeps instrumentation inside the ≤ 10% transition
  // overhead budget while still filling p50/p99 within a second of load.
  Runtime& runtime = group_.runtime_;
  EngineMetrics& metrics = runtime.metrics_;
  const bool sampled =
      (++metrics.sample_tick & (EngineMetrics::kLatencySamplePeriod - 1)) == 0;
  const int64_t t0 = sampled ? obs::MonotonicNanos() : 0;

  bool in_alphabet = false;
  const auto candidates = def_.CandidatesFor(state_, event.name, in_alphabet);
  // Predicated transitions compete (and §4.1 wants their predicates
  // mutually disjoint — overlap is reported); an unpredicated transition is
  // the "else" branch, taken only when no predicate is enabled.
  const Transition* enabled = nullptr;
  const Transition* fallback = nullptr;
  size_t enabled_count = 0;
  for (const Transition* candidate : candidates) {
    if (!candidate->predicate) {
      if (fallback == nullptr) fallback = candidate;
      continue;
    }
    Context ctx(event, local_, group_.global(), *this);
    if (candidate->predicate(ctx)) {
      ++enabled_count;
      if (enabled == nullptr) enabled = candidate;
    }
  }
  if (enabled == nullptr) enabled = fallback;

  if (enabled == nullptr) {
    const bool is_timer = event.name.starts_with("timer:");
    if (is_timer) return DeliverResult::kIgnored;
    // Event outside the machine's alphabet is not the machine's business.
    if (!in_alphabet) return DeliverResult::kNotInAlphabet;
    if (def_.report_deviations()) {
      // Interning here is off the clean steady-state path: pattern machines
      // (which see arbitrary event storms) don't report deviations, and
      // spec-machine deviations draw from the bounded protocol alphabet.
      metrics.deviations->Inc();
      obs::Record rec;
      rec.type = obs::RecordType::kDeviation;
      rec.when_ns = runtime.scheduler_.Now().nanos();
      rec.machine = index_in_group_;
      rec.from = static_cast<int16_t>(state_);
      rec.to = static_cast<int16_t>(state_);
      rec.a = ArgKey::Intern(event.name).id();
      group_.recorder_.Record(rec);
      if (runtime.observer_ != nullptr) {
        runtime.observer_->OnDeviation(*this, event);
      }
    }
    return DeliverResult::kDeviation;
  }

  if (enabled_count > 1) {
    metrics.nondeterminism->Inc();
    if (runtime.observer_ != nullptr) {
      runtime.observer_->OnNondeterminism(*this, event, enabled_count);
    }
  }

  if (enabled->action) {
    Context ctx(event, local_, group_.global(), *this);
    enabled->action(ctx);
  }
  const StateId prev = state_;
  state_ = enabled->to;
  metrics.transitions->Inc();
  {
    // Candidates are pointers into the definition's transition vector, so
    // the transition's index falls out of pointer arithmetic — no name
    // lookup on the hot path; ExplainFlight decodes it back later.
    obs::Record rec;
    rec.type = obs::RecordType::kTransition;
    rec.when_ns = runtime.scheduler_.Now().nanos();
    rec.machine = index_in_group_;
    rec.a = static_cast<uint16_t>(enabled - def_.transitions().data());
    rec.from = static_cast<int16_t>(prev);
    rec.to = static_cast<int16_t>(state_);
    group_.recorder_.Record(rec);
  }
  if (sampled) metrics.transition_ns->Record(obs::MonotonicNanos() - t0);
  if (runtime.observer_ != nullptr) {
    runtime.observer_->OnTransition(*this, *enabled, event);
    if (def_.Kind(state_) == StateKind::kAttack) {
      runtime.observer_->OnAttackState(*this, state_, event);
    }
  }
  if (def_.Kind(state_) == StateKind::kFinal) {
    retired_ = true;
    metrics.retired->Inc();
    CancelTimers();
    if (runtime.observer_ != nullptr) runtime.observer_->OnRetired(*this);
  }
  return DeliverResult::kTransitioned;
}

void MachineInstance::ResetForReuse() {
  state_ = def_.initial_state();
  retired_ = false;
  local_.Clear();
  CancelTimers();
}

size_t MachineInstance::MemoryBytes() const {
  return sizeof(*this) + local_.MemoryBytes() +
         timers_.capacity() * sizeof(TimerSlot);
}

void MachineInstance::EmitFrom(ArgKey channel, Event event) {
  group_.Enqueue(*this, channel, std::move(event));
}

void MachineInstance::StartTimer(ArgKey name, sim::Duration after) {
  auto it = std::find_if(timers_.begin(), timers_.end(),
                         [name](const TimerSlot& t) { return t.name == name; });
  if (it == timers_.end()) {
    timers_.push_back(TimerSlot{name, {}});
    it = timers_.end() - 1;
  }
  sim::Scheduler& scheduler = group_.runtime_.scheduler_;
  scheduler.Cancel(it->pending);  // a restart drops the running expiry
  it->pending = scheduler.ScheduleAfter(
      after, [this, name] { group_.OnTimerFired(*this, name); });
}

void MachineInstance::CancelTimer(ArgKey name) {
  for (TimerSlot& timer : timers_) {
    if (timer.name == name) group_.runtime_.scheduler_.Cancel(timer.pending);
  }
}

void MachineInstance::CancelTimers() {
  sim::Scheduler& scheduler = group_.runtime_.scheduler_;
  for (TimerSlot& timer : timers_) scheduler.Cancel(timer.pending);
}

sim::Time MachineInstance::Now() const {
  return group_.runtime_.scheduler_.Now();
}

// -------------------------------------------------------- MachineGroup

MachineInstance& MachineGroup::AddMachine(const MachineDef& def,
                                          std::string_view instance_name) {
  machines_.push_back(std::unique_ptr<MachineInstance>(
      new MachineInstance(def, ArgKey::Intern(instance_name), *this)));
  machines_.back()->index_in_group_ =
      machines_.size() <= obs::Record::kNoMachine
          ? static_cast<uint8_t>(machines_.size() - 1)
          : obs::Record::kNoMachine;
  return *machines_.back();
}

void MachineGroup::ResetForReuse(std::string name) {
  name_ = std::move(name);
  global_.Clear();
  for (auto& machine : machines_) machine->ResetForReuse();
  recorder_.Reset();
}

void MachineGroup::RouteChannel(ArgKey channel, MachineInstance& dst) {
  for (Channel& entry : channels_) {
    if (entry.name == channel) {
      entry.dst = &dst;
      return;
    }
  }
  channels_.push_back(Channel{channel, &dst});
}

MachineInstance* MachineGroup::Find(std::string_view instance_name) {
  for (const auto& machine : machines_) {
    if (machine->name() == instance_name) return machine.get();
  }
  return nullptr;
}

void MachineGroup::DeliverData(MachineInstance& machine, const Event& event) {
  // Paper §4.2: synchronization events have priority over the next data
  // packet event. The FIFO is empty on entry (every DeliverData drains it),
  // so only what this delivery emits needs pumping.
  machine.Deliver(event);
  runtime_.Pump();
}

void MachineGroup::Enqueue(const MachineInstance& from, ArgKey channel,
                           Event event) {
  size_t index = 0;
  while (index < channels_.size() && channels_[index].name != channel) {
    ++index;
  }
  if (index == channels_.size()) {
    VIDS_DEBUG_C("efsm") << name_ << ": sync event '" << event.name
                         << "' emitted on unrouted channel '"
                         << channel.name() << "'";
    return;
  }
  runtime_.metrics_.sync_sends->Inc();
  obs::Record rec;
  rec.type = obs::RecordType::kSyncSend;
  rec.when_ns = runtime_.scheduler_.Now().nanos();
  rec.machine = from.index_in_group_;
  rec.a = ArgKey::Intern(event.name).id();
  rec.aux = index + 1;
  recorder_.Record(rec);
  runtime_.fifo_.emplace_back(channels_[index].dst, std::move(event));
}

void MachineGroup::OnTimerFired(MachineInstance& machine, ArgKey timer_name) {
  Event event;
  event.name = TimerEventName(timer_name.name());
  DeliverData(machine, event);
}

bool MachineGroup::AllRetired() const {
  for (const auto& machine : machines_) {
    if (!machine->retired()) return false;
  }
  return !machines_.empty();
}

size_t MachineGroup::MemoryBytes() const {
  size_t bytes = sizeof(*this) + name_.capacity() + global_.MemoryBytes() +
                 machines_.capacity() * sizeof(machines_[0]) +
                 channels_.capacity() * sizeof(Channel);
  for (const auto& machine : machines_) bytes += machine->MemoryBytes();
  return bytes;
}

namespace {

std::string FormatSimSeconds(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", static_cast<double>(ns) * 1e-9);
  return buf;
}

}  // namespace

std::vector<std::string> MachineGroup::ExplainFlight(
    size_t max, const FactDecoder& fact_decoder) const {
  std::vector<std::string> lines;
  const size_t held = recorder_.size();
  const size_t skip = held > max ? held - max : 0;
  lines.reserve(held - skip);
  size_t index = 0;
  recorder_.ForEach([&](const obs::Record& rec) {
    if (index++ < skip) return;
    std::string line = "t=";
    line += FormatSimSeconds(rec.when_ns);
    line += "s ";
    const MachineInstance* machine =
        rec.machine < machines_.size() ? machines_[rec.machine].get() : nullptr;
    switch (rec.type) {
      case obs::RecordType::kTransition: {
        if (machine == nullptr ||
            rec.a >= machine->def().transitions().size()) {
          line += "transition <corrupt record>";
          break;
        }
        const MachineDef& def = machine->def();
        const Transition& t = def.transitions()[rec.a];
        line += machine->name();
        line += ": '";
        line += t.event_name;
        line += "' ";
        line += def.StateName(rec.from);
        line += " -> ";
        line += def.StateName(rec.to);
        if (!t.label.empty()) {
          line += " [";
          line += t.label;
          line += ']';
        }
        break;
      }
      case obs::RecordType::kSyncSend: {
        line += machine != nullptr ? machine->name() : "?";
        line += ": sync-send '";
        line += ArgKey::NameOfId(rec.a);
        line += '\'';
        if (rec.aux >= 1 && rec.aux <= channels_.size()) {
          line += " on ";
          line += channels_[rec.aux - 1].name.name();
        }
        break;
      }
      case obs::RecordType::kDeviation: {
        line += machine != nullptr ? machine->name() : "?";
        line += ": deviation, event '";
        line += ArgKey::NameOfId(rec.a);
        line += "' in state ";
        line += machine != nullptr ? machine->def().StateName(rec.from)
                                   : std::string_view("?");
        break;
      }
      case obs::RecordType::kFactAssert:
      case obs::RecordType::kFactRetract: {
        std::string decoded;
        if (fact_decoder) decoded = fact_decoder(rec);
        if (!decoded.empty()) {
          line += decoded;
        } else {
          line += rec.type == obs::RecordType::kFactAssert ? "fact-assert"
                                                           : "fact-retract";
          char buf[24];
          std::snprintf(buf, sizeof(buf), " aux=0x%llx",
                        static_cast<unsigned long long>(rec.aux));
          line += buf;
        }
        break;
      }
      case obs::RecordType::kAlert: {
        line += "ALERT '";
        line += ArgKey::NameOfId(rec.a);
        line += "' raised";
        if (machine != nullptr) {
          line += " by ";
          line += machine->name();
        }
        break;
      }
      case obs::RecordType::kSpan: {
        // Pipeline spans live in the sharded engine's per-shard recorders,
        // not in call groups — but render them anyway so a mixed ring stays
        // readable: shard, end-to-end ns, and the two stage times in µs.
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "span shard=%d e2e=%lluns queue=%uus inspect=%dus",
                      static_cast<int>(rec.to),
                      static_cast<unsigned long long>(rec.aux),
                      static_cast<unsigned>(rec.a), static_cast<int>(rec.from));
        line += buf;
        break;
      }
      case obs::RecordType::kNone:
        line += "<empty>";
        break;
    }
    lines.push_back(std::move(line));
  });
  return lines;
}

}  // namespace vids::efsm
