#include "vids/fact_base.h"

#include <algorithm>
#include <stdexcept>

#include "vids/classifier.h"

namespace vids::ids {

namespace {

// keyed_bin_ keys: the endpoint/IP payload occupies bits 0..47, the family
// tag sits above so media and DRDoS keys can share one map.
constexpr uint64_t kMediaTag = uint64_t{1} << 56;
constexpr uint64_t kDrdosTag = uint64_t{2} << 56;

uint64_t MediaKey(const net::Endpoint& endpoint) {
  return kMediaTag | endpoint.PackedKey();
}

uint64_t DrdosKey(net::IpAddress victim) {
  return kDrdosTag | victim.bits();
}

// Adds `def` to `group` and checks it lands at the position the packet
// path addresses it by (call_machine / media_machine constants).
efsm::MachineInstance& AddAt(efsm::MachineGroup& group, size_t index,
                             const efsm::MachineDef& def,
                             std::string_view name) {
  efsm::MachineInstance& machine = group.AddMachine(def, name);
  if (group.machines().size() != index + 1) {
    throw std::logic_error("fact base: machine '" + std::string(name) +
                           "' is not at its layout position");
  }
  return machine;
}

}  // namespace

CallStateFactBase::CallStateFactBase(sim::Scheduler& scheduler,
                                     const DetectionConfig& config,
                                     efsm::Observer* observer,
                                     obs::MetricsRegistry* registry)
    : scheduler_(scheduler),
      config_(config),
      runtime_(scheduler, observer,
               registry != nullptr ? efsm::EngineMetrics::Registered(*registry)
                                   : efsm::EngineMetrics{}),
      sip_spec_(BuildSipSpecMachine(config)),
      rtp_spec_(BuildRtpSpecMachine(config)),
      scenarios_(config) {
  if (registry != nullptr) {
    m_calls_created_ = &registry->GetCounter("vids.calls_created");
    m_calls_deleted_ = &registry->GetCounter("vids.calls_deleted");
    m_sweeps_ = &registry->GetCounter("vids.sweeps");
    m_sweep_ns_ = &registry->GetHistogram("vids.sweep_ns");
    m_active_calls_ = &registry->GetGauge("vids.active_calls");
    m_keyed_groups_ = &registry->GetGauge("vids.keyed_groups");
    m_media_index_ = &registry->GetGauge("vids.media_index_size");
    m_tombstones_ = &registry->GetGauge("vids.tombstones");
  }
}

std::string CallStateFactBase::DecodeFactRecord(const obs::Record& record) {
  if (record.type != obs::RecordType::kFactAssert &&
      record.type != obs::RecordType::kFactRetract) {
    return {};
  }
  const uint64_t tag = record.aux & FactAux::kTagMask;
  const net::Endpoint endpoint{
      net::IpAddress(static_cast<uint32_t>((record.aux >> 16) & 0xFFFFFFFF)),
      static_cast<uint16_t>(record.aux & 0xFFFF)};
  switch (tag) {
    case FactAux::kCallCreated:
      return "fact: call state created";
    case FactAux::kMediaIndexed:
      return "fact: media endpoint " + endpoint.ToString() +
             " indexed to this call";
    case FactAux::kMediaRetracted:
      return "fact: media endpoint " + endpoint.ToString() +
             " re-pointed away from this call";
    default:
      return {};
  }
}

void CallStateFactBase::UpdateGauges() {
  m_active_calls_->Set(static_cast<int64_t>(calls_.size()));
  m_keyed_groups_->Set(static_cast<int64_t>(keyed_count()));
  m_media_index_->Set(static_cast<int64_t>(media_index_.size()));
  m_tombstones_->Set(static_cast<int64_t>(tombstones_.size()));
}

efsm::MachineGroup& CallStateFactBase::GetOrCreateCall(
    const std::string& call_id, bool& created) {
  auto it = calls_.find(call_id);
  if (it != calls_.end()) {
    created = false;
    it->second.last_event = scheduler_.Now();
    call_age_.Touch(*it);
    return *it->second.group;
  }
  created = true;
  ++calls_created_;
  m_calls_created_->Inc();
  std::unique_ptr<efsm::MachineGroup> group;
  if (!group_pool_.empty()) {
    // Recycled group: already carries the call-group machine set and
    // channel routing (parked in initial configuration by Sweep), so only
    // the name needs to change hands.
    group = std::move(group_pool_.back());
    group_pool_.pop_back();
    group->ResetForReuse(call_id);
  } else {
    group = std::make_unique<efsm::MachineGroup>(call_id, runtime_);
    group->ReserveMachines(call_machine::kHijack + 1);
    AddAt(*group, call_machine::kSip, sip_spec_, kSipMachineName);
    auto& rtp = AddAt(*group, call_machine::kRtp, rtp_spec_, kRtpMachineName);
    AddAt(*group, call_machine::kCancelDos, scenarios_.cancel_dos,
          "cancel-dos");
    AddAt(*group, call_machine::kHijack, scenarios_.hijack, "hijack");
    if (config_.enable_cross_protocol) {
      group->RouteChannel(kSipToRtpChannel, rtp);
    }
  }
  {
    obs::Record rec;
    rec.type = obs::RecordType::kFactAssert;
    rec.when_ns = scheduler_.Now().nanos();
    rec.aux = FactAux::kCallCreated;
    group->flight_recorder().Record(rec);
  }
  CallNode& node = *calls_.try_emplace(call_id).first;
  node.second.group = std::move(group);
  node.second.last_event = scheduler_.Now();
  call_age_.Insert(node);
  m_active_calls_->Set(static_cast<int64_t>(calls_.size()));
  ArmSweepTimer();
  return *node.second.group;
}

efsm::MachineGroup* CallStateFactBase::FindCall(std::string_view call_id) {
  const auto it = calls_.find(call_id);
  if (it == calls_.end()) return nullptr;
  return it->second.group.get();
}

template <typename Map>
efsm::MachineGroup* CallStateFactBase::TouchKeyed(
    typename Map::value_type& node, AgeOf<Map>& ages, bool inserted) {
  node.second.last_event = scheduler_.Now();
  if (!inserted) {
    ages.Touch(node);
    return node.second.group.get();
  }
  // New entry: the caller builds its group right after this returns.
  ages.Insert(node);
  m_keyed_groups_->Set(static_cast<int64_t>(keyed_count()));
  ArmSweepTimer();
  return nullptr;
}

void CallStateFactBase::BuildMediaGroup(efsm::MachineGroup& group) {
  group.ReserveMachines(media_machine::kRtcpBye + 1);
  AddAt(group, media_machine::kMediaSpam, scenarios_.media_spam,
        "media-spam");
  AddAt(group, media_machine::kRtpFlood, scenarios_.rtp_flood, "rtp-flood");
  AddAt(group, media_machine::kRtcpBye, scenarios_.rtcp_bye, "rtcp-bye");
}

efsm::MachineGroup& CallStateFactBase::GetOrCreateInviteFlood(
    std::string_view aor) {
  // Runs per INVITE request: compose the map key in the reused scratch
  // string, so the hit path never allocates.
  flood_key_scratch_.assign("flood|");
  flood_key_scratch_.append(aor);
  auto [it, inserted] = keyed_str_.try_emplace(flood_key_scratch_);
  if (auto* group = TouchKeyed<KeyedStrMap>(*it, keyed_str_age_, inserted)) {
    return *group;
  }
  auto group = std::make_unique<efsm::MachineGroup>(flood_key_scratch_,
                                                    runtime_);
  AddAt(*group, kWindowMachine, scenarios_.invite_flood, "invite-flood");
  it->second.group = std::move(group);
  return *it->second.group;
}

efsm::MachineGroup& CallStateFactBase::GetOrCreateMediaGroup(
    const net::Endpoint& endpoint) {
  auto [it, inserted] = keyed_bin_.try_emplace(MediaKey(endpoint));
  if (auto* group = TouchKeyed<KeyedBinMap>(*it, keyed_bin_age_, inserted)) {
    return *group;
  }
  auto group = std::make_unique<efsm::MachineGroup>(
      "media|" + endpoint.ToString(), runtime_);
  BuildMediaGroup(*group);
  it->second.group = std::move(group);
  return *it->second.group;
}

efsm::MachineGroup& CallStateFactBase::GetOrCreateDrdosGroup(
    net::IpAddress victim) {
  auto [it, inserted] = keyed_bin_.try_emplace(DrdosKey(victim));
  if (auto* group = TouchKeyed<KeyedBinMap>(*it, keyed_bin_age_, inserted)) {
    return *group;
  }
  auto group = std::make_unique<efsm::MachineGroup>(
      "drdos|" + victim.ToString(), runtime_);
  AddAt(*group, kWindowMachine, scenarios_.drdos, "drdos");
  it->second.group = std::move(group);
  return *it->second.group;
}

bool CallStateFactBase::IsTombstoned(std::string_view call_id) const {
  return tombstones_.find(call_id) != tombstones_.end();
}

void CallStateFactBase::IndexMedia(const net::Endpoint& endpoint,
                                   const std::string& call_id) {
  const uint64_t key = endpoint.PackedKey();
  const auto call_it = calls_.find(call_id);
  efsm::MachineGroup* group =
      call_it != calls_.end() ? call_it->second.group.get() : nullptr;
  auto media_it = media_index_.find(key);
  if (media_it == media_index_.end()) {
    // Never create an index entry for a call that does not exist: the
    // reverse index that cleans media_index_ on deletion lives in the call
    // entry, so an ownerless entry would leak forever.
    if (group == nullptr) return;
    media_it = media_index_.try_emplace(key).first;
    ArmSweepTimer();
  }
  MediaEntry& media = media_it->second;
  if (media.call_id == call_id && media.group == group) return;  // no change
  if (media.group != nullptr && media.group != group) {
    // Re-negotiated to another call: the old call's flight log shows the
    // endpoint leaving (the media-hijack story reads directly off this).
    obs::Record rec;
    rec.type = obs::RecordType::kFactRetract;
    rec.when_ns = scheduler_.Now().nanos();
    rec.aux = FactAux::kMediaRetracted | key;
    media.group->flight_recorder().Record(rec);
  }
  media.call_id = call_id;
  media.group = group;
  if (call_it != calls_.end()) {
    auto& keys = call_it->second.media_keys;
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
  }
  if (group != nullptr) {
    obs::Record rec;
    rec.type = obs::RecordType::kFactAssert;
    rec.when_ns = scheduler_.Now().nanos();
    rec.aux = FactAux::kMediaIndexed | key;
    group->flight_recorder().Record(rec);
  }
  m_media_index_->Set(static_cast<int64_t>(media_index_.size()));
}

void CallStateFactBase::RetractMedia(const net::Endpoint& endpoint) {
  const uint64_t key = endpoint.PackedKey();
  const auto it = media_index_.find(key);
  if (it == media_index_.end()) return;
  if (it->second.group != nullptr) {
    obs::Record rec;
    rec.type = obs::RecordType::kFactRetract;
    rec.when_ns = scheduler_.Now().nanos();
    rec.aux = FactAux::kMediaRetracted | key;
    it->second.group->flight_recorder().Record(rec);
  }
  // The owning call's reverse media_keys entry stays; Sweep's ownership
  // check tolerates keys that no longer resolve to this call.
  media_index_.erase(it);
  m_media_index_->Set(static_cast<int64_t>(media_index_.size()));
}

void CallStateFactBase::DropMediaKeyedGroup(const net::Endpoint& endpoint) {
  const auto it = keyed_bin_.find(MediaKey(endpoint));
  if (it == keyed_bin_.end()) return;
  if (sweep_listener_) {
    // Same contract as a sweep reclaim: the analysis engine evicts the
    // group's alert-dedup signatures together with the state.
    const std::vector<std::string> reclaimed{it->second.group->name()};
    sweep_listener_(scheduler_.Now(), reclaimed);
  }
  keyed_bin_age_.Unlink(*it);
  keyed_bin_.erase(it);
  m_keyed_groups_->Set(static_cast<int64_t>(keyed_count()));
}

std::optional<std::string> CallStateFactBase::CallByMedia(
    const net::Endpoint& endpoint) const {
  const auto it = media_index_.find(endpoint.PackedKey());
  if (it == media_index_.end()) return std::nullopt;
  return it->second.call_id;
}

efsm::MachineGroup* CallStateFactBase::FindGroupByMedia(
    const net::Endpoint& endpoint) const {
  const auto it = media_index_.find(endpoint.PackedKey());
  if (it == media_index_.end()) return nullptr;
  return it->second.group;
}

bool CallStateFactBase::CallComplete(const efsm::MachineGroup& group) {
  const efsm::MachineInstance& rtp = group.machine(call_machine::kRtp);
  return group.machine(call_machine::kSip).retired() &&
         (rtp.retired() || rtp.state() == rtp.def().initial_state());
}

void CallStateFactBase::NoteRetired(const efsm::MachineGroup& group) {
  const auto it = calls_.find(group.name());
  if (it == calls_.end() || it->second.group.get() != &group ||
      it->second.retire_candidate) {
    return;
  }
  it->second.retire_candidate = true;
  retire_candidates_.push_back(&*it);
}

sim::Time CallStateFactBase::NextSweepInstant(sim::Time now) const {
  const int64_t interval = config_.sweep_interval.nanos();
  return sim::Time::FromNanos((now.nanos() / interval + 1) * interval);
}

void CallStateFactBase::ArmSweepTimer() {
  if (scheduler_.IsPending(sweep_event_)) return;
  const sim::Time at = NextSweepInstant(scheduler_.Now());
  sweep_event_ = scheduler_.ScheduleAt(at, [this] {
    Sweep(scheduler_.Now());
    // The fired event is no longer pending, so this re-arms. An empty fact
    // base schedules nothing; the next state creation re-arms the chain.
    if (HasTrackedState()) ArmSweepTimer();
  });
}

void CallStateFactBase::Sweep(sim::Time now) {
  if (now < next_sweep_) return;
  next_sweep_ = NextSweepInstant(now);
  m_sweeps_->Inc();
  const int64_t sweep_start = obs::MonotonicNanos();
  // Names of the groups reclaimed by this sweep, for the sweep listener
  // (the analysis engine evicts their alert-dedup signatures).
  std::vector<std::string> reclaimed;

  // Completion: only a retirement can complete a call, so only the calls
  // that saw one since the last sweep are checked. Nothing is erased
  // between NoteRetired and here except by this loop, so every listed node
  // is live.
  for (CallNode* node : retire_candidates_) {
    node->second.retire_candidate = false;
    if (CallComplete(*node->second.group)) {
      ReclaimCall(*node, now, reclaimed);
    }
  }
  retire_candidates_.clear();
  // Idleness: the age lists are oldest-first, so pop until the front is
  // fresh.
  while (CallNode* oldest = call_age_.oldest()) {
    if (now - oldest->second.last_event <= config_.call_idle_timeout) break;
    ReclaimCall(*oldest, now, reclaimed);
  }
  ReclaimIdleKeyed(keyed_str_, keyed_str_age_, now, reclaimed);
  ReclaimIdleKeyed(keyed_bin_, keyed_bin_age_, now, reclaimed);
  while (TombstoneNode* oldest = tombstone_age_.oldest()) {
    if (oldest->second.expiry > now) break;
    tombstone_age_.Unlink(*oldest);
    tombstones_.erase(tombstones_.find(oldest->first));
  }
  if (sweep_listener_) sweep_listener_(now, reclaimed);
  m_sweep_ns_->Record(obs::MonotonicNanos() - sweep_start);
  UpdateGauges();
}

void CallStateFactBase::ReclaimCall(CallNode& node, sim::Time now,
                                    std::vector<std::string>& reclaimed) {
  const std::string& call_id = node.first;
  CallEntry& entry = node.second;
  auto [tomb, inserted] = tombstones_.try_emplace(call_id);
  tomb->second.expiry = now + config_.tombstone_ttl;
  if (inserted) {
    tombstone_age_.Insert(*tomb);
  } else {
    tombstone_age_.Touch(*tomb);
  }
  ++calls_deleted_;
  m_calls_deleted_->Inc();
  // Drop this call's media-endpoint index entries via the reverse index.
  // The ownership check keeps endpoints that were re-negotiated to another
  // call in the meantime.
  for (const uint64_t key : entry.media_keys) {
    const auto media_it = media_index_.find(key);
    if (media_it != media_index_.end() && media_it->second.call_id == call_id) {
      media_index_.erase(media_it);
    }
  }
  reclaimed.push_back(call_id);
  if (group_pool_.size() < kGroupPoolCap) {
    // Park the group in initial configuration. The reset happens here, not
    // at reuse, because a parked group must not keep live timers — a
    // pending expiry would fire into a machine no call owns.
    entry.group->ResetForReuse(std::string());
    group_pool_.push_back(std::move(entry.group));
  }
  call_age_.Unlink(node);
  calls_.erase(calls_.find(call_id));
}

template <typename Map>
void CallStateFactBase::ReclaimIdleKeyed(
    Map& map, AgeOf<Map>& ages, sim::Time now,
    std::vector<std::string>& reclaimed) {
  while (auto* oldest = ages.oldest()) {
    if (now - oldest->second.last_event <= config_.keyed_idle_timeout) break;
    reclaimed.push_back(oldest->second.group->name());
    ages.Unlink(*oldest);
    map.erase(map.find(oldest->first));
  }
}

std::vector<std::string> CallStateFactBase::DueSurvivors(
    sim::Time now) const {
  std::vector<std::string> due;
  for (const auto& [call_id, entry] : calls_) {
    if (CallComplete(*entry.group)) due.push_back("complete call " + call_id);
    if (now - entry.last_event > config_.call_idle_timeout) {
      due.push_back("idle call " + call_id);
    }
  }
  const auto keyed = [&](const auto& map) {
    for (const auto& [key, entry] : map) {
      if (now - entry.last_event > config_.keyed_idle_timeout) {
        due.push_back("idle keyed group " + entry.group->name());
      }
    }
  };
  keyed(keyed_str_);
  keyed(keyed_bin_);
  for (const auto& [call_id, tombstone] : tombstones_) {
    if (tombstone.expiry <= now) due.push_back("expired tombstone " + call_id);
  }
  return due;
}

size_t CallStateFactBase::MemoryBytes() const {
  size_t bytes = sizeof(*this) +
                 retire_candidates_.capacity() * sizeof(CallNode*);
  for (const auto& [call_id, entry] : calls_) {
    bytes += call_id.capacity() + sizeof(CallEntry) +
             entry.group->MemoryBytes() +
             entry.media_keys.capacity() * sizeof(uint64_t);
  }
  for (const auto& [key, entry] : keyed_str_) {
    bytes += key.capacity() + sizeof(entry) + entry.group->MemoryBytes();
  }
  for (const auto& [key, entry] : keyed_bin_) {
    bytes += sizeof(key) + sizeof(entry) + entry.group->MemoryBytes();
  }
  for (const auto& [key, tombstone] : tombstones_) {
    bytes += key.capacity() + sizeof(tombstone);
  }
  for (const auto& [key, media] : media_index_) {
    bytes += sizeof(uint64_t) + sizeof(MediaEntry) + media.call_id.capacity();
  }
  return bytes + PooledBytes();
}

size_t CallStateFactBase::PooledBytes() const {
  size_t bytes = 0;
  for (const auto& group : group_pool_) bytes += group->MemoryBytes();
  return bytes;
}

std::optional<size_t> CallStateFactBase::CallMemoryBytes(
    const std::string& call_id) const {
  const auto it = calls_.find(call_id);
  if (it == calls_.end()) return std::nullopt;
  return it->second.group->MemoryBytes();
}

}  // namespace vids::ids
