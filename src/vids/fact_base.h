// Call State Fact Base (paper Fig. 3).
//
// Stores "the control state and its state variables and keeps track of the
// progress of state machines for each ongoing call": one MachineGroup per
// call (SIP spec + RTP spec + per-call attack patterns, δ channel routed),
// plus keyed groups for the per-destination patterns (INVITE flood per
// callee AOR, media spam / RTP flood per media endpoint, DRDoS per victim
// host). It owns the lifecycle: completed calls are deleted (with a
// tombstone against late retransmissions) and idle state is reclaimed on a
// sweep that runs both from the packet path and from a periodic scheduler
// event armed while any tracked state exists — idle tail state dies even
// when traffic stops entirely. It also maintains the media-endpoint → call
// index that lets the Event Distributor hand RTP packets to the right call
// group.
//
// Indexing is binary on the hot path: media endpoints and DRDoS victims key
// hash maps by packed 48-bit endpoint / 32-bit IP values (no ToString()),
// string-keyed maps are unordered with transparent string_view lookup, and
// every call entry carries its media keys so Sweep() erases exactly the
// deleted call's index entries instead of scanning the whole index.
//
// A sweep visits only state that is due (DESIGN.md §9). Calls, keyed groups
// and tombstones are threaded oldest-first (common::AgeList), so idle
// reclaim pops from the front and stops at the first live entry; a call
// can only become complete when one of its machines retires, so only the
// calls reported through NoteRetired since the last sweep are re-checked.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/age_list.h"
#include "common/strings.h"
#include "efsm/engine.h"
#include "net/address.h"
#include "vids/config.h"
#include "vids/patterns.h"
#include "vids/spec_machines.h"

namespace vids::ids {

/// Keyed (non-call) group families.
enum class KeyedKind : uint8_t { kInviteFlood, kMediaEndpoint, kDrdos };

/// Flight-record `aux` encoding used by the fact base's kFactAssert /
/// kFactRetract records: family tag in the top byte, packed payload below
/// (media-endpoint key for the media tags, nothing for call lifecycle).
struct FactAux {
  static constexpr uint64_t kCallCreated = uint64_t{1} << 56;
  static constexpr uint64_t kMediaIndexed = uint64_t{2} << 56;
  static constexpr uint64_t kMediaRetracted = uint64_t{3} << 56;
  static constexpr uint64_t kTagMask = uint64_t{0xFF} << 56;
};

/// Machine positions inside the groups the fact base builds; the builders
/// check them, so the packet path addresses a machine by index
/// (MachineGroup::machine) instead of scanning names.
namespace call_machine {  // one group per call
inline constexpr size_t kSip = 0;
inline constexpr size_t kRtp = 1;
inline constexpr size_t kCancelDos = 2;
inline constexpr size_t kHijack = 3;
}  // namespace call_machine
namespace media_machine {  // one group per media endpoint
inline constexpr size_t kMediaSpam = 0;
inline constexpr size_t kRtpFlood = 1;
inline constexpr size_t kRtcpBye = 2;
}  // namespace media_machine
/// The sole machine of an INVITE-flood or DRDoS group.
inline constexpr size_t kWindowMachine = 0;

class CallStateFactBase {
 public:
  /// `registry`, when non-null, receives the fact-base gauges/counters and
  /// the shared engine metrics every machine group of this fact base
  /// updates. Null keeps all instrumentation pointed at the null sinks.
  CallStateFactBase(sim::Scheduler& scheduler, const DetectionConfig& config,
                    efsm::Observer* observer,
                    obs::MetricsRegistry* registry = nullptr);

  /// Renders a fact-base flight record (FactAux encoding) for provenance
  /// reports. Empty for records the fact base did not write.
  static std::string DecodeFactRecord(const obs::Record& record);

  /// Returns the call's machine group, creating it (SIP + RTP spec machines,
  /// CANCEL-DoS and hijack patterns, δ channel) on first sight.
  /// `created` reports whether this packet opened the call.
  efsm::MachineGroup& GetOrCreateCall(const std::string& call_id,
                                      bool& created);
  efsm::MachineGroup* FindCall(std::string_view call_id);

  /// Per-destination pattern group, generic string-keyed entry point:
  /// INVITE flood (key = callee AOR), media spam + RTP flood (key = media
  /// endpoint "ip:port"), DRDoS (key = victim IP). Media/DRDoS keys that
  /// parse as endpoint/IP are routed to the binary-keyed overloads below.
  efsm::MachineGroup& GetOrCreateKeyed(KeyedKind kind, const std::string& key);

  /// INVITE-flood fast path: runs once per INVITE request, so the "flood|"
  /// prefixed map key is composed in a reused scratch string and looked up
  /// transparently — the hit path performs no allocation.
  efsm::MachineGroup& GetOrCreateInviteFlood(std::string_view aor);

  /// Binary-keyed fast paths — no string formatting or parsing.
  efsm::MachineGroup& GetOrCreateMediaGroup(const net::Endpoint& endpoint);
  efsm::MachineGroup& GetOrCreateDrdosGroup(net::IpAddress victim);

  /// True if the call completed recently; its late retransmissions are
  /// dropped rather than treated as new (deviant) calls.
  bool IsTombstoned(std::string_view call_id) const;

  /// Media-endpoint index: negotiated RTP destinations → owning call.
  void IndexMedia(const net::Endpoint& endpoint, const std::string& call_id);
  /// Drops the endpoint's index entry, stamping a retraction record into the
  /// owning call's flight log. Used by the sharded engine when an SDP
  /// re-negotiation moves the endpoint to a call owned by a different shard
  /// — this shard must stop claiming the media stream. No-op when unknown.
  void RetractMedia(const net::Endpoint& endpoint);
  /// Drops the endpoint's per-endpoint keyed pattern group (media-spam /
  /// RTP-flood / RTCP-BYE counters) and its alert-dedup signatures, as if
  /// the group had just been swept. Used by the sharded engine when media
  /// ownership of the endpoint moves to another shard: the loser's partial
  /// counts must die deterministically rather than linger until the idle
  /// sweep and split the stream's counting. No-op when absent.
  void DropMediaKeyedGroup(const net::Endpoint& endpoint);
  std::optional<std::string> CallByMedia(const net::Endpoint& endpoint) const;
  /// Zero-copy variant: the indexed call's group, or nullptr when the
  /// endpoint is unknown or its call no longer exists.
  efsm::MachineGroup* FindGroupByMedia(const net::Endpoint& endpoint) const;

  /// Reclaims completed calls and idle groups. Costs O(due + reclaimed):
  /// call it from the packet path. Also fired by the periodic sweep event
  /// (armed on state creation) so reclamation does not depend on the next
  /// packet arriving.
  void Sweep(sim::Time now);

  /// A machine of `group` retired. The observer of this fact base's groups
  /// must forward efsm::Observer::OnRetired here (Vids does): a call can
  /// only become complete through a retirement, so the next sweep re-checks
  /// exactly the calls reported since the last one. Keyed groups and
  /// unknown groups are ignored.
  void NoteRetired(const efsm::MachineGroup& group);

  /// Exhaustive O(live) audit: one line per state that a sweep at `now`
  /// should have reclaimed but is still held — a complete call, a call or
  /// keyed group idle past its timeout, an expired tombstone. Empty right
  /// after every sweep; tests run it as the oracle of the due-only sweep.
  std::vector<std::string> DueSurvivors(sim::Time now) const;

  /// Called at the end of every executed sweep with the names of the groups
  /// it reclaimed (call ids and keyed-group names; possibly none). The
  /// analysis engine uses this both as its time-driven pruning tick and to
  /// evict alert-dedup signatures belonging to state that no longer exists.
  using SweepListener =
      std::function<void(sim::Time now, const std::vector<std::string>&)>;
  void set_sweep_listener(SweepListener listener) {
    sweep_listener_ = std::move(listener);
  }

  /// Visits every live call group (diagnostics: the soak harness uses it
  /// to report what state lingering calls are stuck in).
  void ForEachCall(
      const std::function<void(const efsm::MachineGroup&)>& visit) const {
    for (const auto& [id, entry] : calls_) visit(*entry.group);
  }

  size_t call_count() const { return calls_.size(); }
  size_t keyed_count() const { return keyed_str_.size() + keyed_bin_.size(); }
  size_t tombstone_count() const { return tombstones_.size(); }
  size_t media_index_count() const { return media_index_.size(); }
  uint64_t calls_created() const { return calls_created_; }
  uint64_t calls_deleted() const { return calls_deleted_; }

  /// Total footprint of all tracked state — the §7.3 memory metric. Counts
  /// the recycled-group pool too (PooledBytes()).
  size_t MemoryBytes() const;
  /// The part of MemoryBytes() held by swept call groups parked for reuse
  /// (at most kGroupPoolCap of them): warm capacity, not live call state.
  size_t PooledBytes() const;
  /// Footprint of one call's group, if it exists.
  std::optional<size_t> CallMemoryBytes(const std::string& call_id) const;

  const DetectionConfig& config() const { return config_; }

  // Recycled call groups. Every call group has the same shape (two protocol
  // machines, two always-on scenario machines, one sync channel), and
  // building one is the dominant cost of admitting a new call — so swept
  // groups are reset and parked in a pool instead of destroyed, and the
  // next call reuses one with all its buffer capacities warm. Bounded so an
  // INVITE flood cannot convert itself into pinned pool memory; sized to
  // absorb one sweep's reclaim batch at busy-hour call rates (hundreds of
  // calls/s × one sweep interval), a few hundred KB worst case.
  static constexpr size_t kGroupPoolCap = 256;

 private:
  // Map entries carry the intrusive links of their map's age list; `Node`
  // is the map's value_type, so a listed entry also reaches its key.
  struct CallEntry;
  using CallNode = std::pair<const std::string, CallEntry>;
  struct CallEntry {
    std::unique_ptr<efsm::MachineGroup> group;
    sim::Time last_event;
    common::AgeLinks<CallNode> age;
    // Reverse index: packed media-endpoint keys negotiated by this call, so
    // deletion cleans media_index_ without a full scan.
    std::vector<uint64_t> media_keys;
    bool retire_candidate = false;  // listed in retire_candidates_
  };
  template <typename Key>
  struct KeyedEntry {
    std::unique_ptr<efsm::MachineGroup> group;
    sim::Time last_event;
    common::AgeLinks<std::pair<const Key, KeyedEntry>> age;
  };
  struct Tombstone;
  using TombstoneNode = std::pair<const std::string, Tombstone>;
  struct Tombstone {
    sim::Time expiry;
    common::AgeLinks<TombstoneNode> age;
  };
  struct MediaEntry {
    std::string call_id;
    efsm::MachineGroup* group = nullptr;  // owned by calls_[call_id]
  };

  /// Age-list accessors: entries age by last_event, tombstones by expiry.
  template <typename Node>
  struct ByLastEvent {
    static auto& Links(Node& node) { return node.second.age; }
    static sim::Time Stamp(const Node& node) { return node.second.last_event; }
  };
  struct ByExpiry {
    static auto& Links(TombstoneNode& node) { return node.second.age; }
    static sim::Time Stamp(const TombstoneNode& node) {
      return node.second.expiry;
    }
  };

  template <typename T>
  using StringKeyed =
      std::unordered_map<std::string, T, common::StringHash, std::equal_to<>>;
  using KeyedStrMap = StringKeyed<KeyedEntry<std::string>>;
  using KeyedBinMap = std::unordered_map<uint64_t, KeyedEntry<uint64_t>>;
  template <typename Map>
  using AgeOf = common::AgeList<typename Map::value_type,
                                ByLastEvent<typename Map::value_type>>;

  /// A call is over when its SIP machine retired and its RTP machine either
  /// retired or never left INIT (non-call transactions like REGISTER).
  static bool CallComplete(const efsm::MachineGroup& group);

  /// Deletes one call: tombstone, media-index cleanup, group parked in the
  /// pool (or destroyed), age-list unlink, erase. Appends its name to
  /// `reclaimed`.
  void ReclaimCall(CallNode& node, sim::Time now,
                   std::vector<std::string>& reclaimed);
  /// Pops every keyed group idle past keyed_idle_timeout off `map`'s age
  /// list, appending their names to `reclaimed`.
  template <typename Map>
  void ReclaimIdleKeyed(Map& map, AgeOf<Map>& ages, sim::Time now,
                        std::vector<std::string>& reclaimed);
  /// Adds the media-endpoint pattern machines in media_machine order.
  void BuildMediaGroup(efsm::MachineGroup& group);
  /// Stamps a keyed entry with Now() and re-sorts it; a newly inserted one
  /// is linked and counted, and nullptr tells the caller to build its group.
  /// Returns the existing group otherwise.
  template <typename Map>
  efsm::MachineGroup* TouchKeyed(typename Map::value_type& node,
                                 AgeOf<Map>& ages, bool inserted);

  void UpdateGauges();

  /// True while any map holds reclaimable state — the periodic sweep event
  /// keeps re-arming exactly as long as this holds.
  bool HasTrackedState() const {
    return !calls_.empty() || !keyed_str_.empty() || !keyed_bin_.empty() ||
           !tombstones_.empty() || !media_index_.empty();
  }

  /// Arms the periodic sweep event if it is not already pending. Called on
  /// state creation only, so the steady-state packet path never schedules.
  void ArmSweepTimer();
  /// The first point of the absolute sweep grid (multiples of
  /// sweep_interval since time zero) strictly after `now`. Sweeps land on
  /// this grid whichever packet or timer triggers them, so every engine
  /// holding a call — inline or any shard — sweeps it at the same instants.
  sim::Time NextSweepInstant(sim::Time now) const;

  sim::Scheduler& scheduler_;
  DetectionConfig config_;
  efsm::Observer* observer_;

  // Shared metric slots: one EngineMetrics copy source for every group,
  // plus the fact base's own lifecycle/sweep instrumentation.
  efsm::EngineMetrics engine_metrics_;
  obs::Counter* m_calls_created_ = &obs::NullCounter();
  obs::Counter* m_calls_deleted_ = &obs::NullCounter();
  obs::Counter* m_sweeps_ = &obs::NullCounter();
  obs::Histogram* m_sweep_ns_ = &obs::NullHistogram();
  obs::Gauge* m_active_calls_ = &obs::NullGauge();
  obs::Gauge* m_keyed_groups_ = &obs::NullGauge();
  obs::Gauge* m_media_index_ = &obs::NullGauge();
  obs::Gauge* m_tombstones_ = &obs::NullGauge();

  // Shared machine definitions, instantiated per call / per key.
  efsm::MachineDef sip_spec_;
  efsm::MachineDef rtp_spec_;
  AttackScenarioBase scenarios_;

  // Recycled call groups (see kGroupPoolCap).
  std::vector<std::unique_ptr<efsm::MachineGroup>> group_pool_;

  StringKeyed<CallEntry> calls_;
  KeyedStrMap keyed_str_;  // INVITE flood, name-prefixed "flood|"
  std::string flood_key_scratch_;  // reused by GetOrCreateInviteFlood
  // Media-endpoint and DRDoS groups, keyed by kind-tagged packed binary key.
  KeyedBinMap keyed_bin_;
  StringKeyed<Tombstone> tombstones_;
  std::unordered_map<uint64_t, MediaEntry> media_index_;
  // Oldest-first orders of the maps above. Every stamp is the scheduler's
  // monotone Now() (tombstones: Now() + the fixed TTL), so a touch or an
  // insert lands at the newest end.
  AgeOf<StringKeyed<CallEntry>> call_age_;
  AgeOf<KeyedStrMap> keyed_str_age_;
  AgeOf<KeyedBinMap> keyed_bin_age_;
  common::AgeList<TombstoneNode, ByExpiry> tombstone_age_;
  // Calls with a machine retired since the last sweep (NoteRetired).
  std::vector<CallNode*> retire_candidates_;
  sim::Time next_sweep_;
  sim::Scheduler::EventId sweep_event_;
  SweepListener sweep_listener_;
  uint64_t calls_created_ = 0;
  uint64_t calls_deleted_ = 0;
};

}  // namespace vids::ids
