// Sharded multi-worker vIDS engine with multi-producer ingest.
//
// The paper's vIDS keeps its state strictly per call (one EFSM group per
// Call-ID) and per key (media endpoint, destination AOR, victim host) —
// there is no cross-call coupling in the fact base itself. That makes the
// engine horizontally partitionable: ShardedIds runs N complete, private
// `Vids` instances ("shards"), one worker thread each, fed by P ingest
// ports ("producers" — capture queues, RSS flows, replay fan-out threads),
// each of which routes its own packets so every piece of keyed state is
// only ever touched by one thread:
//
//   SIP            → FNV-1a(Call-ID) mod N. All packets of a dialog land on
//                    one shard, so call groups, tombstones and the per-call
//                    patterns behave exactly as in the single engine.
//   RTP            → media-endpoint ownership view (MediaOwnerTable — a
//                    lock-free-reader claim-history table maintained by an
//                    SDP snoop on the routed SIP traffic: the endpoint
//                    belongs to the shard of the call that negotiated it),
//                    falling back to a hash of the destination endpoint for
//                    unnegotiated media. Either way one endpoint → one
//                    shard, so the per-endpoint pattern groups (RTP flood,
//                    media spam, RTCP BYE) count a coherent stream.
//   RTCP           → folded onto its media endpoint (port − 1) and routed
//                    like RTP, so the ghost-media machine sees both halves.
//   anything else  → hash of the destination endpoint.
//
// MPSC topology (DESIGN.md §15). Each shard owns P ingest LANES — strict
// SPSC rings (common/spsc_ring.h), one per (producer, shard) pair, each
// paired 1:1 with a PayloadArena slab so steady-state ingest memcpys
// payload bytes into a contiguous per-lane arena instead of scattered
// slot strings — plus one coordinator-only CONTROL lane (flush/stop
// barriers, hot-key broadcasts, test wedges) and the up-ring. The worker
// k-way merges its ingest lanes by (when_ns, seq): `seq` is a global
// arrival number the dispatcher stamps, so the merged per-shard order is
// EXACTLY the order a single producer would have delivered, and the alert
// stream is byte-identical for every producer count.
//
// Two protocols make producer-side routing exact (DESIGN.md §15):
//
//  - Ingest frontiers. Every port publishes a frontier F = "every message
//    this port will ever commit from now on has when_ns > F". The worker
//    may take the minimal front of its nonempty lanes only when its time
//    is <= every EMPTY lane's frontier (an empty lane whose frontier has
//    not passed the candidate may still publish an earlier message); a
//    blocked worker records which lane it waits on, which is what lets
//    the watchdog tell a wedged PRODUCER from a wedged worker.
//  - Claim-ordered ingest contract. Ownership claims (SDP snoops) land in
//    the shared MediaOwnerTable during the claiming packet's Ingest call,
//    keyed by the packet's global arrival number. The DRIVER must ingest
//    every claim-carrying packet (see CarriesClaims) before handing any
//    later-sequenced packet to another producer — capture::RunSource does
//    this by routing the rare SIP packets through the dispatcher's own
//    port inline. Under that contract, when any port routes arrival #seq,
//    every claim sequenced before it is already in the table; claims
//    sequenced AFTER it may be there too, so the table answers ownership
//    AS OF seq (two-deep, seqlock-consistent claim history). Routing is
//    therefore a pure function of (endpoint, seq) — stale routing
//    snapshots cannot happen, producers never spin on each other, and the
//    losing shard of a renegotiation is retracted exactly once by
//    whichever port applied the claim (the kRetractMedia message rides
//    that port's own lane at the claim's (when, seq), so the merge orders
//    it exactly). Packets predating both recorded claim eras hash-route
//    and count a route escalation (the bounded slow path).
//
// Single-producer configurations (producers == 1, the default) degenerate
// to the PR 5–8 behavior: one lane per shard, the contract holds trivially
// (one thread ingests everything in order), and ShardedIds::Ingest remains
// the drop-in single-threaded API (port 0 + opportunistic upstream drain).
//
// The detectors whose counting key spans calls — INVITE flooding (per
// destination AOR), DRDoS reflection (per victim host) and the behavior
// profiles (per caller / per account) — cannot live in any one shard.
// Shards buffer their Vids::AggregateEvents in a local, time-ordered
// staging buffer with per-key escalation sketches; the coordinator feeds
// the merged, time-ordered event stream, gated on the aggregate-complete
// frontier, into its own private Vids through Vids::FeedAggregate — the
// code the inline engine runs. See DESIGN.md §11–§12 for the exactness
// argument.
//
// Thread-ownership invariants (DESIGN.md §11, §15):
//   - each shard's Scheduler + Vids are touched only by its worker thread;
//   - every ring is strict SPSC: ingest lane p ↔ port p's thread, control
//     lane + up-ring ↔ the coordinator thread;
//   - exactly one thread at a time may drive the coordinator surface
//     (Pump/Flush/Stop/MergedMetrics); ports never drain upstream;
//   - Flush()/Stop() require quiescent ports: the caller must have
//     synchronized with every producer thread (join or equivalent edge)
//     so the coordinator may commit their open batches and advance their
//     frontiers; post-Flush ingest must carry times strictly after the
//     flush instant;
//   - alerts, aggregate events and acks flow only upstream.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/payload_arena.h"
#include "common/spsc_ring.h"
#include "common/strings.h"
#include "net/datagram.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"
#include "sip/lazy_message.h"
#include "vids/alert.h"
#include "vids/config.h"
#include "vids/ids.h"
#include "vids/media_owner_table.h"

namespace vids::ids {

struct ShardedConfig {
  /// Number of worker shards (>= 1, <= 255 — the ownership table packs the
  /// shard index into 8 bits). 1 reproduces the single-engine behavior
  /// with the pipeline in place.
  int shards = 1;
  /// Number of ingest ports (producer threads that may feed the engine
  /// concurrently, >= 1). Each port owns one SPSC lane per shard plus its
  /// own routing parser and metrics; 1 keeps the legacy single-router
  /// data path (no claim gating, no merge overhead beyond one lane).
  int producers = 1;
  /// Per-ring slot count (rounded up to a power of two). A full ring
  /// backpressures the producer; it never drops or allocates.
  size_t ring_capacity = 1024;
  DetectionConfig detection{};
  CostModel cost{};
  /// Cap on the coordinator's merged alert history (0 = unlimited); same
  /// drop-oldest-half policy as Vids::set_max_retained_alerts.
  size_t max_retained_alerts = 0;

  // --- batching (DESIGN.md §12) ---
  /// Max ring slots published/consumed per release/acquire pair. 1
  /// reproduces the PR-5 slot-at-a-time handoff exactly; larger values
  /// amortize the index fences and the consumer wakeups over the batch.
  size_t batch_max = 32;
  /// Bound on how long a partial producer batch may stay unpublished while
  /// the port keeps calling Ingest()/Heartbeat() — enforced in BOTH clock
  /// domains: wall clock, and the source timestamps carried by Ingest(),
  /// so a faster-than-real-time replay (pcap/trace) cannot hold packets
  /// unpublished across a capture gap that spans almost no wall time.
  /// Flush() and Stop() always publish immediately.
  int64_t batch_flush_us = 50;

  // --- coordinator-free aggregate path (DESIGN.md §12) ---
  /// How long (simulated time) a shard may hold a cold aggregate event
  /// locally before shipping it upstream. Larger values batch harder and
  /// delay cold-key replay by at most this much; alerts carry event
  /// timestamps, so the alert multiset is unaffected. 0 ships every event
  /// at the end of the batch that produced it (PR-5 behavior, batched).
  sim::Duration agg_hold = sim::Duration::Millis(250);

  // --- pipeline observability (DESIGN.md §13) ---
  /// Sample one in this many ingested packets (per port) for a pipeline
  /// span: the port stamps the enqueue wall time, the worker records
  /// ingest→dequeue / inspect / end-to-end (and, if the packet alerted,
  /// ingest→alert) into its shard-local latency histograms plus a kSpan
  /// flight record. Rounded up to a power of two. 0 disables tracing: the
  /// ingest path then carries a single always-false branch — no clock
  /// read, no counter tick — and the worker's span branch never takes.
  uint32_t trace_sample_period = 1024;
  /// Watchdog deadline (wall clock): a shard whose lanes stay non-empty
  /// while its worker's heartbeat does not advance for this long raises
  /// one structured EngineHealth alert per stall episode — attributed to
  /// the producer lane the worker is merge-blocked on when there is one
  /// (a wedged producer is not a wedged worker), to the worker otherwise.
  /// 0 disables the watchdog (and the worker's per-batch heartbeat clock
  /// read).
  int64_t watchdog_stall_ms = 2000;
};

class ShardedIds {
 public:
  /// One producer's handle into the engine. Each port is single-threaded
  /// (exactly one thread may use a given port at a time) and owns the
  /// producer side of its per-shard lanes, its own SIP routing parser,
  /// span sampling state and ingest metrics. Ports are created with the
  /// engine (config.producers of them) and live until Stop().
  class IngestPort {
   public:
    /// Routes one packet to its shard. `when` must be non-decreasing
    /// across this port's calls. `seq` is the packet's global arrival
    /// number: across ports, (when, seq) must be consistent with one
    /// global arrival order (a dispatcher that assigns seq in pull order
    /// satisfies this trivially), and claim-carrying packets must obey the
    /// claim-ordered ingest contract (file header). Blocks when the target
    /// lane is full (backpressure).
    void Ingest(const net::Datagram& dgram, bool from_outside, sim::Time when,
                uint64_t seq);
    /// Same, with a port-local auto-assigned seq (single-producer use, or
    /// callers that do not need cross-port determinism).
    void Ingest(const net::Datagram& dgram, bool from_outside, sim::Time when);
    /// Publishes "this port will ingest nothing earlier than `when`":
    /// commits any deadline-expired open batches and advances the ingest
    /// frontier so an idle port does not stall the workers' merges.
    void Heartbeat(sim::Time when);
    /// Terminal: commits everything and raises the frontier to +inf. The
    /// port must not ingest afterwards.
    void Close();
    int index() const { return index_; }

    /// Declares that this port is driven by the SAME thread that owns the
    /// coordinator surface (Pump/Flush/Stop): its backpressure wait then
    /// drains the up-rings itself instead of spin-sleeping until that
    /// thread gets around to pumping — required to stay deadlock-free when
    /// the coordinator thread ingests inline (a worker blocked publishing
    /// alerts upstream can hold a lane full forever otherwise). At most
    /// one port may have this set. Port 0 of a single-producer engine has
    /// it by default (the PR 5 behavior).
    void set_inline_drain(bool on) { inline_drain_ = on; }

    /// Times this port found a lane full and had to wait (its share of the
    /// engine-wide ingest_stalls()).
    uint64_t stalls() const { return m_stalls_->value(); }

   private:
    friend class ShardedIds;
    IngestPort(ShardedIds& engine, int index);
    IngestPort(const IngestPort&) = delete;
    IngestPort& operator=(const IngestPort&) = delete;

    ShardedIds& engine_;
    const int index_;
    sip::LazyMessage lazy_;
    uint64_t auto_seq_ = 0;
    uint32_t trace_tick_ = 0;
    /// Port 0 in single-producer mode doubles as the coordinator thread:
    /// its backpressure wait drains upstream (the PR 5 behavior). Ports of
    /// a multi-producer engine must not touch the coordinator surface, so
    /// they spin-sleep instead and rely on the driver pumping.
    bool inline_drain_ = false;
    bool closed_ = false;
    /// Highest ingest time seen (port thread); mirrored into last_when_pub_
    /// (relaxed) for the coordinator's quiescent reads.
    int64_t last_when_ns_ = 0;
    /// Earliest first-message time over this port's OPEN (uncommitted) lane
    /// batches; INT64_MAX when every batch is committed. Caps the frontier:
    /// an open batch is invisible to the worker, so the frontier may not
    /// pass it.
    int64_t open_min_ns_ = INT64_MAX;
    std::vector<int64_t> lane_open_ns_;  // per shard; INT64_MAX = no open batch
    /// Producer-batch deadline bookkeeping (both clock domains, as before).
    bool deadline_armed_ = false;
    std::chrono::steady_clock::time_point deadline_since_{};
    int64_t deadline_src_ns_ = 0;
    /// Published frontier: every message this port will still commit has
    /// when_ns strictly greater. Written release by the port (and by the
    /// coordinator inside Flush()/Stop(), under the quiescence contract);
    /// read acquire by workers (merge gate).
    std::atomic<int64_t> frontier_{-1};
    std::atomic<int64_t> last_when_pub_{0};
    /// Per-lane depth high-water marks / backpressure stalls (producer side
    /// of each lane; merged under "shard.N.lane.M." post-Flush).
    std::vector<uint64_t> lane_hwm_;
    std::vector<uint64_t> lane_stalls_;
    /// Port-private metrics (single-writer: this port's thread). Uses the
    /// same metric names as the coordinator's routing counters, so the
    /// post-Flush merge folds every port into the familiar series.
    obs::MetricsRegistry metrics_;
    obs::Counter* m_stalls_;
    obs::Counter* m_sip_routed_;
    obs::Counter* m_owner_routed_;
    obs::Counter* m_hash_routed_;
    obs::Counter* m_early_retracts_;
    obs::Counter* m_retracts_;
    obs::Counter* m_route_escalations_;
    obs::Counter* m_stale_claims_;
    obs::Counter* m_flush_full_;
    obs::Counter* m_flush_deadline_;
    obs::Counter* m_flush_barrier_;
    obs::Histogram* m_batch_committed_;
  };

  explicit ShardedIds(ShardedConfig config);
  ~ShardedIds();
  ShardedIds(const ShardedIds&) = delete;
  ShardedIds& operator=(const ShardedIds&) = delete;

  /// Legacy single-threaded ingest: port 0 plus the opportunistic upstream
  /// drain — byte-for-byte the PR 5 driver contract. Call from one thread
  /// only (the coordinator thread). Multi-producer drivers use port(p)
  /// from their own threads and pump from the coordinator thread instead.
  void Ingest(const net::Datagram& dgram, bool from_outside, sim::Time when);

  /// The ingest port for producer p (0 <= p < producers()).
  IngestPort& port(int p) { return *ports_[static_cast<size_t>(p)]; }
  int producers() const { return static_cast<int>(ports_.size()); }

  /// True when `dgram` would take the SIP (Call-ID) routing path — the
  /// claim-carrying packet class of the claim-ordered ingest contract
  /// (file header): multi-producer drivers must ingest such a packet
  /// before handing any later-sequenced packet to another producer.
  /// `scratch` is the caller's reusable SIP parser (allocation-free after
  /// warm-up). Mirrors IngestOn's dispatch test byte for byte.
  static bool CarriesClaims(const net::Datagram& dgram,
                            sip::LazyMessage& scratch);

  /// Drains upstream rings: collects shard alerts, advances the aggregate
  /// replay to the current frontier. Cheap when nothing is pending; called
  /// opportunistically by Ingest, periodically by drivers. Coordinator
  /// thread only.
  void Pump();

  /// Quiescence barrier: every packet ingested so far is fully processed,
  /// every shard's detection timers have advanced to `now`, all aggregate
  /// events up to `now` are replayed, and shard state (metrics(),
  /// fact_base()) may be read from the calling thread until the next
  /// Ingest. Also prunes the idle media-owner entries. Requires quiescent
  /// ports (see the thread-ownership invariants above).
  void Flush(sim::Time now);

  /// Stops and joins the workers, then drains everything still in flight.
  /// Idempotent; the destructor calls it. Requires quiescent ports.
  void Stop();

  /// Merged alert stream in canonical order: by alert time, same-instant
  /// ties broken lexicographically by the rendered alert text. The key is
  /// a pure function of the alert content, never of arrival order, so the
  /// retained history renders byte-identically across runs, worker
  /// interleavings, shard counts and producer counts — the equivalence
  /// gates diff it directly. (Comparisons against the direct Vids engine
  /// must canonicalize its stream the same way: within one instant the
  /// direct engine keeps causal emission order instead.)
  const std::vector<Alert>& alerts() const { return alerts_; }
  size_t CountAlerts(AlertKind kind) const;
  size_t CountAlerts(std::string_view classification) const;
  void set_alert_callback(std::function<void(const Alert&)> cb) {
    alert_callback_ = std::move(cb);
  }

  int shards() const { return static_cast<int>(shards_.size()); }

  /// Shard access for post-Flush inspection (tests, the soak sampler).
  Vids& shard_vids(int i) { return *shards_[static_cast<size_t>(i)]->vids; }
  const Vids& shard_vids(int i) const {
    return *shards_[static_cast<size_t>(i)]->vids;
  }
  const sim::Scheduler& shard_scheduler(int i) const {
    return *shards_[static_cast<size_t>(i)]->scheduler;
  }

  /// The coordinator Vids's behavior engine — the single authority for
  /// behavioral profiles in a sharded deployment, fed by the aggregate
  /// replay. Post-Flush inspection only.
  const behavior::BehaviorEngine& behavior() const {
    return coord_vids_.behavior();
  }

  /// Fresh registry holding every shard's, every port's and the
  /// coordinator Vids's metrics folded together plus the coordinator's own
  /// "sharded.*" counters. Post-Flush only.
  obs::MetricsRegistry MergedMetrics() const;

  /// Total tracked state across shards and the coordinator Vids (calls +
  /// keyed groups + tombstones + media index), plus the ownership table
  /// and behavior profiles. Post-Flush.
  size_t TrackedState() const;
  /// Total state footprint in bytes (fact bases, rings, arenas, ownership
  /// table, coordinator maps and Vids). Post-Flush.
  size_t MemoryBytes() const;

  /// Times any producer found a lane full and had to wait. Post-Flush.
  uint64_t ingest_stalls() const;
  /// Media-ownership transfers routed between shards so far. Post-Flush.
  uint64_t ownership_transfers() const;
  /// First-SDP-claim retractions sent to an endpoint's hash-fallback shard
  /// (early media arrived before its negotiation). Post-Flush.
  uint64_t early_media_retracts() const;
  /// Endpoint routes that fell off the two-deep claim history (packet older
  /// than both recorded eras — the bounded slow path). Post-Flush.
  uint64_t route_escalations() const;
  /// Shard-local sketch escalations reported to the coordinator: keys whose
  /// local event density alone proved they could sit inside a globally
  /// over-threshold window, and so turned hot (DESIGN.md §12).
  uint64_t aggregate_escalations() const { return m_escalations_->value(); }

  /// Stall episodes the watchdog has alerted on (one per episode; worker-
  /// and producer-attributed episodes both count).
  uint64_t watchdog_stalls() const { return m_watchdog_stalls_->value(); }

  /// The shard's last 32 sampled pipeline spans (kSpan flight records,
  /// oldest first). Post-Flush only.
  const obs::FlightRecorder& shard_spans(int i) const {
    return shards_[static_cast<size_t>(i)]->spans;
  }

  /// Test hooks: deliberately stall / release a worker mid-batch so the
  /// watchdog's stall detection can be exercised. A wedged worker keeps
  /// its lanes non-empty and its heartbeat frozen until un-wedged.
  void WedgeWorkerForTest(int shard);
  void UnwedgeWorkerForTest(int shard);

 private:
  template <typename T>
  using StringKeyed =
      std::unordered_map<std::string, T, common::StringHash, std::equal_to<>>;

  // ---- messages ----
  struct ShardMsg {
    enum class Kind : uint8_t {
      kPacket,        // ingest lanes
      kRetractMedia,  // ingest lanes (rides the claiming port's lane)
      kFlush,         // control lane (coordinator only)
      kStop,          // control lane
      kAggHot,        // control lane: `key` escalated on some shard
      kWedge,         // control lane: test hook (watchdog)
    };
    Kind kind = Kind::kPacket;
    int64_t when_ns = 0;
    /// Global arrival number: the worker merge's tiebreak at equal when_ns,
    /// which is what makes the multi-producer processing order identical
    /// to the single-producer one.
    uint64_t seq = 0;
    /// Pipeline span: wall-clock enqueue time of a sampled kPacket, 0 for
    /// unsampled ones (always assigned — ring slots are reused in place).
    int64_t span_enqueue_ns = 0;
    bool from_outside = false;
    /// kPacket payload location: bytes live in the lane's arena slot (same
    /// index as the ring slot) when in_arena, in dgram.payload otherwise.
    bool in_arena = false;
    uint32_t arena_len = 0;
    net::Datagram dgram;        // kPacket (payload string reused in place)
    net::Endpoint endpoint;     // kRetractMedia
    uint64_t token = 0;         // kFlush
    Vids::AggregateKind agg{};  // kAggHot
    std::string key;            // kAggHot (reused in place)
  };
  struct UpMsg {
    enum class Kind : uint8_t { kAlert, kAgg, kAggHot, kFlushAck };
    Kind kind = Kind::kAlert;
    int64_t when_ns = 0;
    Alert alert;               // kAlert (strings reused in place)
    Vids::AggregateEvent agg;  // kAgg: the event; kAggHot: kind + key
    uint64_t token = 0;        // kFlushAck
  };

  /// Per-key sliding sketch of this shard's most recent aggregate-event
  /// times (worker-owned). `recent` is a ring of the last E event times,
  /// E = the shard's escalation share: when all E land inside one
  /// detection window, the shard's local count alone proves the key could
  /// be inside a globally over-threshold window, and the key turns hot.
  struct AggSketch {
    std::vector<int64_t> recent;
    size_t next = 0;
    bool hot = false;
    int64_t last_event_ns = 0;
  };

  /// Worker-owned aggregate staging state. The coordinator may read it
  /// only behind a Flush() barrier (TrackedState/MemoryBytes).
  struct AggLocal {
    std::vector<Vids::AggregateEvent> buf;  // time-ordered; [begin, end) live
    size_t begin = 0;
    size_t end = 0;
    StringKeyed<AggSketch> invite_sketch;
    StringKeyed<AggSketch> drdos_sketch;
    /// Keys currently hot on this shard. While nonzero the whole buffer is
    /// shipped at every batch end, so hot-key replay tracks the packet
    /// frontier instead of lagging by agg_hold.
    size_t hot_keys = 0;
    uint64_t events_buffered = 0;  // total hook events staged
    uint64_t events_shipped = 0;   // total shipped upstream
    size_t live() const { return end - begin; }
  };

  /// Per-slot byte budget of each ingest lane's payload arena (the slab is
  /// ring_capacity * this). Payloads that fit are memcpy'd into the
  /// contiguous slab; larger ones fall back to the ring slot's own string.
  static constexpr size_t kArenaSlotBytes = 2048;

  /// One producer→shard ingest lane: SPSC ring + its 1:1 payload slab.
  struct Lane {
    common::SpscRing<ShardMsg> ring;
    common::PayloadArena arena;
    explicit Lane(size_t ring_capacity)
        : ring(ring_capacity), arena(ring.capacity(), kArenaSlotBytes) {}
  };

  struct Shard {
    /// Ingest lanes, one per port (index = port index).
    std::vector<std::unique_ptr<Lane>> lanes;
    /// Coordinator-only control lane (kFlush/kStop/kAggHot/kWedge).
    common::SpscRing<ShardMsg> down;
    common::SpscRing<UpMsg> up;
    std::unique_ptr<sim::Scheduler> scheduler;
    std::unique_ptr<Vids> vids;
    std::thread thread;
    int index = 0;

    // --- pipeline observability (DESIGN.md §13) ---
    /// Worker-private metrics: latency + batch histograms, no cross-shard
    /// atomics on the hot path. The worker is the only writer; the
    /// coordinator folds it into MergedMetrics() behind a Flush() barrier
    /// (both bare and under the "shard.<i>." prefix). Slots are resolved
    /// in the constructor, before the worker thread starts.
    obs::MetricsRegistry pipeline;
    obs::Histogram* lat_ingest_to_dequeue = nullptr;
    obs::Histogram* lat_inspect = nullptr;
    obs::Histogram* lat_e2e = nullptr;
    obs::Histogram* lat_ingest_to_alert = nullptr;
    obs::Histogram* batch_consumed = nullptr;
    /// Last 32 sampled spans as kSpan flight records (worker-owned;
    /// post-Flush read via shard_spans()).
    obs::FlightRecorder spans;
    /// Enqueue wall time of the sampled packet currently being inspected
    /// (worker-owned plain slot; lets the alert callback attribute an
    /// ingest→alert latency to the span). 0 between sampled packets.
    int64_t span_open_enqueue_ns = 0;
    /// Control-lane depth high-water mark (coordinator-owned — the control
    /// ring's producer side) and the up-ring mirror (worker-owned). The
    /// per-INGEST-lane marks live with their producing ports. Folded into
    /// MergedMetrics() post-Flush.
    uint64_t down_hwm = 0;
    uint64_t down_stalls = 0;
    uint64_t up_hwm = 0;
    /// Watchdog heartbeat: wall-clock time of the last batch this worker
    /// fully retired — or, during a clock catch-up across a capture gap
    /// (AdvanceShardClock), of the last completed slice in which timers
    /// ran (event-free stretches are jumped and store nothing). Release-stored
    /// (only when the watchdog is enabled — the disabled config never
    /// reads the clock). A worker that is wedged, spinning in PushUp, or
    /// dead stops advancing it.
    std::atomic<int64_t> last_progress_ns{0};
    /// The ingest lane this worker's merge is blocked on (-1 = none): the
    /// lane is empty but its port's frontier has not passed the next
    /// processable message, so the merge may not proceed. Read by the
    /// watchdog to attribute a stall to the producer instead of the
    /// worker.
    std::atomic<int> waiting_on_lane{-1};
    /// Test hook: while set, the worker sleeps inside its current batch
    /// (heartbeat frozen, lanes non-empty) — a deliberate stall.
    std::atomic<bool> wedged{false};
    /// Source-time progress frontier: the highest packet/flush time this
    /// worker fully processed (post-batch), or its scheduler's position
    /// after each timer-running slice of a catch-up (watchdog-enabled
    /// configs only). Post-batch stores are
    /// release-ordered after every upstream message for that time; the
    /// watchdog additionally reads this as source-reported progress so a
    /// worker sweeping through a replayed capture gap re-anchors its stall
    /// episode instead of alerting.
    std::atomic<int64_t> processed_ns{0};
    /// Aggregate-complete frontier: every aggregate event this shard will
    /// ever emit with when_ns <= this value is already published in the
    /// up-ring. Written (release) after the batch's ships are committed;
    /// the coordinator's replay gate is the min of these across shards.
    std::atomic<int64_t> agg_complete_ns{0};
    AggLocal agg;
    /// Times this worker found its up-ring full (worker-owned plain slot;
    /// the coordinator folds it into MergedMetrics post-Flush).
    uint64_t up_stalls = 0;
    /// Set (release) by the worker after it popped kStop, just before it
    /// returns. Stop() keeps draining the up-rings until every worker has
    /// raised this — a worker with lane backlog can be blocked in PushUp
    /// on a full up-ring, and joining it without draining would deadlock.
    std::atomic<bool> done{false};

    Shard(int producers, size_t ring_capacity)
        : down(ring_capacity), up(ring_capacity) {
      lanes.reserve(static_cast<size_t>(producers));
      for (int p = 0; p < producers; ++p) {
        lanes.push_back(std::make_unique<Lane>(ring_capacity));
      }
    }
  };

  /// Why a producer batch was published — the flush-reason histogram's
  /// dimensions (DESIGN.md §13).
  enum class FlushReason : uint8_t {
    kFull,      // batch_max reached, or backpressure forced the open batch
    kDeadline,  // batch_flush_us bound expired (wall clock or source time)
    kBarrier,   // Pump/Flush/Stop/broadcast published everything
  };

  /// Coordinator-side view of one worker's health (coordinator thread).
  /// A stall episode is anchored when the shard's lanes first show pending
  /// work with an unchanged heartbeat, and cleared by any progress —
  /// wall-clock heartbeat or source-reported time. The second anchor is
  /// what keeps faster-than-real-time replay honest: a worker sweeping
  /// timers across a replayed capture gap advances processed_ns even when
  /// a heartbeat store has not landed yet.
  struct ShardHealth {
    int64_t hb_seen = -1;
    int64_t src_seen = -1;
    int64_t pending_since_ns = 0;  // 0 = no open episode
    bool alerted = false;
  };

  // ---- worker side ----
  void WorkerLoop(Shard& shard);
  /// True when every ingest lane of `shard` is drained and every port's
  /// frontier has passed `barrier_ns` — the precondition for honoring a
  /// control-lane kFlush (barrier = flush time) or kStop (INT64_MAX).
  bool LanesQuiescent(Shard& shard, int64_t barrier_ns);
  /// Processes one ingest-lane message (kPacket / kRetractMedia).
  void ProcessLaneMsg(Shard& shard, Lane& lane, size_t at, ShardMsg& msg,
                      net::Datagram& scratch, int64_t& watermark);
  /// Advances a shard's private scheduler to `when` (no-op if already
  /// there). With the watchdog enabled, a stretch with no event due before
  /// `when` is crossed in one jump; where timers are due, the catch-up
  /// runs one simulated minute from the next due event at a time, with a
  /// heartbeat and a processed_ns store per slice, so mid-batch catch-up
  /// work is visible as progress. Cost follows the due timers, not the
  /// distance the clock moves.
  void AdvanceShardClock(Shard& shard, sim::Time when);
  /// Records a sampled packet's span: latency histograms + a kSpan flight
  /// record. `t0` is the enqueue wall time, `t_dequeue` the worker's
  /// dequeue wall time; called right after Inspect returns.
  void RecordSpan(Shard& shard, int64_t t0, int64_t t_dequeue);
  // Fill-callbacks are template parameters (not std::function) so the
  // per-packet push never allocates a callable. Defined in the .cpp — only
  // that TU instantiates them.
  template <typename Fill>
  void PushUp(Shard& shard, Fill&& fill);
  /// Aggregate hook target (worker thread): stages the event in the
  /// shard-local buffer, updates the key's sliding sketch, and escalates
  /// the key to hot when the sketch crosses the shard's share.
  void StageAggregate(Shard& shard, const Vids::AggregateEvent& event);
  /// Ships every held event with when_ns <= `horizon` upstream, in order,
  /// into the open up-batch (not yet committed). Updates agg bookkeeping;
  /// the caller publishes agg_complete_ns after committing.
  void ShipAggPrefix(Shard& shard, int64_t horizon);
  /// Drops sketch entries idle past the keyed horizon (worker thread;
  /// runs on kFlush so the maps stay bounded like the coordinator's).
  void PruneAggSketches(Shard& shard, int64_t now_ns);

  // ---- producer side (port threads) ----
  void IngestOn(IngestPort& port, const net::Datagram& dgram,
                bool from_outside, sim::Time when, uint64_t seq);
  /// Endpoint → shard: ownership view as of global arrival #`seq`, hash
  /// fallback on miss or pre-history.
  int RouteEndpoint(IngestPort& port, const net::Endpoint& endpoint,
                    int64_t when_ns, uint64_t seq);
  int ShardOfCallId(std::string_view call_id) const;
  int HashShardOfEndpoint(uint64_t packed_key) const;
  /// Applies the SDP body's ownership claims to the shared table and
  /// pushes the resulting kRetractMedia edges on this port's own lanes.
  void SnoopSdp(IngestPort& port, std::string_view body, int shard,
                int64_t when_ns, uint64_t seq);
  /// Reserve+fill one slot on this port's lane to `shard` (backpressure:
  /// inline-drain ports pump the coordinator, others spin-sleep).
  template <typename Fill>
  void PushLane(IngestPort& port, int shard, Fill&& fill);
  /// Publishes the port's frontier from open_min/last_when (monotonic).
  void PublishFrontier(IngestPort& port, int64_t candidate_ns);
  /// Commits every open lane batch of `port`, tagging the flush reason.
  void CommitPortLanes(IngestPort& port, FlushReason reason);
  void PortHeartbeat(IngestPort& port, sim::Time when);
  void PortClose(IngestPort& port);
  /// The dual-clock partial-batch deadline (DESIGN.md §12), per port.
  void PortDeadlineCheck(IngestPort& port, int64_t when_ns);

  // ---- coordinator ----
  void DrainUp();
  /// Replays pending aggregate events with when_ns <= `frontier` in global
  /// time order. The frontier must have been snapshotted (min
  /// agg_complete_ns, acquire) BEFORE the drain that filled pending_;
  /// INT64_MAX replays everything (only valid once the rings are final).
  void ReplayAggregates(int64_t frontier);
  /// Advances the coordinator scheduler to the event's time (window
  /// expiries and sweeps due by then run first, as inline), then feeds the
  /// event to the coordinator Vids.
  void ReplayOne(const Vids::AggregateEvent& event);
  /// Inserts into the retained history at its canonical position (see
  /// alerts()).
  void EmitAlert(Alert alert);
  /// Flush-time upkeep: prunes the ownership table and hot-key records,
  /// advances the coordinator Vids to `now_ns` and sweeps its behavior
  /// profiles.
  void PruneCoordinator(int64_t now_ns);
  /// Pushes one control message to `shard` (coordinator thread only;
  /// drains upstream while it waits out backpressure).
  template <typename Fill>
  void PushDown(int shard, Fill&& fill);
  /// Publishes every shard's open CONTROL batch (one release store each).
  void CommitAllDown(FlushReason reason);
  /// Re-broadcasts queued shard escalations (kAggHot) down every control
  /// lane. Deferred out of the drain loop and guarded against re-entry:
  /// PushDown can call DrainUp while it waits out backpressure.
  void BroadcastHotKeys();
  /// Stall detector (coordinator thread, called from DrainUp and throttled
  /// to ~threshold/8): raises one EngineHealth alert per stall episode,
  /// attributed to the producer lane the worker is merge-blocked on when
  /// there is one. Every blocking loop (backpressure, Flush, Stop) drains
  /// through here, so a wedged worker or producer surfaces instead of
  /// hanging silently.
  void WatchdogCheck();
  /// Highest ingest time across ports (coordinator; used for alert stamps).
  int64_t LatestIngestNs() const;

  ShardedConfig config_;
  /// The coordinator's aggregate engine: a private Vids on a private
  /// scheduler, fed only through FeedAggregate (ReplayOne) — never a
  /// packet. Its window counters, alert dedup and behavior engine are the
  /// inline engine's own code, so aggregate alerts match the inline engine
  /// by construction. Its alerts enter the history through EmitAlert.
  /// Coordinator thread only.
  sim::Scheduler coord_scheduler_;
  Vids coord_vids_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<IngestPort>> ports_;
  /// Shared media-endpoint ownership view (lock-free readers, serialized
  /// claims — media_owner_table.h).
  std::unique_ptr<MediaOwnerTable> owner_table_;
  bool workers_joined_ = false;
  int64_t last_ingest_ns_ = 0;   // legacy single-thread path bookkeeping
  uint64_t ingest_count_ = 0;
  uint64_t flush_token_ = 0;
  size_t flush_acks_ = 0;

  /// Per-shard, time-ordered aggregate events awaiting the frontier.
  std::vector<std::deque<Vids::AggregateEvent>> pending_;

  /// Keys already broadcast hot, by kind → last escalation time. Dedups the
  /// broadcast (several shards may escalate one key); pruned once idle.
  StringKeyed<int64_t> hot_invite_;
  StringKeyed<int64_t> hot_drdos_;
  struct HotBroadcast {
    Vids::AggregateKind agg{};
    std::string key;
    int64_t when_ns = 0;
  };
  /// Escalations collected during DrainUp, broadcast after the drain (a
  /// broadcast can hit backpressure, which re-enters DrainUp).
  std::vector<HotBroadcast> hot_pending_;
  bool broadcasting_ = false;
  /// True once Stop() started: no more control broadcasts (a worker past
  /// its kStop never drains them, so a full ring would wait forever).
  bool stopping_ = false;

  /// Span sampling. trace_on_/trace_mask_ are derived from
  /// trace_sample_period once in the constructor; the off configuration
  /// leaves trace_on_ false and the sampling check is one dead branch.
  bool trace_on_ = false;
  uint32_t trace_mask_ = 0;

  /// Watchdog (coordinator thread). threshold 0 = disabled; checks
  /// throttle to poll_ns so the hot path reads the clock at most once per
  /// poll window.
  int64_t watchdog_threshold_ns_ = 0;
  int64_t watchdog_poll_ns_ = 0;
  int64_t last_watchdog_check_ns_ = 0;
  std::vector<ShardHealth> health_;

  /// Per-shard escalation shares: ceil((threshold + 1) / shards) local
  /// events inside one window turn a key hot. Computed once in the
  /// constructor.
  int64_t esc_invite_share_ = 1;
  int64_t esc_drdos_share_ = 1;

  /// Canonical deterministic sort key of each retained alert (parallel to
  /// alerts_): alert time, ties broken by the rendered alert text.
  struct AlertKey {
    int64_t when_ns = 0;
    std::string text;
    bool operator<(const AlertKey& o) const {
      if (when_ns != o.when_ns) return when_ns < o.when_ns;
      return text < o.text;
    }
  };
  std::vector<Alert> alerts_;
  std::vector<AlertKey> alert_keys_;
  std::function<void(const Alert&)> alert_callback_;

  obs::MetricsRegistry coord_metrics_;
  obs::Counter* m_agg_events_;
  obs::Counter* m_flushes_;
  obs::Counter* m_escalations_;
  obs::Counter* m_watchdog_stalls_;
  obs::Counter* m_watchdog_producer_stalls_;
  obs::Counter* m_flush_full_;
  obs::Counter* m_flush_barrier_;
  /// Size of every published nonzero control batch (coordinator thread;
  /// ports record their own lane batches).
  obs::Histogram* m_batch_committed_;
};

}  // namespace vids::ids
