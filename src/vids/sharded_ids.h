// Sharded multi-worker vIDS engine.
//
// The paper's vIDS keeps its state strictly per call (one EFSM group per
// Call-ID) and per key (media endpoint, destination AOR, victim host) —
// there is no cross-call coupling in the fact base itself. That makes the
// engine horizontally partitionable: ShardedIds runs N complete, private
// `Vids` instances ("shards"), one worker thread each. The coordinator
// thread routes every packet (Ingest) so every piece of keyed state is only
// ever touched by one worker:
//
//   SIP            → FNV-1a(Call-ID) mod N. All packets of a dialog land on
//                    one shard, so call groups, tombstones and the per-call
//                    patterns behave exactly as in the single engine.
//   RTP            → media-endpoint owner map (MediaOwnerTable, maintained
//                    by an SDP snoop on the routed SIP traffic: the endpoint
//                    belongs to the shard of the call that negotiated it),
//                    falling back to a hash of the destination endpoint for
//                    unnegotiated media. Either way one endpoint → one
//                    shard, so the per-endpoint pattern groups (RTP flood,
//                    media spam, RTCP BYE) count a coherent stream.
//   RTCP           → folded onto its media endpoint (port − 1) and routed
//                    like RTP, so the ghost-media machine sees both halves.
//   anything else  → hash of the destination endpoint.
//
// Each shard owns ONE strict SPSC ring (common/spsc_ring.h) from the
// coordinator, paired 1:1 with a PayloadArena slab so steady-state ingest
// memcpys payload bytes into a contiguous arena instead of scattered slot
// strings, plus one up-ring back. The ingest ring carries packets,
// ownership retracts and the flush/stop/wedge control messages in FIFO
// order (DESIGN.md §12): a kFlush is honored exactly after every packet
// ingested before it. When an SDP claim moves an endpoint to another
// shard, the losing shard gets a kRetractMedia on its ring ahead of the
// claiming packet, so exactly one shard counts the stream from the claim
// onward.
//
// The detectors whose counting key spans calls — INVITE flooding (per
// destination AOR), DRDoS reflection (per victim host) and the behavior
// profiles (per caller / per account) — cannot live in any one shard.
// Each shard pushes its Vids::AggregateEvents into the up-batch of the
// drain batch that produced them; the coordinator feeds the merged,
// time-ordered event stream, gated on the shards' processed frontiers,
// into its own private Vids through Vids::FeedAggregate — the code the
// inline engine runs. See DESIGN.md §11–§12 for the exactness argument.
//
// Thread-ownership invariants (DESIGN.md §11):
//   - each shard's Scheduler + Vids are touched only by its worker thread;
//   - every ring is strict SPSC: the ingest ring's producer and every
//     up-ring's consumer is the coordinator thread;
//   - exactly one thread drives the coordinator surface (Ingest, Pump,
//     Flush, Stop, MergedMetrics); Ingest times must be non-decreasing;
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
#include <vector>

#include "common/payload_arena.h"
#include "common/spsc_ring.h"
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
  /// Number of worker shards (clamped to [1, 255]). 1 reproduces the
  /// single-engine behavior with the pipeline in place.
  int shards = 1;
  /// Ignored. Kept for replaybench, which still sets it; goes with the
  /// benchmark's next revision.
  int producers = 1;
  /// Per-ring slot count (rounded up to a power of two). A full ring
  /// backpressures Ingest; it never drops or allocates.
  size_t ring_capacity = 1024;
  DetectionConfig detection{};
  CostModel cost{};
  /// Cap on the coordinator's merged alert history (0 = unlimited); same
  /// drop-oldest-half policy as Vids::set_max_retained_alerts.
  size_t max_retained_alerts = 0;

  // --- pipeline observability (DESIGN.md §13) ---
  /// Sample one in this many ingested packets for a pipeline span: Ingest
  /// stamps the enqueue wall time, the worker records ingest→dequeue /
  /// inspect / end-to-end (and, if the packet alerted, ingest→alert) into
  /// its shard-local latency histograms plus a kSpan flight record.
  /// Rounded up to a power of two. 0 disables tracing: the ingest path
  /// then carries a single always-false branch — no clock read, no counter
  /// tick — and the worker's span branch never takes.
  uint32_t trace_sample_period = 1024;
  /// Watchdog deadline (wall clock): a shard whose ring stays non-empty
  /// while its worker's heartbeat does not advance for this long raises
  /// one structured EngineHealth alert per stall episode. 0 disables the
  /// watchdog (and the worker's per-batch heartbeat clock read).
  int64_t watchdog_stall_ms = 2000;
};

class ShardedIds {
 public:
  /// Max ring slots published/consumed per release/acquire pair: amortizes
  /// the index fences and the consumer wakeups over the batch.
  static constexpr size_t kBatchMax = 32;
  /// Bound on how long a partial ingest batch may stay unpublished while
  /// Ingest() keeps being called — enforced in BOTH clock domains: wall
  /// clock, and the source timestamps carried by Ingest(), so a
  /// faster-than-real-time replay (pcap/trace) cannot hold packets
  /// unpublished across a capture gap that spans almost no wall time.
  /// Pump(), Flush() and Stop() always publish immediately.
  static constexpr int64_t kBatchFlushMicros = 50;

  explicit ShardedIds(ShardedConfig config);
  ~ShardedIds();
  ShardedIds(const ShardedIds&) = delete;
  ShardedIds& operator=(const ShardedIds&) = delete;

  /// Routes one packet to its shard (coordinator thread). `when` must be
  /// non-decreasing across calls. Blocks while the target ring is full
  /// (backpressure), draining upstream as it waits, and drains upstream
  /// opportunistically every few packets.
  void Ingest(const net::Datagram& dgram, bool from_outside, sim::Time when);

  /// True when `dgram` would take the SIP (Call-ID) routing path, i.e. may
  /// carry SDP ownership claims. `scratch` is the caller's reusable SIP
  /// parser. Mirrors Ingest's dispatch test byte for byte. Kept for
  /// replaybench; goes with the benchmark's next revision.
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
  /// Ingest. Also prunes the idle media-owner entries.
  void Flush(sim::Time now);

  /// Stops and joins the workers, then drains everything still in flight.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// Merged alert stream in canonical order: by alert time, same-instant
  /// ties broken lexicographically by the rendered alert text. The key is
  /// a pure function of the alert content, never of arrival order, so the
  /// retained history renders byte-identically across runs, worker
  /// interleavings and shard counts — the equivalence gates diff it
  /// directly. (Comparisons against the direct Vids engine must
  /// canonicalize its stream the same way: within one instant the direct
  /// engine keeps causal emission order instead.)
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

  /// Fresh registry holding every shard's and the coordinator Vids's
  /// metrics folded together plus the coordinator's own "sharded.*" and
  /// "pipeline.*" counters. Post-Flush only.
  obs::MetricsRegistry MergedMetrics() const;

  /// Total tracked state across shards and the coordinator Vids (calls +
  /// keyed groups + tombstones + media index), plus the ownership table
  /// and behavior profiles. Post-Flush.
  size_t TrackedState() const;
  /// Total state footprint in bytes (fact bases, rings, arenas, ownership
  /// table, coordinator maps and Vids). Post-Flush.
  size_t MemoryBytes() const;

  /// Times Ingest found a ring full and had to wait.
  uint64_t ingest_stalls() const { return m_stalls_->value(); }
  /// Media-ownership transfers routed between shards so far.
  uint64_t ownership_transfers() const { return m_retracts_->value(); }
  /// First-SDP-claim retractions sent to an endpoint's hash-fallback shard
  /// (early media arrived before its negotiation).
  uint64_t early_media_retracts() const {
    return m_early_retracts_->value();
  }
  /// Always 0: one router applies every claim before it routes any later
  /// packet. Kept for replaybench; goes with the benchmark's next revision.
  uint64_t route_escalations() const { return 0; }
  /// Always 0: aggregate events ship with the batch that produced them, so
  /// nothing escalates. Kept for replaybench; goes with the benchmark's
  /// next revision.
  uint64_t aggregate_escalations() const { return 0; }

  /// Stall episodes the watchdog has alerted on (one per episode).
  uint64_t watchdog_stalls() const { return m_watchdog_stalls_->value(); }

  /// The shard's last 32 sampled pipeline spans (kSpan flight records,
  /// oldest first). Post-Flush only.
  const obs::FlightRecorder& shard_spans(int i) const {
    return shards_[static_cast<size_t>(i)]->spans;
  }

  /// Test hooks: deliberately stall / release a worker mid-batch so the
  /// watchdog's stall detection can be exercised. A wedged worker keeps
  /// its ring non-empty and its heartbeat frozen until un-wedged.
  void WedgeWorkerForTest(int shard);
  void UnwedgeWorkerForTest(int shard);

 private:
  // ---- messages ----
  struct ShardMsg {
    enum class Kind : uint8_t {
      kPacket,
      kRetractMedia,  // this shard lost an endpoint to another shard's claim
      kFlush,         // barrier: advance to when_ns, ack with token
      kStop,
      kWedge,         // test hook (watchdog)
    };
    Kind kind = Kind::kPacket;
    int64_t when_ns = 0;
    /// Pipeline span: wall-clock enqueue time of a sampled kPacket, 0 for
    /// unsampled ones (always assigned — ring slots are reused in place).
    int64_t span_enqueue_ns = 0;
    bool from_outside = false;
    /// kPacket payload location: bytes live in the shard's arena slot (same
    /// index as the ring slot) when in_arena, in dgram.payload otherwise.
    bool in_arena = false;
    uint32_t arena_len = 0;
    net::Datagram dgram;        // kPacket (payload string reused in place)
    net::Endpoint endpoint;     // kRetractMedia
    uint64_t token = 0;         // kFlush
  };
  struct UpMsg {
    enum class Kind : uint8_t { kAlert, kAgg, kFlushAck };
    Kind kind = Kind::kAlert;
    Alert alert;               // kAlert (strings reused in place)
    Vids::AggregateEvent agg;  // kAgg (strings reused in place)
    uint64_t token = 0;        // kFlushAck
  };

  /// Per-slot byte budget of each ingest ring's payload arena (the slab is
  /// ring_capacity * this). Payloads that fit are memcpy'd into the
  /// contiguous slab; larger ones fall back to the ring slot's own string.
  static constexpr size_t kArenaSlotBytes = 2048;

  struct Shard {
    /// Coordinator → worker, FIFO: packets, retracts, control messages.
    common::SpscRing<ShardMsg> ring;
    common::PayloadArena arena;  // 1:1 with `ring`'s slots
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
    /// Ingest-ring depth high-water mark and backpressure stalls
    /// (coordinator-owned — the ring's producer side) and the up-ring
    /// mirror (worker-owned). Folded into MergedMetrics() post-Flush.
    uint64_t ring_hwm = 0;
    uint64_t ring_stalls = 0;
    uint64_t up_hwm = 0;
    /// Watchdog heartbeat: wall-clock time of the last batch this worker
    /// fully retired — or, during a clock catch-up across a capture gap
    /// (AdvanceShardClock), of the last completed slice in which timers
    /// ran (event-free stretches are jumped and store nothing). Release-stored
    /// (only when the watchdog is enabled — the disabled config never
    /// reads the clock). A worker that is wedged, spinning in PushUp, or
    /// dead stops advancing it.
    std::atomic<int64_t> last_progress_ns{0};
    /// Test hook: while set, the worker sleeps inside its current batch
    /// (heartbeat frozen, ring non-empty) — a deliberate stall.
    std::atomic<bool> wedged{false};
    /// Source-time progress frontier: the highest packet/flush time this
    /// worker fully processed (post-batch), or its scheduler's position
    /// after each timer-running slice of a catch-up (watchdog-enabled
    /// configs only). Every store is release-ordered after the up-ring
    /// commit that publishes everything emitted up to that time, so every
    /// aggregate event this shard will ever emit with when_ns <= this
    /// value is already in the up-ring: the coordinator's replay gate is
    /// the min of these across shards. The watchdog additionally reads
    /// this as source-reported progress so a worker sweeping through a
    /// replayed capture gap re-anchors its stall episode instead of
    /// alerting.
    std::atomic<int64_t> processed_ns{0};
    /// Times this worker found its up-ring full (worker-owned plain slot;
    /// the coordinator folds it into MergedMetrics post-Flush).
    uint64_t up_stalls = 0;
    /// Set (release) by the worker after it popped kStop, just before it
    /// returns. Stop() keeps draining the up-rings until every worker has
    /// raised this — a worker with ring backlog can be blocked in PushUp
    /// on a full up-ring, and joining it without draining would deadlock.
    std::atomic<bool> done{false};

    explicit Shard(size_t ring_capacity)
        : ring(ring_capacity),
          arena(ring.capacity(), kArenaSlotBytes),
          up(ring_capacity) {}
  };

  /// Why an ingest batch was published — the flush-reason histogram's
  /// dimensions (DESIGN.md §13).
  enum class FlushReason : uint8_t {
    kFull,      // kBatchMax reached, or backpressure forced the open batches
    kDeadline,  // kBatchFlushMicros expired (wall clock or source time)
    kBarrier,   // Pump/Flush/Stop published everything
  };

  /// Coordinator-side view of one worker's health (coordinator thread).
  /// A stall episode is anchored when the shard's ring first shows pending
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
  /// Inspects one kPacket message (ring slot `at` of the current batch).
  void ProcessPacket(Shard& shard, size_t at, ShardMsg& msg,
                     net::Datagram& scratch);
  /// Advances a shard's private scheduler to `when` (no-op if already
  /// there). With the watchdog enabled, a stretch with no event due before
  /// `when` is crossed in one jump; where timers are due, the catch-up
  /// runs one simulated minute from the next due event at a time, with a
  /// heartbeat, an up-ring commit and a processed_ns store per slice, so
  /// mid-batch catch-up work is visible as progress. Cost follows the due
  /// timers, not the distance the clock moves.
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

  // ---- routing (coordinator thread) ----
  /// Endpoint → shard: the owner map, hash fallback on miss.
  int RouteEndpoint(const net::Endpoint& endpoint, int64_t when_ns);
  int ShardOfCallId(std::string_view call_id) const;
  int HashShardOfEndpoint(uint64_t packed_key) const;
  /// Applies the SDP body's ownership claims to the owner map and pushes
  /// the resulting kRetractMedia messages to the losing shards.
  void SnoopSdp(std::string_view body, int shard, int64_t when_ns);
  /// Reserve+fill one slot on `shard`'s ring (backpressure: publish every
  /// open batch and drain upstream until the slot frees). Commits the
  /// ring's batch once it holds kBatchMax messages.
  template <typename Fill>
  void Push(int shard, Fill&& fill);
  /// Publishes every shard's open batch, tagging the flush reason.
  void CommitAll(FlushReason reason);
  /// The dual-clock partial-batch deadline (DESIGN.md §12).
  void DeadlineCheck(int64_t when_ns);

  // ---- coordinator ----
  void DrainUp();
  /// Replays pending aggregate events with when_ns <= `frontier` in global
  /// time order. The frontier must have been snapshotted (min
  /// processed_ns, acquire) BEFORE the drain that filled pending_;
  /// INT64_MAX replays everything (only valid once the rings are final).
  void ReplayAggregates(int64_t frontier);
  /// Advances the coordinator scheduler to the event's time (window
  /// expiries and sweeps due by then run first, as inline), then feeds the
  /// event to the coordinator Vids.
  void ReplayOne(const Vids::AggregateEvent& event);
  /// Inserts into the retained history at its canonical position (see
  /// alerts()).
  void EmitAlert(Alert alert);
  /// Flush-time upkeep: prunes the ownership table, advances the
  /// coordinator Vids to `now_ns` and sweeps its behavior profiles.
  void PruneCoordinator(int64_t now_ns);
  /// Stall detector (coordinator thread, called from DrainUp and throttled
  /// to ~threshold/8): raises one EngineHealth alert per stall episode.
  /// Every blocking loop (backpressure, Flush, Stop) drains through here,
  /// so a wedged worker surfaces instead of hanging silently.
  void WatchdogCheck();

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
  /// Media-endpoint ownership map (router-owned).
  MediaOwnerTable owner_table_;
  /// Routing parser, reused across packets.
  sip::LazyMessage lazy_;
  bool workers_joined_ = false;
  uint64_t ingest_count_ = 0;
  /// Highest ingest time seen (stamps flushes and watchdog alerts).
  int64_t last_when_ns_ = 0;
  /// Messages pushed but not yet committed, across every shard's ring.
  size_t open_msgs_ = 0;
  /// Partial-batch deadline bookkeeping, in both clock domains.
  bool deadline_armed_ = false;
  std::chrono::steady_clock::time_point deadline_since_{};
  int64_t deadline_src_ns_ = 0;
  uint64_t flush_token_ = 0;
  size_t flush_acks_ = 0;

  /// Per-shard, time-ordered aggregate events awaiting the frontier.
  std::vector<std::deque<Vids::AggregateEvent>> pending_;

  /// Span sampling. trace_on_/trace_mask_ are derived from
  /// trace_sample_period once in the constructor; the off configuration
  /// leaves trace_on_ false and the sampling check is one dead branch.
  bool trace_on_ = false;
  uint32_t trace_mask_ = 0;
  uint32_t trace_tick_ = 0;

  /// Watchdog (coordinator thread). threshold 0 = disabled; checks
  /// throttle to poll_ns so the hot path reads the clock at most once per
  /// poll window.
  int64_t watchdog_threshold_ns_ = 0;
  int64_t watchdog_poll_ns_ = 0;
  int64_t last_watchdog_check_ns_ = 0;
  std::vector<ShardHealth> health_;

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
  obs::Counter* m_stalls_;
  obs::Counter* m_sip_routed_;
  obs::Counter* m_owner_routed_;
  obs::Counter* m_hash_routed_;
  obs::Counter* m_early_retracts_;
  obs::Counter* m_retracts_;
  obs::Counter* m_agg_events_;
  obs::Counter* m_flushes_;
  obs::Counter* m_watchdog_stalls_;
  obs::Counter* m_flush_full_;
  obs::Counter* m_flush_deadline_;
  obs::Counter* m_flush_barrier_;
  /// Size of every published nonzero ingest batch.
  obs::Histogram* m_batch_committed_;
};

}  // namespace vids::ids
