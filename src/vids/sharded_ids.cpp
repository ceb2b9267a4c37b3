#include "vids/sharded_ids.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/backoff.h"
#include "rtp/rtcp.h"

namespace vids::ids {

namespace {

// Call-ID → shard. FNV-1a over the raw bytes: Call-IDs are adversarial
// input, but the partition only needs balance, not collision resistance —
// a skewed shard is a throughput problem, never a correctness one.
uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Endpoint key → shard. PackedKey is structured (ip << 16 | port), so mix
// it before taking the residue.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Field-wise copy that reuses the destination's string capacities — the
// ring-slot analog of the classifier's AssignStr.
void AssignAlert(Alert& dst, const Alert& src) {
  dst.when = src.when;
  dst.kind = src.kind;
  dst.classification.assign(src.classification);
  dst.machine.assign(src.machine);
  dst.group.assign(src.group);
  dst.state.assign(src.state);
  dst.detail.assign(src.detail);
  dst.trigger.assign(src.trigger);
  dst.provenance.resize(src.provenance.size());
  for (size_t i = 0; i < src.provenance.size(); ++i) {
    dst.provenance[i].assign(src.provenance[i]);
  }
}

// Hard cap on a shard's held-back aggregate events. A flood that outruns
// agg_hold aging forces a full ship instead of unbounded staging growth.
constexpr size_t kMaxStagedAggregates = 1024;

int64_t MinOf(const std::vector<int64_t>& values) {
  int64_t m = INT64_MAX;
  for (const int64_t v : values) m = std::min(m, v);
  return m;
}

}  // namespace

// ------------------------------------------------------------ ingest port

ShardedIds::IngestPort::IngestPort(ShardedIds& engine, int index)
    : engine_(engine),
      index_(index),
      lane_open_ns_(static_cast<size_t>(engine.config_.shards), INT64_MAX),
      lane_hwm_(static_cast<size_t>(engine.config_.shards), 0),
      lane_stalls_(static_cast<size_t>(engine.config_.shards), 0),
      m_stalls_(&metrics_.GetCounter("sharded.ingest_stalls")),
      m_sip_routed_(&metrics_.GetCounter("sharded.sip_routed")),
      m_owner_routed_(&metrics_.GetCounter("sharded.endpoint_owner_routed")),
      m_hash_routed_(&metrics_.GetCounter("sharded.endpoint_hash_routed")),
      m_early_retracts_(
          &metrics_.GetCounter("sharded.early_media_retracts")),
      m_retracts_(&metrics_.GetCounter("sharded.ownership_transfers")),
      m_route_escalations_(
          &metrics_.GetCounter("sharded.route_escalations")),
      m_stale_claims_(
          &metrics_.GetCounter("sharded.stale_claims_dropped")),
      m_flush_full_(&metrics_.GetCounter("pipeline.flush.full")),
      m_flush_deadline_(&metrics_.GetCounter("pipeline.flush.deadline")),
      m_flush_barrier_(&metrics_.GetCounter("pipeline.flush.barrier")),
      m_batch_committed_(&metrics_.GetHistogram("pipeline.batch.committed")) {}

void ShardedIds::IngestPort::Ingest(const net::Datagram& dgram,
                                    bool from_outside, sim::Time when,
                                    uint64_t seq) {
  engine_.IngestOn(*this, dgram, from_outside, when, seq);
}

void ShardedIds::IngestPort::Ingest(const net::Datagram& dgram,
                                    bool from_outside, sim::Time when) {
  engine_.IngestOn(*this, dgram, from_outside, when, auto_seq_++);
}

void ShardedIds::IngestPort::Heartbeat(sim::Time when) {
  engine_.PortHeartbeat(*this, when);
}

void ShardedIds::IngestPort::Close() { engine_.PortClose(*this); }

// ------------------------------------------------------------ construction

ShardedIds::ShardedIds(ShardedConfig config)
    : config_(config),
      coord_vids_(coord_scheduler_, config_.detection, config_.cost),
      m_agg_events_(&coord_metrics_.GetCounter("sharded.agg_events")),
      m_flushes_(&coord_metrics_.GetCounter("sharded.flushes")),
      m_escalations_(&coord_metrics_.GetCounter("sharded.agg_escalations")),
      m_watchdog_stalls_(
          &coord_metrics_.GetCounter("sharded.watchdog_stalls")),
      m_watchdog_producer_stalls_(
          &coord_metrics_.GetCounter("sharded.watchdog_producer_stalls")),
      m_flush_full_(&coord_metrics_.GetCounter("pipeline.flush.full")),
      m_flush_barrier_(&coord_metrics_.GetCounter("pipeline.flush.barrier")),
      m_batch_committed_(
          &coord_metrics_.GetHistogram("pipeline.batch.committed")) {
  // The ownership table packs the shard index into 8 bits.
  config_.shards = std::clamp(config_.shards, 1, 255);
  config_.producers = std::max(1, config_.producers);
  config_.batch_max = std::max<size_t>(1, config_.batch_max);
  const int n = config_.shards;
  owner_table_ = std::make_unique<MediaOwnerTable>(1024);
  if (config_.trace_sample_period > 0) {
    uint32_t period = 1;
    while (period < config_.trace_sample_period) period <<= 1;
    trace_on_ = true;
    trace_mask_ = period - 1;
  }
  // The coordinator Vids's aggregate alerts enter the retained history
  // through the same canonical insert as every shard alert; like a shard,
  // it keeps only a short tail of its own.
  coord_vids_.set_alert_callback(
      [this](const Alert& alert) { EmitAlert(alert); });
  coord_vids_.set_max_retained_alerts(4);
  watchdog_threshold_ns_ = config_.watchdog_stall_ms * 1'000'000;
  // Poll well inside the deadline (threshold/8, floor 1 ms) so an episode
  // accrues several consecutive checks before it can alert — the
  // continuity guard in WatchdogCheck() needs at least two.
  watchdog_poll_ns_ =
      std::max<int64_t>(watchdog_threshold_ns_ / 8, 1'000'000);
  health_.resize(static_cast<size_t>(n));
  // Escalation share: by pigeonhole, if a key sees more than `threshold`
  // events inside one window globally, some shard saw at least
  // ceil((threshold + 1) / shards) of them — so a shard whose local sketch
  // holds that many events within a window-span knows the key could be in
  // an over-threshold window and turns it hot.
  const auto share = [&](int threshold) {
    return std::max<int64_t>(1, (int64_t{threshold} + n) / n);
  };
  esc_invite_share_ = share(config_.detection.invite_flood_threshold);
  esc_drdos_share_ = share(config_.detection.drdos_threshold);

  pending_.resize(static_cast<size_t>(n));
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto shard =
        std::make_unique<Shard>(config_.producers, config_.ring_capacity);
    shard->index = i;
    shard->scheduler = std::make_unique<sim::Scheduler>();
    shard->vids = std::make_unique<Vids>(*shard->scheduler, config_.detection,
                                         config_.cost);
    // The coordinator keeps the merged history; the shard only needs enough
    // retained tail for its own internal bookkeeping.
    shard->vids->set_max_retained_alerts(4);
    // Resolve the worker's pipeline metric slots now, before its thread
    // starts — from then on a Record() is a plain array increment into the
    // worker-private registry (no cross-shard atomics, no lookups).
    shard->lat_ingest_to_dequeue =
        &shard->pipeline.GetHistogram("lat.ingest_to_dequeue");
    shard->lat_inspect = &shard->pipeline.GetHistogram("lat.inspect");
    shard->lat_e2e = &shard->pipeline.GetHistogram("lat.e2e");
    shard->lat_ingest_to_alert =
        &shard->pipeline.GetHistogram("lat.ingest_to_alert");
    shard->batch_consumed = &shard->pipeline.GetHistogram("batch.consumed");
    Shard* sp = shard.get();
    shard->vids->set_alert_callback([this, sp](const Alert& alert) {
      // A sampled packet that alerted: the open span's enqueue time is
      // still posted, so the emit stage of the trail gets its latency.
      if (sp->span_open_enqueue_ns != 0) {
        sp->lat_ingest_to_alert->Record(obs::MonotonicNanos() -
                                        sp->span_open_enqueue_ns);
      }
      PushUp(*sp, [&](UpMsg& up) {
        up.kind = UpMsg::Kind::kAlert;
        up.when_ns = alert.when.nanos();
        AssignAlert(up.alert, alert);
      });
    });
    // Always hook the aggregate feeds — even with one shard — so the
    // aggregate detectors take the identical (replayed) code path for every
    // shard count. Equivalence across N is then true by construction.
    shard->vids->set_aggregate_hook(
        [this, sp](const Vids::AggregateEvent& event) {
          StageAggregate(*sp, event);
        });
    shards_.push_back(std::move(shard));
  }
  // Ports before workers: the merge gate reads ports_[p]->frontier_.
  ports_.reserve(static_cast<size_t>(config_.producers));
  for (int p = 0; p < config_.producers; ++p) {
    ports_.push_back(
        std::unique_ptr<IngestPort>(new IngestPort(*this, p)));
  }
  // Single-producer engines keep the PR 5 contract: port 0 runs on the
  // coordinator thread, so its backpressure wait may (must) drain upstream.
  ports_[0]->inline_drain_ = config_.producers == 1;
  for (auto& shard : shards_) {
    Shard* sp = shard.get();
    sp->thread = std::thread([this, sp] { WorkerLoop(*sp); });
  }
}

ShardedIds::~ShardedIds() { Stop(); }

// ------------------------------------------------------------- worker side

template <typename Fill>
void ShardedIds::PushUp(Shard& shard, Fill&& fill) {
  UpMsg* slot = shard.up.BeginPushN();
  if (slot == nullptr) {
    // Publish whatever the open batch holds — the coordinator can only
    // free slots it can see — then wait for room. The coordinator drains
    // up-rings whenever it waits on a full control lane and while it waits
    // in Flush()/Stop(), so this cannot deadlock against a blocked
    // producer. It can still be a long wait if the driver thread goes
    // quiet between Ingest/Pump calls — back off to a short sleep instead
    // of spinning.
    shard.up.CommitPushN();
    common::SpinBackoff backoff;
    do {
      ++shard.up_stalls;
      backoff.Pause();
      slot = shard.up.BeginPushN();
    } while (slot == nullptr);
  }
  fill(*slot);
  if (const auto depth = static_cast<uint64_t>(shard.up.SizeFromProducer());
      depth > shard.up_hwm) {
    shard.up_hwm = depth;
  }
  // No commit here: WorkerLoop publishes the whole batch of upstream
  // messages with one release store at batch end.
}

void ShardedIds::RecordSpan(Shard& shard, int64_t t0, int64_t t_dequeue) {
  const int64_t t_done = obs::MonotonicNanos();
  shard.lat_ingest_to_dequeue->Record(t_dequeue - t0);
  shard.lat_inspect->Record(t_done - t_dequeue);
  shard.lat_e2e->Record(t_done - t0);
  obs::Record rec;
  rec.type = obs::RecordType::kSpan;
  rec.when_ns = t0;
  rec.aux = static_cast<uint64_t>(t_done - t0);
  const auto micros = [](int64_t ns, int64_t cap) {
    const int64_t us = ns / 1000;
    return us > cap ? cap : (us < 0 ? int64_t{0} : us);
  };
  rec.a = static_cast<uint16_t>(micros(t_dequeue - t0, 65535));
  rec.from = static_cast<int16_t>(micros(t_done - t_dequeue, 32767));
  rec.to = static_cast<int16_t>(shard.index);
  shard.spans.Record(rec);
}

void ShardedIds::StageAggregate(Shard& shard,
                                const Vids::AggregateEvent& event) {
  AggLocal& a = shard.agg;
  const int64_t t = event.when.nanos();

  // Stage the event. Retired slots keep their string capacities; compact
  // by rotating the live tail to the front (swaps, no copies) so the
  // vector's size is bounded by the peak number of simultaneously-held
  // events.
  if (a.end == a.buf.size() && a.begin > 0) {
    std::rotate(a.buf.begin(),
                a.buf.begin() + static_cast<ptrdiff_t>(a.begin),
                a.buf.end());
    a.end -= a.begin;
    a.begin = 0;
  }
  if (a.end == a.buf.size()) a.buf.emplace_back();
  a.buf[a.end++] = event;  // assignment reuses the slot's string capacities
  ++a.events_buffered;
  if (a.live() > kMaxStagedAggregates) {
    ShipAggPrefix(shard, t);  // ships everything: `t` is the newest time
  }

  // Behavior events never escalate: the escalation sketches exist to cut
  // the ship latency of keys that might cross a flood/DRDoS threshold, and
  // hotness only affects ship latency, never which events ship — profile
  // scoring happens solely on the coordinator after the ordered replay.
  const Vids::AggregateKind kind = event.kind;
  if (kind != Vids::AggregateKind::kUnsolicitedResponse &&
      kind != Vids::AggregateKind::kInviteRequest) {
    return;
  }

  // Sliding sketch: record the key's last `share` event times; when all of
  // them (including this one) fall inside one window-span, escalate.
  const bool invite = kind == Vids::AggregateKind::kInviteRequest;
  auto& sketches = invite ? a.invite_sketch : a.drdos_sketch;
  const size_t share =
      static_cast<size_t>(invite ? esc_invite_share_ : esc_drdos_share_);
  const int64_t window_ns = (invite ? config_.detection.invite_flood_window
                                    : config_.detection.drdos_window)
                                .nanos();
  auto it = sketches.find(event.key);
  if (it == sketches.end()) {
    it = sketches.emplace(event.key, AggSketch{}).first;
  }
  AggSketch& s = it->second;
  s.last_event_ns = t;
  if (s.hot) return;
  if (s.recent.size() != share) s.recent.assign(share, INT64_MIN);
  s.recent[s.next] = t;
  s.next = (s.next + 1) % share;
  // After the insert, recent[next] is the oldest of the stored `share`
  // times; all of them within (t - window, t] means the local count alone
  // could be part of a globally over-threshold window.
  const int64_t oldest = s.recent[s.next];
  if (oldest == INT64_MIN || oldest <= t - window_ns) return;
  s.hot = true;
  ++a.hot_keys;
  PushUp(shard, [&](UpMsg& up) {
    up.kind = UpMsg::Kind::kAggHot;
    up.when_ns = t;
    up.agg.kind = kind;
    up.agg.key.assign(event.key);
  });
}

void ShardedIds::ShipAggPrefix(Shard& shard, int64_t horizon) {
  AggLocal& a = shard.agg;
  while (a.begin < a.end && a.buf[a.begin].when.nanos() <= horizon) {
    const Vids::AggregateEvent& e = a.buf[a.begin];
    PushUp(shard, [&](UpMsg& up) {
      up.kind = UpMsg::Kind::kAgg;
      up.when_ns = e.when.nanos();
      up.agg = e;  // assignment reuses the slot's string capacities
    });
    ++a.begin;
    ++a.events_shipped;
  }
  if (a.begin == a.end) {
    a.begin = 0;
    a.end = 0;
  }
}

void ShardedIds::PruneAggSketches(Shard& shard, int64_t now_ns) {
  // A sketch idle past the keyed horizon can restart cold (hot keys cool
  // down — hotness only affects ship latency, never which events ship, so
  // cooling is always safe).
  const int64_t idle_ns = config_.detection.keyed_idle_timeout.nanos();
  const auto prune = [&](StringKeyed<AggSketch>& sketches) {
    std::erase_if(sketches, [&](const auto& kv) {
      const AggSketch& s = kv.second;
      if (now_ns - s.last_event_ns <= idle_ns) return false;
      if (s.hot) --shard.agg.hot_keys;
      return true;
    });
  };
  prune(shard.agg.invite_sketch);
  prune(shard.agg.drdos_sketch);
}

bool ShardedIds::LanesQuiescent(Shard& shard, int64_t barrier_ns) {
  for (size_t p = 0; p < shard.lanes.size(); ++p) {
    // Frontier first (acquire), then the emptiness re-check: everything
    // the frontier vouches for was committed before its release store, so
    // "frontier past the barrier AND lane empty" proves nothing at or
    // before the barrier is still in flight on this lane.
    if (ports_[p]->frontier_.load(std::memory_order_acquire) < barrier_ns) {
      return false;
    }
    if (shard.lanes[p]->ring.FrontN(1) != 0) return false;
  }
  return true;
}

void ShardedIds::ProcessLaneMsg(Shard& shard, Lane& lane, size_t at,
                                ShardMsg& msg, net::Datagram& scratch,
                                int64_t& watermark) {
  const sim::Time when = sim::Time::FromNanos(msg.when_ns);
  if (msg.kind == ShardMsg::Kind::kPacket) {
    // Sampled span: note the dequeue time and post the enqueue time where
    // the alert callback can see it. Unsampled packets (and the
    // sampling-off configuration) take one never-true branch.
    const int64_t span_t0 = msg.span_enqueue_ns;
    int64_t span_dequeue = 0;
    if (span_t0 != 0) {
      span_dequeue = obs::MonotonicNanos();
      shard.span_open_enqueue_ns = span_t0;
    }
    scratch.src = msg.dgram.src;
    scratch.dst = msg.dgram.dst;
    scratch.kind = msg.dgram.kind;
    scratch.padding_bytes = msg.dgram.padding_bytes;
    scratch.sent_time = msg.dgram.sent_time;
    scratch.id = msg.dgram.id;
    if (msg.in_arena) {
      // The payload bytes live in the lane's arena slot (same index as the
      // ring slot) — one contiguous slab the producer memcpy'd into.
      scratch.payload.assign(lane.arena.Slot(lane.ring.ConsumerIndex(at)),
                             msg.arena_len);
    } else {
      // Oversized payload took the slot-string path. Swap, don't copy: the
      // slot inherits the scratch's warm buffer for the producer's next
      // assign.
      scratch.payload.swap(msg.dgram.payload);
    }
    // Advance this shard's private clock so detection timers (flood
    // windows, RTCP grace, sweeps) fire exactly as in the single engine:
    // all events <= `when` run before the packet is inspected, matching
    // the scheduler's timer-before-same-time-packet order.
    AdvanceShardClock(shard, when);
    shard.vids->Inspect(scratch, msg.from_outside);
    if (span_t0 != 0) {
      RecordSpan(shard, span_t0, span_dequeue);
      shard.span_open_enqueue_ns = 0;
    }
    watermark = std::max(watermark, msg.when_ns);
  } else {  // kRetractMedia
    AdvanceShardClock(shard, when);
    // This shard lost ownership of the endpoint: drop both the media index
    // binding and the per-endpoint keyed counters, so exactly one shard
    // counts the stream from the claim onward. Retracting an endpoint this
    // shard never bound is a no-op, which is what makes the stale-claim
    // double edges of MediaOwnerTable::ApplyClaim idempotent.
    shard.vids->fact_base().RetractMedia(msg.endpoint);
    shard.vids->fact_base().DropMediaKeyedGroup(msg.endpoint);
    watermark = std::max(watermark, msg.when_ns);
  }
}

void ShardedIds::WorkerLoop(Shard& shard) {
  net::Datagram scratch;
  common::SpinBackoff backoff;
  const size_t batch_max = config_.batch_max;
  const int64_t hold_ns = config_.agg_hold.nanos();
  // Heartbeats only exist for the watchdog; the disabled configuration
  // (BM_ShardedIngest's pinned hot path) never reads the wall clock here.
  const bool heartbeat = watchdog_threshold_ns_ > 0;
  const size_t lanes_n = shard.lanes.size();
  std::vector<size_t> avail(lanes_n, 0);
  std::vector<size_t> taken(lanes_n, 0);
  int64_t watermark = 0;
  bool stopping = false;
  while (!stopping) {
    bool progress = false;
    int stall_lane = -1;

    // ---- control lane: barriers, hot-key broadcasts, test wedges ----
    while (ShardMsg* ctl = shard.down.Front()) {
      if (ctl->kind == ShardMsg::Kind::kAggHot) {
        // Some shard escalated this key: bypass the hold locally too, so
        // this shard's frontier keeps pace and the coordinator's merged
        // replay of the hot key is not gated on our cold buffer.
        const bool invite = ctl->agg == Vids::AggregateKind::kInviteRequest;
        auto& sketches =
            invite ? shard.agg.invite_sketch : shard.agg.drdos_sketch;
        auto it = sketches.find(ctl->key);
        if (it == sketches.end()) {
          it = sketches.emplace(ctl->key, AggSketch{}).first;
        }
        AggSketch& s = it->second;
        if (!s.hot) {
          s.hot = true;
          ++shard.agg.hot_keys;
        }
        s.last_event_ns = std::max(s.last_event_ns, ctl->when_ns);
        shard.down.Pop();
        progress = true;
        continue;
      }
      if (ctl->kind == ShardMsg::Kind::kWedge) {
        // Deliberate stall (tests): sleep before retiring the message. The
        // control lane stays non-empty and the heartbeat store below is
        // not reached — exactly the state the watchdog must detect, with
        // waiting_on_lane still -1 (a wedged WORKER, not a producer).
        while (shard.wedged.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        shard.down.Pop();
        progress = true;
        continue;
      }
      // kFlush / kStop: barriers logically ORDERED AFTER every ingest-lane
      // message — honor them only once every lane is drained and every
      // producer frontier has passed the barrier (Flush()/Stop() force the
      // frontiers forward under the quiescent-ports contract).
      const int64_t barrier =
          ctl->kind == ShardMsg::Kind::kFlush ? ctl->when_ns : INT64_MAX;
      if (!LanesQuiescent(shard, barrier)) break;
      if (ctl->kind == ShardMsg::Kind::kFlush) {
        AdvanceShardClock(shard, sim::Time::FromNanos(ctl->when_ns));
        // The barrier promises every aggregate event up to `when` is
        // replayable: ship the whole staging buffer before the ack.
        ShipAggPrefix(shard, INT64_MAX);
        PruneAggSketches(shard, ctl->when_ns);
        PushUp(shard, [&](UpMsg& up) {
          up.kind = UpMsg::Kind::kFlushAck;
          up.when_ns = ctl->when_ns;
          up.token = ctl->token;
        });
        watermark = std::max(watermark, ctl->when_ns);
        shard.down.Pop();
        progress = true;
        continue;
      }
      // kStop: final ship so Stop()'s terminal replay sees every event.
      ShipAggPrefix(shard, INT64_MAX);
      stopping = true;
      shard.down.Pop();
      progress = true;
      break;
    }

    // ---- ingest lanes: (when, seq)-ordered merge across producers ----
    size_t consumed = 0;
    if (!stopping) {
      for (size_t p = 0; p < lanes_n; ++p) {
        avail[p] = shard.lanes[p]->ring.FrontN(batch_max);
        taken[p] = 0;
      }
      while (consumed < batch_max) {
        // Minimal (when, seq) over the lanes' unconsumed fronts. seq is a
        // global arrival number, so this reproduces the single-producer
        // delivery order exactly.
        size_t best = lanes_n;
        int64_t best_when = 0;
        uint64_t best_seq = 0;
        for (size_t p = 0; p < lanes_n; ++p) {
          if (taken[p] >= avail[p]) continue;
          const ShardMsg& m = shard.lanes[p]->ring.At(taken[p]);
          if (best == lanes_n || m.when_ns < best_when ||
              (m.when_ns == best_when && m.seq < best_seq)) {
            best = p;
            best_when = m.when_ns;
            best_seq = m.seq;
          }
        }
        if (best == lanes_n) break;  // every lane visibly empty
        // A visibly-empty lane may still hold an earlier message: avail[]
        // is a batch-start snapshot, and the frontier's promise covers
        // only FUTURE pushes (strictly later than f) — never commits that
        // landed since the snapshot. So for every exhausted lane, load
        // the frontier first (acquire — every commit it vouches for is
        // visible after this), then ALWAYS re-read the ring. New arrivals
        // re-enter the pick; only a fresh empty verdict makes the vouch
        // sound, and a fresh-empty lane whose frontier is still short of
        // the candidate gates the merge.
        bool gated = false;
        bool refreshed = false;
        for (size_t p = 0; p < lanes_n; ++p) {
          if (taken[p] < avail[p]) continue;
          const int64_t f =
              ports_[p]->frontier_.load(std::memory_order_acquire);
          const size_t now_avail = shard.lanes[p]->ring.FrontN(batch_max);
          if (now_avail > taken[p]) {
            avail[p] = now_avail;
            refreshed = true;
          } else if (best_when > f) {
            stall_lane = static_cast<int>(p);
            gated = true;
            break;
          }
        }
        if (gated) break;
        if (refreshed) continue;  // re-pick including the new arrivals
        Lane& lane = *shard.lanes[best];
        ProcessLaneMsg(shard, lane, taken[best], lane.ring.At(taken[best]),
                       scratch, watermark);
        ++taken[best];
        ++consumed;
      }
      for (size_t p = 0; p < lanes_n; ++p) {
        if (taken[p] != 0) shard.lanes[p]->ring.PopN(taken[p]);
      }
    }

    if (consumed != 0 || progress) {
      if (!stopping && shard.agg.live() != 0) {
        // Cold events age out after agg_hold; while any key is hot the
        // whole buffer ships every batch so replay tracks the frontier.
        ShipAggPrefix(shard, shard.agg.hot_keys > 0 ? watermark
                                                    : watermark - hold_ns);
      }
      // Worker-owned plain metric fields must be written before the commit
      // below: the coordinator reads `shard.pipeline` after acquiring the
      // flush ack published by this very batch.
      if (consumed != 0) {
        shard.batch_consumed->Record(static_cast<int64_t>(consumed));
      }
      // One release store publishes every upstream message of this round
      // (alerts, aggregate ships, escalations, acks) ...
      shard.up.CommitPushN();
      // ... then the frontiers. agg_complete first: the events it vouches
      // for are already committed above, so an acquire read that observes
      // the new frontier also observes them in the ring (DESIGN.md §12).
      const int64_t agg_complete =
          shard.agg.live() == 0
              ? watermark
              : shard.agg.buf[shard.agg.begin].when.nanos() - 1;
      shard.agg_complete_ns.store(agg_complete, std::memory_order_release);
      shard.processed_ns.store(watermark, std::memory_order_release);
      // Heartbeat last: it vouches for the whole retired round. A worker
      // that wedges or blocks mid-batch never reaches this store.
      if (heartbeat) {
        shard.last_progress_ns.store(obs::MonotonicNanos(),
                                     std::memory_order_release);
      }
      shard.waiting_on_lane.store(-1, std::memory_order_relaxed);
      backoff.Reset();
    } else {
      // No work retired. Publish what (if anything) the merge is blocked
      // on so the watchdog can tell a stalled producer from a stalled
      // worker, and back off.
      shard.waiting_on_lane.store(stall_lane, std::memory_order_relaxed);
      backoff.Pause();
    }
  }
  // After this store no further up-messages are pushed; Stop() drains
  // until every worker has raised it, then joins.
  shard.done.store(true, std::memory_order_release);
}

void ShardedIds::AdvanceShardClock(Shard& shard, sim::Time when) {
  sim::Scheduler& scheduler = *shard.scheduler;
  if (when <= scheduler.Now()) return;
  if (watchdog_threshold_ns_ == 0) {
    scheduler.RunUntil(when);
    return;
  }
  // Catch-up slicing. A capture gap (idle tap, faster-than-real-time
  // pcap/trace replay) can put hours of simulated time between two ring
  // messages, and every sweep/timer inside the gap runs here — mid-batch,
  // before the post-batch heartbeat store is reached. One monolithic
  // RunUntil would freeze the heartbeat for the whole catch-up and let the
  // watchdog mis-score genuine progress as a wedged worker. So the minutes
  // in which timers are due run one at a time, each followed by both
  // progress signals: the wall-clock heartbeat and the source-time
  // frontier (processed_ns), which WatchdogCheck uses to re-anchor open
  // episodes. Stretches with nothing due are crossed in one jump, so a
  // fresh worker reaching a capture's epoch timestamps does O(1) work.
  constexpr sim::Duration kSlice = sim::Duration::Seconds(60);
  // Events are never scheduled in the past, so `next` >= Now().
  sim::Time next = scheduler.NextEventTime();
  while (next < when && when - next > kSlice) {
    scheduler.RunUntil(next + kSlice);
    shard.processed_ns.store(scheduler.Now().nanos(),
                             std::memory_order_release);
    shard.last_progress_ns.store(obs::MonotonicNanos(),
                                 std::memory_order_release);
    next = scheduler.NextEventTime();
  }
  scheduler.RunUntil(when);
}

// ----------------------------------------------------- producer-side routing

void ShardedIds::PublishFrontier(IngestPort& port, int64_t candidate_ns) {
  // Strict semantics: frontier F promises every future committed message
  // has when_ns > F. A port that has seen (or promised) nothing earlier
  // than `candidate` may publish candidate − 1 — it might still push AT
  // candidate. INT64_MAX is terminal (Close/Stop).
  const int64_t f =
      candidate_ns == INT64_MAX ? INT64_MAX : candidate_ns - 1;
  if (f > port.frontier_.load(std::memory_order_relaxed)) {
    port.frontier_.store(f, std::memory_order_release);
  }
}

int ShardedIds::ShardOfCallId(std::string_view call_id) const {
  return static_cast<int>(Fnv1a(call_id) % shards_.size());
}

int ShardedIds::HashShardOfEndpoint(uint64_t packed_key) const {
  return static_cast<int>(SplitMix64(packed_key) % shards_.size());
}

int ShardedIds::RouteEndpoint(IngestPort& port, const net::Endpoint& endpoint,
                              int64_t when_ns, uint64_t seq) {
  // Under the claim-ordered ingest contract every claim sequenced before
  // this packet is already in the table; the seq-keyed lookup filters out
  // any later-sequenced claim another producer applied early, so the
  // answer is exactly the single-producer one.
  bool pre_history = false;
  const int owner =
      owner_table_->OwnerAt(endpoint.PackedKey(), when_ns, seq, pre_history);
  if (owner >= 0) {
    port.m_owner_routed_->Inc();
    return owner;
  }
  // Pre-history: the entry exists but both recorded claim eras postdate
  // this packet (>2 claims landed between this packet's arrival and its
  // routing) — the bounded slow path; the packet hash-routes like
  // unnegotiated media.
  if (pre_history) port.m_route_escalations_->Inc();
  port.m_hash_routed_->Inc();
  return HashShardOfEndpoint(endpoint.PackedKey());
}

void ShardedIds::SnoopSdp(IngestPort& port, std::string_view body, int shard,
                          int64_t when_ns, uint64_t seq) {
  // Line scan for "c=... <ip>" / "m=audio <port>". This mirrors what the
  // shard-side classifier will extract; the router only needs the endpoint
  // → shard binding, not a full SDP model.
  std::optional<net::IpAddress> ip;
  size_t pos = 0;
  while (pos <= body.size()) {
    const size_t eol = body.find('\n', pos);
    std::string_view line =
        body.substr(pos, (eol == std::string_view::npos ? body.size() : eol) -
                             pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.size() > 2 && line[0] == 'c' && line[1] == '=') {
      // "c=IN IP4 10.0.0.1" — the address is the last token.
      const size_t sp = line.rfind(' ');
      if (sp != std::string_view::npos) {
        ip = net::IpAddress::Parse(line.substr(sp + 1));
      }
    } else if (line.rfind("m=audio ", 0) == 0) {
      uint32_t media_port = 0;
      for (size_t i = 8; i < line.size() && line[i] >= '0' && line[i] <= '9';
           ++i) {
        media_port = media_port * 10 + static_cast<uint32_t>(line[i] - '0');
        if (media_port > 65535) break;
      }
      if (ip.has_value() && media_port > 0 && media_port <= 65535) {
        const net::Endpoint endpoint{*ip,
                                     static_cast<uint16_t>(media_port)};
        const uint64_t key = endpoint.PackedKey();
        const int hash_shard = HashShardOfEndpoint(key);
        // Apply the claim to the shared table; whatever ownership edges it
        // creates (first-claim early retract, renegotiation handover, or
        // the double edge of a stale claim another producer outran) ride
        // THIS port's lanes at THIS packet's (when, seq) — the worker's
        // merge orders them exactly where the claim sits in the global
        // arrival order, and a retract for an endpoint a shard never bound
        // is a no-op, so every losing shard is retracted exactly once.
        const MediaOwnerTable::ClaimResult r =
            owner_table_->ApplyClaim(key, shard, when_ns, seq, hash_shard);
        if (r.dropped_stale) port.m_stale_claims_->Inc();
        for (int e = 0; e < r.edge_count; ++e) {
          const MediaOwnerTable::RetractEdge edge = r.edges[e];
          if (edge.early) {
            port.m_early_retracts_->Inc();
          } else {
            port.m_retracts_->Inc();
          }
          PushLane(port, edge.shard, [&](ShardMsg& msg, Lane&, size_t) {
            msg.kind = ShardMsg::Kind::kRetractMedia;
            msg.when_ns = when_ns;
            msg.seq = seq;
            msg.endpoint = endpoint;
          });
        }
      }
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
}

template <typename Fill>
void ShardedIds::PushLane(IngestPort& port, int shard_index, Fill&& fill) {
  Lane& lane =
      *shards_[static_cast<size_t>(shard_index)]->lanes[static_cast<size_t>(
          port.index_)];
  // The arena slot paired with the slot BeginPushN hands out. Stable across
  // the backpressure commit below (committing does not move tail+pending).
  const size_t slot_index = lane.ring.ProducerNextIndex();
  ShardMsg* slot = lane.ring.BeginPushN();
  if (slot == nullptr) {
    // Backpressure, not loss. Publish this port's open batches (the worker
    // can only drain what it can see — and the commit lets the frontier
    // advance so other producers' gates and the merges keep moving), then
    // wait for room. The coordinator-thread port drains upstream while it
    // waits, exactly the PR 5 rule that keeps the ring cycle deadlock-free;
    // detached producer threads back off and rely on the driver pumping.
    CommitPortLanes(port, FlushReason::kFull);
    common::SpinBackoff backoff;
    do {
      port.m_stalls_->Inc();
      ++port.lane_stalls_[static_cast<size_t>(shard_index)];
      if (port.inline_drain_) {
        DrainUp();
        std::this_thread::yield();
      } else {
        backoff.Pause();
      }
      slot = lane.ring.BeginPushN();
    } while (slot == nullptr);
  }
  fill(*slot, lane, slot_index);
  // Track the open batch's earliest message time: the frontier may not
  // pass an uncommitted (worker-invisible) message.
  if (port.lane_open_ns_[static_cast<size_t>(shard_index)] == INT64_MAX) {
    port.lane_open_ns_[static_cast<size_t>(shard_index)] = slot->when_ns;
    port.open_min_ns_ = std::min(port.open_min_ns_, slot->when_ns);
  }
  if (const auto depth = static_cast<uint64_t>(lane.ring.SizeFromProducer());
      depth > port.lane_hwm_[static_cast<size_t>(shard_index)]) {
    port.lane_hwm_[static_cast<size_t>(shard_index)] = depth;
  }
  if (lane.ring.open_push() >= config_.batch_max) {
    port.m_batch_committed_->Record(
        static_cast<int64_t>(lane.ring.open_push()));
    port.m_flush_full_->Inc();
    lane.ring.CommitPushN();
    port.lane_open_ns_[static_cast<size_t>(shard_index)] = INT64_MAX;
    port.open_min_ns_ = MinOf(port.lane_open_ns_);
    PublishFrontier(port,
                    std::min(port.open_min_ns_, port.last_when_ns_));
  }
}

void ShardedIds::CommitPortLanes(IngestPort& port, FlushReason reason) {
  obs::Counter* flush_reason = port.m_flush_barrier_;
  switch (reason) {
    case FlushReason::kFull: flush_reason = port.m_flush_full_; break;
    case FlushReason::kDeadline: flush_reason = port.m_flush_deadline_; break;
    case FlushReason::kBarrier: break;
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    common::SpscRing<ShardMsg>& ring =
        shards_[s]->lanes[static_cast<size_t>(port.index_)]->ring;
    if (const size_t open = ring.open_push(); open != 0) {
      port.m_batch_committed_->Record(static_cast<int64_t>(open));
      flush_reason->Inc();
      ring.CommitPushN();
    }
    port.lane_open_ns_[s] = INT64_MAX;
  }
  port.open_min_ns_ = INT64_MAX;
  port.deadline_armed_ = false;
  PublishFrontier(port, port.last_when_ns_);
}

void ShardedIds::PortDeadlineCheck(IngestPort& port, int64_t when_ns) {
  // Bounded-latency flush: a partial batch is published once it has been
  // open for batch_flush_us, enforced in both clock domains — source time
  // first (an integer compare, no clock read), then wall clock — so a
  // faster-than-real-time replay cannot hold a pre-gap packet unpublished
  // while the stream's own clock races far past it. The batch_max == 1
  // configuration commits in PushLane and never touches either clock.
  if (config_.batch_max <= 1) return;
  if (port.open_min_ns_ == INT64_MAX) {
    port.deadline_armed_ = false;
    return;
  }
  if (!port.deadline_armed_) {
    port.deadline_armed_ = true;
    port.deadline_since_ = std::chrono::steady_clock::now();
    port.deadline_src_ns_ = when_ns;
    return;
  }
  if (when_ns - port.deadline_src_ns_ >= config_.batch_flush_us * 1000 ||
      std::chrono::steady_clock::now() - port.deadline_since_ >=
          std::chrono::microseconds(config_.batch_flush_us)) {
    CommitPortLanes(port, FlushReason::kDeadline);
  }
}

bool ShardedIds::CarriesClaims(const net::Datagram& dgram,
                               sip::LazyMessage& scratch) {
  // Same dispatch test as IngestOn below: not RTCP-foldable, not a trusted
  // RTP hint, and the lazy SIP parser accepts it.
  if (rtp::LooksLikeRtcp(dgram.payload) && dgram.dst.port >= 1) return false;
  return dgram.kind != net::PayloadKind::kRtp && scratch.Index(dgram.payload);
}

void ShardedIds::IngestOn(IngestPort& port, const net::Datagram& dgram,
                          bool from_outside, sim::Time when, uint64_t seq) {
  if (workers_joined_ || port.closed_) return;  // stopped engines drop quietly
  const int64_t when_ns = when.nanos();
  port.last_when_ns_ = std::max(port.last_when_ns_, when_ns);
  port.last_when_pub_.store(port.last_when_ns_, std::memory_order_relaxed);

  // Replicate the classifier's dispatch order (classifier.cpp) so the
  // router and the shard-side classifier agree on what a packet is:
  // RTCP sniff first, then the hint-ordered SIP attempt, then endpoint
  // routing for RTP and everything else. The kSip-vs-content check is
  // byte-accurate (the same lazy parser); the kRtp hint is trusted — a
  // payload labeled RTP never reaches the SIP router, which is exactly the
  // classifier's behavior for parseable RTP.
  int target;
  if (rtp::LooksLikeRtcp(dgram.payload) && dgram.dst.port >= 1) {
    // Fold RTCP onto its media endpoint (port − 1) so the control and media
    // halves of one stream meet on one shard, as in Vids::HandleRtcp.
    const net::Endpoint media{dgram.dst.ip,
                              static_cast<uint16_t>(dgram.dst.port - 1)};
    target = RouteEndpoint(port, media, when_ns, seq);
  } else if (dgram.kind != net::PayloadKind::kRtp &&
             port.lazy_.Index(dgram.payload)) {
    const auto call_id = port.lazy_.CallId();
    target = ShardOfCallId(call_id.value_or(std::string_view()));
    port.m_sip_routed_->Inc();
    if (call_id.has_value() && !port.lazy_.body().empty()) {
      SnoopSdp(port, port.lazy_.body(), target, when_ns, seq);
    }
  } else {
    target = RouteEndpoint(port, dgram.dst, when_ns, seq);
  }

  // Span sampling: one in trace_sample_period packets (per port) gets its
  // enqueue wall time stamped into the slot; the worker closes the span.
  // With sampling off this is a single always-false branch — no clock read.
  int64_t span_ns = 0;
  if (trace_on_ && ((++port.trace_tick_ & trace_mask_) == 0)) {
    span_ns = obs::MonotonicNanos();
  }

  PushLane(port, target, [&](ShardMsg& msg, Lane& lane, size_t slot_index) {
    msg.kind = ShardMsg::Kind::kPacket;
    msg.when_ns = when_ns;
    msg.seq = seq;
    msg.span_enqueue_ns = span_ns;  // always assigned: slots are reused
    msg.from_outside = from_outside;
    msg.dgram.src = dgram.src;
    msg.dgram.dst = dgram.dst;
    msg.dgram.kind = dgram.kind;
    msg.dgram.padding_bytes = dgram.padding_bytes;
    msg.dgram.sent_time = dgram.sent_time;
    msg.dgram.id = dgram.id;
    if (lane.arena.Fits(dgram.payload.size())) {
      // Fast path: payload bytes go to the lane's contiguous slab; the
      // slot's own string is left untouched (its stale bytes are dead —
      // arena_len is the source of truth).
      lane.arena.Store(slot_index, dgram.payload.data(),
                       dgram.payload.size());
      msg.in_arena = true;
      msg.arena_len = static_cast<uint32_t>(dgram.payload.size());
    } else {
      msg.in_arena = false;
      msg.arena_len = 0;
      msg.dgram.payload.assign(dgram.payload);  // reuses the slot's capacity
    }
  });

  PortDeadlineCheck(port, when_ns);

  if (port.inline_drain_) {
    // Coordinator-thread port (single-producer engines): keep the legacy
    // bookkeeping and the opportunistic upstream drain so alerts surface
    // and the aggregate replay keeps pace without explicit Pump() calls.
    last_ingest_ns_ = std::max(last_ingest_ns_, when_ns);
    if ((++ingest_count_ & 31U) == 0) DrainUp();
  }
}

void ShardedIds::PortHeartbeat(IngestPort& port, sim::Time when) {
  if (port.closed_ || workers_joined_) return;
  port.last_when_ns_ = std::max(port.last_when_ns_, when.nanos());
  port.last_when_pub_.store(port.last_when_ns_, std::memory_order_relaxed);
  PortDeadlineCheck(port, port.last_when_ns_);
  PublishFrontier(port, std::min(port.open_min_ns_, port.last_when_ns_));
}

void ShardedIds::PortClose(IngestPort& port) {
  if (port.closed_) return;
  CommitPortLanes(port, FlushReason::kBarrier);
  port.closed_ = true;
  PublishFrontier(port, INT64_MAX);
}

void ShardedIds::Ingest(const net::Datagram& dgram, bool from_outside,
                        sim::Time when) {
  IngestPort& p0 = *ports_[0];
  IngestOn(p0, dgram, from_outside, when, p0.auto_seq_++);
}

// ------------------------------------------------------------ coordinator

template <typename Fill>
void ShardedIds::PushDown(int shard_index, Fill&& fill) {
  Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  ShardMsg* slot = shard.down.BeginPushN();
  if (slot == nullptr) {
    // Backpressure, not loss. Publish the open batch (the worker can only
    // drain what it can see) and keep draining the up-rings while waiting
    // so a worker blocked pushing alerts upstream can make progress — this
    // pair of rules is what makes the ring cycle deadlock-free.
    if (const size_t open = shard.down.open_push(); open != 0) {
      m_batch_committed_->Record(static_cast<int64_t>(open));
      m_flush_full_->Inc();
    }
    shard.down.CommitPushN();
    do {
      ++shard.down_stalls;
      DrainUp();
      std::this_thread::yield();
      slot = shard.down.BeginPushN();
    } while (slot == nullptr);
  }
  fill(*slot);
  if (const auto depth = static_cast<uint64_t>(shard.down.SizeFromProducer());
      depth > shard.down_hwm) {
    shard.down_hwm = depth;
  }
  if (shard.down.open_push() >= config_.batch_max) {
    m_batch_committed_->Record(static_cast<int64_t>(shard.down.open_push()));
    m_flush_full_->Inc();
    shard.down.CommitPushN();
  }
}

void ShardedIds::CommitAllDown(FlushReason reason) {
  obs::Counter* flush_reason =
      reason == FlushReason::kFull ? m_flush_full_ : m_flush_barrier_;
  for (auto& shard : shards_) {
    if (const size_t open = shard->down.open_push(); open != 0) {
      m_batch_committed_->Record(static_cast<int64_t>(open));
      flush_reason->Inc();
      shard->down.CommitPushN();
    }
  }
}

int64_t ShardedIds::LatestIngestNs() const {
  int64_t t = last_ingest_ns_;
  for (const auto& port : ports_) {
    t = std::max(t, port->last_when_pub_.load(std::memory_order_relaxed));
  }
  return t;
}

void ShardedIds::Pump() {
  // Only the coordinator-thread port's open batches may be committed from
  // here — the other ports' producer-side ring state belongs to their
  // threads (Flush/Stop may touch it, under the quiescence contract).
  if (ports_[0]->inline_drain_) {
    CommitPortLanes(*ports_[0], FlushReason::kBarrier);
  }
  CommitAllDown(FlushReason::kBarrier);
  DrainUp();
}

void ShardedIds::WatchdogCheck() {
  if (watchdog_threshold_ns_ == 0 || workers_joined_) return;
  const int64_t now = obs::MonotonicNanos();
  if (now - last_watchdog_check_ns_ < watchdog_poll_ns_) return;
  // Episode continuity: an open stall episode only counts toward the
  // deadline while the coordinator itself keeps checking. If *we* went
  // quiet (driver paused between Ingest/Pump calls — a worker blocked in
  // PushUp with a frozen heartbeat is then OUR doing, not a stall), the
  // gap shows up here and every episode re-anchors instead of alerting.
  const bool continuous =
      last_watchdog_check_ns_ != 0 &&
      now - last_watchdog_check_ns_ <= watchdog_threshold_ns_ / 2;
  last_watchdog_check_ns_ = now;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    ShardHealth& h = health_[i];
    size_t depth = shard.down.SizeApprox();
    for (const auto& lane : shard.lanes) depth += lane->ring.SizeApprox();
    const int64_t hb = shard.last_progress_ns.load(std::memory_order_acquire);
    const int64_t src = shard.processed_ns.load(std::memory_order_acquire);
    if (depth == 0) {
      // Nothing pending — an idle worker is healthy however old its
      // heartbeat is (idle-then-burst must not alert).
      h.hb_seen = hb;
      h.src_seen = src;
      h.pending_since_ns = 0;
      h.alerted = false;
      continue;
    }
    if (!continuous || h.pending_since_ns == 0 || hb != h.hb_seen ||
        src != h.src_seen) {
      // Progress since last check (or no episode yet): anchor a fresh
      // episode at the first continuously-observed no-progress instant.
      // Source-reported time counts as progress in its own right: under
      // replay the worker can be busy sweeping a capture gap (or a slice
      // heartbeat may land between our polls), and a worker whose stream
      // clock advances is by definition not wedged.
      h.hb_seen = hb;
      h.src_seen = src;
      h.pending_since_ns = now;
      h.alerted = false;
      continue;
    }
    if (!h.alerted && now - h.pending_since_ns >= watchdog_threshold_ns_) {
      // Pending work, no progress, continuously observed for a full
      // deadline: stalled. One alert per episode, attributed to the
      // producer lane the worker is merge-blocked on when there is one —
      // the worker is alive but starved of a frontier, which is the
      // producer's failure, not the worker's.
      h.alerted = true;
      m_watchdog_stalls_->Inc();
      const int lane = shard.waiting_on_lane.load(std::memory_order_relaxed);
      Alert alert;
      alert.when = sim::Time::FromNanos(LatestIngestNs());
      alert.kind = AlertKind::kEngineHealth;
      alert.machine = "watchdog";
      alert.state = "stalled";
      alert.detail = "ring_depth=" + std::to_string(depth) + " stalled_ms=" +
                     std::to_string((now - h.pending_since_ns) / 1'000'000);
      if (lane >= 0) {
        m_watchdog_producer_stalls_->Inc();
        alert.classification = std::string(kEngineProducerStall);
        alert.group = "producer|" + std::to_string(lane);
        alert.detail += " shard=" + std::to_string(i);
        alert.trigger =
            "watchdog: worker merge-blocked on an ingest lane whose "
            "producer frontier stopped advancing past the stall deadline";
      } else {
        alert.classification = std::string(kEngineWorkerStall);
        alert.group = "shard|" + std::to_string(i);
        alert.trigger =
            "watchdog: shard rings non-empty with no worker progress past "
            "the stall deadline";
      }
      EmitAlert(std::move(alert));
    }
  }
}

void ShardedIds::DrainUp() {
  WatchdogCheck();
  // Snapshot the replay frontier BEFORE draining. A shard commits every
  // aggregate event it vouches for (release through the ring) before it
  // publishes agg_complete_ns (release), so an acquire load of
  // agg_complete_ns >= T guarantees those events are already in the ring
  // and land in pending_ below. Loading the frontier after the drain
  // instead would let an event committed mid-drain sit at-or-before a
  // fresher frontier while missing from pending_ — and a later-timestamped
  // event from another shard would replay ahead of it, out of order.
  int64_t frontier = INT64_MAX;
  for (const auto& shard : shards_) {
    frontier = std::min(
        frontier, shard->agg_complete_ns.load(std::memory_order_acquire));
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    for (;;) {
      const size_t n = shard.up.FrontN(config_.batch_max);
      if (n == 0) break;
      for (size_t j = 0; j < n; ++j) {
        UpMsg& msg = shard.up.At(j);
        switch (msg.kind) {
          case UpMsg::Kind::kAlert:
            EmitAlert(msg.alert);  // copies; the slot keeps its buffers
            break;
          case UpMsg::Kind::kAgg:
            m_agg_events_->Inc();
            pending_[i].push_back(msg.agg);
            break;
          case UpMsg::Kind::kAggHot: {
            m_escalations_->Inc();
            auto& hot = msg.agg.kind == Vids::AggregateKind::kInviteRequest
                            ? hot_invite_
                            : hot_drdos_;
            auto it = hot.find(msg.agg.key);
            if (it == hot.end()) {
              hot.emplace(msg.agg.key, msg.when_ns);
              hot_pending_.push_back(
                  HotBroadcast{msg.agg.kind, msg.agg.key, msg.when_ns});
            } else {
              it->second = std::max(it->second, msg.when_ns);
            }
            break;
          }
          case UpMsg::Kind::kFlushAck:
            if (msg.token == flush_token_) ++flush_acks_;
            break;
        }
      }
      shard.up.PopN(n);
    }
  }
  ReplayAggregates(frontier);
  BroadcastHotKeys();
}

void ShardedIds::BroadcastHotKeys() {
  // Not while stopping: a worker past its kStop never drains its control
  // lane, so a push into a full one would wait forever. (The events behind
  // the escalation still replay — Stop()'s terminal drain is ungated.)
  if (broadcasting_ || stopping_ || hot_pending_.empty()) return;
  broadcasting_ = true;
  // Index loop, not iterators: PushDown can hit backpressure and re-enter
  // DrainUp, which may append more escalations; the loop picks them up.
  for (size_t b = 0; b < hot_pending_.size(); ++b) {
    for (int s = 0; s < shards(); ++s) {
      PushDown(s, [&](ShardMsg& msg) {
        const HotBroadcast& hb = hot_pending_[b];  // re-index: DrainUp may
        msg.kind = ShardMsg::Kind::kAggHot;        // have grown the vector
        msg.when_ns = hb.when_ns;
        msg.agg = hb.agg;
        msg.key.assign(hb.key);
      });
    }
  }
  hot_pending_.clear();
  CommitAllDown(FlushReason::kBarrier);
  broadcasting_ = false;
}

void ShardedIds::ReplayAggregates(int64_t frontier) {
  // Safe-replay frontier (snapshotted by the caller before its drain):
  // every shard guarantees all its aggregate events at or before it are
  // already in pending_. Events beyond the frontier wait — a slow or
  // still-buffering shard may yet emit an earlier one. (An event a shard
  // commits after the snapshot can tie the frontier exactly, never
  // undercut it: per-ring times are non-decreasing, a shard's buffer only
  // holds times above its published frontier, and the window counters are
  // order-insensitive within one instant, so a same-instant straggler
  // replayed in a later batch lands on identical state.)
  // K-way merge by event time. Ties across shards are replayed in shard
  // order; the window counters are order-insensitive within one instant
  // (counts and alert times depend only on the multiset of event times).
  for (;;) {
    int best = -1;
    int64_t best_t = INT64_MAX;
    for (size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].empty()) continue;
      const int64_t t = pending_[i].front().when.nanos();
      if (t <= frontier && t < best_t) {
        best_t = t;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    Vids::AggregateEvent event =
        std::move(pending_[static_cast<size_t>(best)].front());
    pending_[static_cast<size_t>(best)].pop_front();
    ReplayOne(event);
  }
}

void ShardedIds::ReplayOne(const Vids::AggregateEvent& event) {
  coord_scheduler_.RunUntil(event.when);
  coord_vids_.FeedAggregate(event);
}

void ShardedIds::EmitAlert(Alert alert) {
  if (alert_callback_) alert_callback_(alert);
  // Ordered insert at the canonical position (see alerts()). Alerts
  // arrive near-sorted — each source's stream is time-ordered — so the
  // upper_bound lands near the back, and the retained history stays small
  // under max_retained_alerts.
  AlertKey key{alert.when.nanos(), alert.ToString()};
  const auto it =
      std::upper_bound(alert_keys_.begin(), alert_keys_.end(), key);
  const auto at = it - alert_keys_.begin();
  alert_keys_.insert(it, std::move(key));
  alerts_.insert(alerts_.begin() + at, std::move(alert));
  if (config_.max_retained_alerts != 0 &&
      alerts_.size() > config_.max_retained_alerts) {
    const auto drop = static_cast<ptrdiff_t>(alerts_.size() / 2);
    alerts_.erase(alerts_.begin(), alerts_.begin() + drop);
    alert_keys_.erase(alert_keys_.begin(), alert_keys_.begin() + drop);
  }
}

void ShardedIds::Flush(sim::Time now) {
  if (workers_joined_) {
    ReplayAggregates(INT64_MAX);
    return;
  }
  m_flushes_->Inc();
  int64_t now_ns = std::max(now.nanos(), last_ingest_ns_);
  for (const auto& port : ports_) {
    now_ns = std::max(now_ns,
                      port->last_when_pub_.load(std::memory_order_relaxed));
  }
  // Quiescent-ports contract: the caller has synchronized with every
  // producer thread, so the coordinator may publish their open batches and
  // force their frontiers past the barrier (the workers' barrier check
  // requires every frontier >= now_ns). Post-flush ingest must carry times
  // strictly after now_ns — PublishFrontier(now_ns + 1) records exactly
  // that promise.
  for (const auto& port : ports_) {
    CommitPortLanes(*port, FlushReason::kBarrier);
    PublishFrontier(*port, now_ns + 1);
  }
  ++flush_token_;
  flush_acks_ = 0;
  for (int i = 0; i < shards(); ++i) {
    PushDown(i, [&](ShardMsg& msg) {
      msg.kind = ShardMsg::Kind::kFlush;
      msg.when_ns = now_ns;
      msg.token = flush_token_;
    });
  }
  CommitAllDown(FlushReason::kBarrier);
  while (flush_acks_ < shards_.size()) {
    DrainUp();
    if (flush_acks_ < shards_.size()) std::this_thread::yield();
  }
  // Every shard acked — but an ack becomes visible with the batch's ring
  // commit, which precedes the shard's frontier store. Wait until every
  // aggregate-complete frontier actually reached now_ns, then the final
  // drain's (snapshot-before-drain) replay covers everything up to it.
  for (;;) {
    int64_t agg_frontier = INT64_MAX;
    for (const auto& shard : shards_) {
      agg_frontier = std::min(
          agg_frontier, shard->agg_complete_ns.load(std::memory_order_acquire));
    }
    if (agg_frontier >= now_ns) break;
    DrainUp();
    std::this_thread::yield();
  }
  DrainUp();
  PruneCoordinator(now_ns);
}

void ShardedIds::PruneCoordinator(int64_t now_ns) {
  // A media-owner entry is refreshed by every RTP hit, so idleness past the
  // shard-side state horizon (tombstone TTL + keyed idle timeout) means no
  // shard still holds state for the endpoint; routing can safely fall back
  // to the hash. (Streams with longer in-stream gaps would re-route — the
  // keyed group they'd rejoin was reclaimed at the 30 s idle timeout
  // anyway, so the fresh-count behavior matches the single engine.) The
  // rebuild requires quiescent readers — Flush()'s contract provides it.
  const int64_t owner_horizon_ns =
      (config_.detection.tombstone_ttl + config_.detection.keyed_idle_timeout)
          .nanos();
  owner_table_->Prune(now_ns, owner_horizon_ns);

  const int64_t idle_ns = config_.detection.keyed_idle_timeout.nanos();
  // Hot-key records age out on the same horizon as the worker sketches, so
  // a key that cools everywhere can re-escalate (and re-broadcast) later.
  const auto prune_hot = [&](StringKeyed<int64_t>& hot) {
    std::erase_if(hot, [&](const auto& kv) {
      return now_ns - kv.second > idle_ns;
    });
  };
  prune_hot(hot_invite_);
  prune_hot(hot_drdos_);
  // Every event up to now_ns is replayed, so the coordinator clock may
  // catch up: window expiries and the fact base's sweep chain run on the
  // same grid instants as inline. Behavior profiles are swept here too,
  // because the coordinator's fact base can be empty — its sweep chain
  // unarmed — while it holds profiles (REGISTER-only traffic). The
  // behavior sweep is memory-only (never scores, never alerts), so its
  // cadence cannot perturb alert equivalence (DESIGN.md §16).
  const sim::Time now = sim::Time::FromNanos(now_ns);
  coord_scheduler_.RunUntil(now);
  coord_vids_.behavior().Sweep(now);
}

void ShardedIds::Stop() {
  if (workers_joined_) return;
  stopping_ = true;  // no more control-lane broadcasts from here on
  // Quiescent-ports contract (as in Flush): publish every port's open
  // batches and raise the frontiers to +inf so the workers' kStop barrier
  // (all lanes drained, all frontiers terminal) can pass.
  for (const auto& port : ports_) {
    CommitPortLanes(*port, FlushReason::kBarrier);
    PublishFrontier(*port, INT64_MAX);
  }
  for (int i = 0; i < shards(); ++i) {
    PushDown(i, [](ShardMsg& msg) { msg.kind = ShardMsg::Kind::kStop; });
  }
  CommitAllDown(FlushReason::kBarrier);
  // A worker with lane backlog keeps emitting up-messages on its way to
  // the kStop and blocks in PushUp if its up-ring fills — so keep draining
  // until every worker has passed its kStop; only then is join()
  // guaranteed to return.
  for (;;) {
    bool all_done = true;
    for (const auto& shard : shards_) {
      if (!shard->done.load(std::memory_order_acquire)) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;
    DrainUp();
    std::this_thread::yield();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  workers_joined_ = true;
  // Workers are gone; ring contents are final (every shard shipped its
  // whole staging buffer at kStop). Drain and replay everything.
  DrainUp();
  ReplayAggregates(INT64_MAX);
}

void ShardedIds::WedgeWorkerForTest(int shard_index) {
  Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  shard.wedged.store(true, std::memory_order_release);
  PushDown(shard_index, [&](ShardMsg& msg) {
    msg.kind = ShardMsg::Kind::kWedge;
    msg.when_ns = LatestIngestNs();
  });
  CommitAllDown(FlushReason::kBarrier);
}

void ShardedIds::UnwedgeWorkerForTest(int shard_index) {
  shards_[static_cast<size_t>(shard_index)]->wedged.store(
      false, std::memory_order_release);
}

// ------------------------------------------------------------- inspection

size_t ShardedIds::CountAlerts(AlertKind kind) const {
  size_t count = 0;
  for (const auto& alert : alerts_) {
    if (alert.kind == kind) ++count;
  }
  return count;
}

size_t ShardedIds::CountAlerts(std::string_view classification) const {
  size_t count = 0;
  for (const auto& alert : alerts_) {
    if (alert.classification == classification) ++count;
  }
  return count;
}

uint64_t ShardedIds::ingest_stalls() const {
  uint64_t total = 0;
  for (const auto& port : ports_) total += port->m_stalls_->value();
  return total;
}

uint64_t ShardedIds::ownership_transfers() const {
  uint64_t total = 0;
  for (const auto& port : ports_) total += port->m_retracts_->value();
  return total;
}

uint64_t ShardedIds::early_media_retracts() const {
  uint64_t total = 0;
  for (const auto& port : ports_) total += port->m_early_retracts_->value();
  return total;
}

uint64_t ShardedIds::route_escalations() const {
  uint64_t total = 0;
  for (const auto& port : ports_) {
    total += port->m_route_escalations_->value();
  }
  return total;
}

obs::MetricsRegistry ShardedIds::MergedMetrics() const {
  obs::MetricsRegistry merged;
  merged.MergeFrom(coord_metrics_);
  // Every port folds bare: same metric names as the PR 5 coordinator's
  // routing counters, so the familiar series stay meaningful — they are
  // now sums over producers.
  for (const auto& port : ports_) merged.MergeFrom(port->metrics_);
  uint64_t up_stalls = 0;
  uint64_t agg_buffered = 0;
  uint64_t agg_shipped = 0;
  std::string prefix;
  std::string lane_prefix;
  for (const auto& shard : shards_) {
    merged.MergeFrom(shard->vids->metrics());
    // Pipeline histograms fold twice: bare (cross-shard aggregate, what
    // the latency table reads) and under "shard.<i>." (the per-shard
    // series the Prometheus exporter turns into shard="<i>" labels).
    merged.MergeFrom(shard->pipeline);
    prefix.assign("shard.");
    prefix.append(std::to_string(shard->index));
    prefix.push_back('.');
    merged.MergeFrom(shard->pipeline, prefix);
    merged.GetGauge(prefix + "ring.down_depth_hwm")
        .Set(static_cast<int64_t>(shard->down_hwm));
    merged.GetGauge(prefix + "ring.up_depth_hwm")
        .Set(static_cast<int64_t>(shard->up_hwm));
    merged.GetCounter(prefix + "ring.down_stalls").Inc(shard->down_stalls);
    merged.GetCounter(prefix + "ring.up_stalls").Inc(shard->up_stalls);
    // Per-lane producer-side series: "shard.<i>.lane.<p>.ring.*" — the
    // exporter renders these with both shard and lane labels.
    for (size_t p = 0; p < ports_.size(); ++p) {
      lane_prefix.assign(prefix);
      lane_prefix.append("lane.");
      lane_prefix.append(std::to_string(p));
      lane_prefix.push_back('.');
      const auto si = static_cast<size_t>(shard->index);
      merged.GetGauge(lane_prefix + "ring.depth_hwm")
          .Set(static_cast<int64_t>(ports_[p]->lane_hwm_[si]));
      merged.GetCounter(lane_prefix + "ring.stalls")
          .Inc(ports_[p]->lane_stalls_[si]);
    }
    up_stalls += shard->up_stalls;
    agg_buffered += shard->agg.events_buffered;
    agg_shipped += shard->agg.events_shipped;
  }
  merged.GetCounter("sharded.worker_stalls").Inc(up_stalls);
  merged.GetCounter("sharded.agg_events_buffered").Inc(agg_buffered);
  merged.GetCounter("sharded.agg_events_shipped").Inc(agg_shipped);
  merged.GetGauge("sharded.shards").Set(shards());
  merged.GetGauge("sharded.producers").Set(producers());
  merged.MergeFrom(coord_vids_.metrics());
  merged.GetGauge("sharded.behavior_profiles")
      .Set(static_cast<int64_t>(behavior().profile_count()));
  return merged;
}

size_t ShardedIds::TrackedState() const {
  const auto tracked = [](const Vids& vids) {
    const CallStateFactBase& fb = vids.fact_base();
    return fb.call_count() + fb.keyed_count() + fb.tombstone_count() +
           fb.media_index_count();
  };
  size_t total = owner_table_->size() + tracked(coord_vids_) +
                 behavior().profile_count();
  for (const auto& shard : shards_) total += tracked(*shard->vids);
  return total;
}

size_t ShardedIds::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& shard : shards_) {
    bytes += shard->vids->fact_base().MemoryBytes();
    bytes += (shard->down.capacity() * sizeof(ShardMsg) +
              shard->up.capacity() * sizeof(UpMsg));
    for (const auto& lane : shard->lanes) {
      bytes += lane->ring.capacity() * sizeof(ShardMsg) +
               lane->arena.MemoryBytes();
    }
    bytes += shard->agg.buf.capacity() * sizeof(Vids::AggregateEvent);
    for (const auto* sketches :
         {&shard->agg.invite_sketch, &shard->agg.drdos_sketch}) {
      for (const auto& [key, sketch] : *sketches) {
        bytes += key.capacity() + sizeof(AggSketch) +
                 sketch.recent.capacity() * sizeof(int64_t);
      }
    }
  }
  bytes += owner_table_->MemoryBytes();
  bytes += coord_vids_.fact_base().MemoryBytes();
  for (const auto* hot : {&hot_invite_, &hot_drdos_}) {
    for (const auto& [key, t] : *hot) bytes += key.capacity() + sizeof(int64_t);
  }
  for (const auto& queue : pending_) {
    bytes += queue.size() * sizeof(Vids::AggregateEvent);
  }
  bytes += behavior().MemoryBytes();
  return bytes;
}

}  // namespace vids::ids
