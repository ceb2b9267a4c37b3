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

}  // namespace

// ------------------------------------------------------------ construction

ShardedIds::ShardedIds(ShardedConfig config)
    : config_(config),
      coord_vids_(coord_scheduler_, config_.detection, config_.cost),
      m_stalls_(&coord_metrics_.GetCounter("sharded.ingest_stalls")),
      m_sip_routed_(&coord_metrics_.GetCounter("sharded.sip_routed")),
      m_owner_routed_(
          &coord_metrics_.GetCounter("sharded.endpoint_owner_routed")),
      m_hash_routed_(
          &coord_metrics_.GetCounter("sharded.endpoint_hash_routed")),
      m_early_retracts_(
          &coord_metrics_.GetCounter("sharded.early_media_retracts")),
      m_retracts_(&coord_metrics_.GetCounter("sharded.ownership_transfers")),
      m_agg_events_(&coord_metrics_.GetCounter("sharded.agg_events")),
      m_flushes_(&coord_metrics_.GetCounter("sharded.flushes")),
      m_watchdog_stalls_(
          &coord_metrics_.GetCounter("sharded.watchdog_stalls")),
      m_flush_full_(&coord_metrics_.GetCounter("pipeline.flush.full")),
      m_flush_deadline_(
          &coord_metrics_.GetCounter("pipeline.flush.deadline")),
      m_flush_barrier_(&coord_metrics_.GetCounter("pipeline.flush.barrier")),
      m_batch_committed_(
          &coord_metrics_.GetHistogram("pipeline.batch.committed")) {
  config_.shards = std::clamp(config_.shards, 1, 255);
  const int n = config_.shards;
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

  pending_.resize(static_cast<size_t>(n));
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>(config_.ring_capacity);
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
        AssignAlert(up.alert, alert);
      });
    });
    // Always hook the aggregate feeds — even with one shard — so the
    // aggregate detectors take the identical (replayed) code path for every
    // shard count. Equivalence across N is then true by construction. The
    // event rides the open up-batch; the worker's end-of-batch commit
    // publishes it together with the batch's alerts.
    shard->vids->set_aggregate_hook(
        [this, sp](const Vids::AggregateEvent& event) {
          PushUp(*sp, [&](UpMsg& up) {
            up.kind = UpMsg::Kind::kAgg;
            up.agg = event;  // assignment reuses the slot's string capacities
          });
        });
    shards_.push_back(std::move(shard));
  }
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
    // up-rings whenever it waits on a full ingest ring and while it waits
    // in Flush()/Stop(), so this cannot deadlock against a blocked
    // Ingest. It can still be a long wait if the driver thread goes
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

void ShardedIds::ProcessPacket(Shard& shard, size_t at, ShardMsg& msg,
                               net::Datagram& scratch) {
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
    // The payload bytes live in the arena slot (same index as the ring
    // slot) — one contiguous slab Ingest memcpy'd into.
    scratch.payload.assign(shard.arena.Slot(shard.ring.ConsumerIndex(at)),
                           msg.arena_len);
  } else {
    // Oversized payload took the slot-string path. Swap, don't copy: the
    // slot inherits the scratch's warm buffer for the next assign.
    scratch.payload.swap(msg.dgram.payload);
  }
  // Advance this shard's private clock so detection timers (flood
  // windows, RTCP grace, sweeps) fire exactly as in the single engine:
  // all events <= `when` run before the packet is inspected, matching
  // the scheduler's timer-before-same-time-packet order.
  AdvanceShardClock(shard, sim::Time::FromNanos(msg.when_ns));
  shard.vids->Inspect(scratch, msg.from_outside);
  if (span_t0 != 0) {
    RecordSpan(shard, span_t0, span_dequeue);
    shard.span_open_enqueue_ns = 0;
  }
}

void ShardedIds::WorkerLoop(Shard& shard) {
  net::Datagram scratch;
  common::SpinBackoff backoff;
  // Heartbeats only exist for the watchdog; the disabled configuration
  // never reads the wall clock here.
  const bool heartbeat = watchdog_threshold_ns_ > 0;
  int64_t watermark = 0;
  bool stopping = false;
  while (!stopping) {
    const size_t n = shard.ring.FrontN(kBatchMax);
    if (n == 0) {
      backoff.Pause();
      continue;
    }
    size_t taken = 0;
    while (taken < n && !stopping) {
      ShardMsg& msg = shard.ring.At(taken);
      switch (msg.kind) {
        case ShardMsg::Kind::kPacket:
          ProcessPacket(shard, taken, msg, scratch);
          watermark = std::max(watermark, msg.when_ns);
          break;
        case ShardMsg::Kind::kRetractMedia:
          AdvanceShardClock(shard, sim::Time::FromNanos(msg.when_ns));
          // This shard lost ownership of the endpoint: drop both the media
          // index binding and the per-endpoint keyed counters, so exactly
          // one shard counts the stream from the claim onward.
          shard.vids->fact_base().RetractMedia(msg.endpoint);
          shard.vids->fact_base().DropMediaKeyedGroup(msg.endpoint);
          watermark = std::max(watermark, msg.when_ns);
          break;
        case ShardMsg::Kind::kFlush:
          // FIFO: every packet ingested before the Flush() is processed.
          AdvanceShardClock(shard, sim::Time::FromNanos(msg.when_ns));
          PushUp(shard, [&](UpMsg& up) {
            up.kind = UpMsg::Kind::kFlushAck;
            up.token = msg.token;
          });
          watermark = std::max(watermark, msg.when_ns);
          break;
        case ShardMsg::Kind::kStop:
          stopping = true;
          break;
        case ShardMsg::Kind::kWedge:
          // Deliberate stall (tests): sleep before retiring the message.
          // The ring stays non-empty and the heartbeat store below is not
          // reached — exactly the state the watchdog must detect.
          while (shard.wedged.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          break;
      }
      ++taken;
    }
    shard.ring.PopN(taken);
    // Worker-owned plain metric fields must be written before the commit
    // below: the coordinator reads `shard.pipeline` after acquiring the
    // flush ack published by this very batch.
    shard.batch_consumed->Record(static_cast<int64_t>(taken));
    // One release store publishes every upstream message of this batch
    // (alerts, aggregate events, acks) ... then the frontier: the events
    // it vouches for are already committed, so an acquire read that
    // observes the new frontier also observes them in the ring
    // (DESIGN.md §12).
    shard.up.CommitPushN();
    shard.processed_ns.store(watermark, std::memory_order_release);
    // Heartbeat last: it vouches for the whole retired batch. A worker
    // that wedges or blocks mid-batch never reaches this store.
    if (heartbeat) {
      shard.last_progress_ns.store(obs::MonotonicNanos(),
                                   std::memory_order_release);
    }
    backoff.Reset();
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
  // processed_ns is also the aggregate replay gate, so each slice first
  // commits the open up-batch: the aggregate events of the batch's earlier
  // packets (all at or before Now()) must be in the ring before the
  // frontier vouches for them. Timers emit no aggregate events.
  constexpr sim::Duration kSlice = sim::Duration::Seconds(60);
  // Events are never scheduled in the past, so `next` >= Now().
  sim::Time next = scheduler.NextEventTime();
  while (next < when && when - next > kSlice) {
    scheduler.RunUntil(next + kSlice);
    shard.up.CommitPushN();
    shard.processed_ns.store(scheduler.Now().nanos(),
                             std::memory_order_release);
    shard.last_progress_ns.store(obs::MonotonicNanos(),
                                 std::memory_order_release);
    next = scheduler.NextEventTime();
  }
  scheduler.RunUntil(when);
}

// ----------------------------------------------------------------- routing

int ShardedIds::ShardOfCallId(std::string_view call_id) const {
  return static_cast<int>(Fnv1a(call_id) % shards_.size());
}

int ShardedIds::HashShardOfEndpoint(uint64_t packed_key) const {
  return static_cast<int>(SplitMix64(packed_key) % shards_.size());
}

int ShardedIds::RouteEndpoint(const net::Endpoint& endpoint,
                              int64_t when_ns) {
  const uint64_t key = endpoint.PackedKey();
  const int owner = owner_table_.Owner(key, when_ns);
  if (owner >= 0) {
    m_owner_routed_->Inc();
    return owner;
  }
  m_hash_routed_->Inc();
  return HashShardOfEndpoint(key);
}

void ShardedIds::SnoopSdp(std::string_view body, int shard, int64_t when_ns) {
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
        // The losing shard (the previous owner, or the hash-fallback shard
        // that early media went to) gets its retract ahead of the claiming
        // packet on its own FIFO ring. A retract for an endpoint the shard
        // never bound is a no-op.
        const MediaOwnerTable::RetractEdge edge = owner_table_.Claim(
            key, shard, when_ns, HashShardOfEndpoint(key));
        if (edge.shard >= 0) {
          (edge.early ? m_early_retracts_ : m_retracts_)->Inc();
          Push(edge.shard, [&](ShardMsg& msg, size_t) {
            msg.kind = ShardMsg::Kind::kRetractMedia;
            msg.when_ns = when_ns;
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
void ShardedIds::Push(int shard_index, Fill&& fill) {
  Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  // The arena slot paired with the slot BeginPushN hands out. Stable across
  // the backpressure commit below (committing does not move tail+pending).
  const size_t slot_index = shard.ring.ProducerNextIndex();
  ShardMsg* slot = shard.ring.BeginPushN();
  if (slot == nullptr) {
    // Backpressure, not loss. Publish every open batch (the worker can
    // only drain what it can see) and keep draining the up-rings while
    // waiting so a worker blocked pushing alerts upstream can make
    // progress — this pair of rules is what makes the ring cycle
    // deadlock-free.
    CommitAll(FlushReason::kFull);
    do {
      m_stalls_->Inc();
      ++shard.ring_stalls;
      DrainUp();
      std::this_thread::yield();
      slot = shard.ring.BeginPushN();
    } while (slot == nullptr);
  }
  fill(*slot, slot_index);
  ++open_msgs_;
  if (const auto depth = static_cast<uint64_t>(shard.ring.SizeFromProducer());
      depth > shard.ring_hwm) {
    shard.ring_hwm = depth;
  }
  if (const size_t open = shard.ring.open_push(); open >= kBatchMax) {
    m_batch_committed_->Record(static_cast<int64_t>(open));
    m_flush_full_->Inc();
    shard.ring.CommitPushN();
    open_msgs_ -= open;
  }
}

void ShardedIds::CommitAll(FlushReason reason) {
  obs::Counter* flush_reason = m_flush_barrier_;
  switch (reason) {
    case FlushReason::kFull: flush_reason = m_flush_full_; break;
    case FlushReason::kDeadline: flush_reason = m_flush_deadline_; break;
    case FlushReason::kBarrier: break;
  }
  for (auto& shard : shards_) {
    if (const size_t open = shard->ring.open_push(); open != 0) {
      m_batch_committed_->Record(static_cast<int64_t>(open));
      flush_reason->Inc();
      shard->ring.CommitPushN();
    }
  }
  open_msgs_ = 0;
  deadline_armed_ = false;
}

void ShardedIds::DeadlineCheck(int64_t when_ns) {
  // Bounded-latency flush: a partial batch is published once it has been
  // open for kBatchFlushMicros, enforced in both clock domains — source time
  // first (an integer compare, no clock read), then wall clock — so a
  // faster-than-real-time replay cannot hold a pre-gap packet unpublished
  // while the stream's own clock races far past it.
  if (open_msgs_ == 0) {
    deadline_armed_ = false;
    return;
  }
  if (!deadline_armed_) {
    deadline_armed_ = true;
    deadline_since_ = std::chrono::steady_clock::now();
    deadline_src_ns_ = when_ns;
    return;
  }
  if (when_ns - deadline_src_ns_ >= kBatchFlushMicros * 1000 ||
      std::chrono::steady_clock::now() - deadline_since_ >=
          std::chrono::microseconds(kBatchFlushMicros)) {
    CommitAll(FlushReason::kDeadline);
  }
}

bool ShardedIds::CarriesClaims(const net::Datagram& dgram,
                               sip::LazyMessage& scratch) {
  // Same dispatch test as Ingest below: not RTCP-foldable, not a trusted
  // RTP hint, and the lazy SIP parser accepts it.
  if (rtp::LooksLikeRtcp(dgram.payload) && dgram.dst.port >= 1) return false;
  return dgram.kind != net::PayloadKind::kRtp && scratch.Index(dgram.payload);
}

void ShardedIds::Ingest(const net::Datagram& dgram, bool from_outside,
                        sim::Time when) {
  if (workers_joined_) return;  // stopped engines drop quietly
  const int64_t when_ns = when.nanos();
  last_when_ns_ = std::max(last_when_ns_, when_ns);

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
    target = RouteEndpoint(media, when_ns);
  } else if (dgram.kind != net::PayloadKind::kRtp &&
             lazy_.Index(dgram.payload)) {
    const auto call_id = lazy_.CallId();
    target = ShardOfCallId(call_id.value_or(std::string_view()));
    m_sip_routed_->Inc();
    if (call_id.has_value() && !lazy_.body().empty()) {
      SnoopSdp(lazy_.body(), target, when_ns);
    }
  } else {
    target = RouteEndpoint(dgram.dst, when_ns);
  }

  // Span sampling: one in trace_sample_period packets gets its enqueue
  // wall time stamped into the slot; the worker closes the span. With
  // sampling off this is a single always-false branch — no clock read.
  int64_t span_ns = 0;
  if (trace_on_ && ((++trace_tick_ & trace_mask_) == 0)) {
    span_ns = obs::MonotonicNanos();
  }

  Shard& shard = *shards_[static_cast<size_t>(target)];
  Push(target, [&](ShardMsg& msg, size_t slot_index) {
    msg.kind = ShardMsg::Kind::kPacket;
    msg.when_ns = when_ns;
    msg.span_enqueue_ns = span_ns;  // always assigned: slots are reused
    msg.from_outside = from_outside;
    msg.dgram.src = dgram.src;
    msg.dgram.dst = dgram.dst;
    msg.dgram.kind = dgram.kind;
    msg.dgram.padding_bytes = dgram.padding_bytes;
    msg.dgram.sent_time = dgram.sent_time;
    msg.dgram.id = dgram.id;
    if (shard.arena.Fits(dgram.payload.size())) {
      // Fast path: payload bytes go to the contiguous slab; the slot's own
      // string is left untouched (its stale bytes are dead — arena_len is
      // the source of truth).
      shard.arena.Store(slot_index, dgram.payload.data(),
                        dgram.payload.size());
      msg.in_arena = true;
      msg.arena_len = static_cast<uint32_t>(dgram.payload.size());
    } else {
      msg.in_arena = false;
      msg.arena_len = 0;
      msg.dgram.payload.assign(dgram.payload);  // reuses the slot's capacity
    }
  });

  DeadlineCheck(when_ns);
  // Opportunistic upstream drain so alerts surface and the aggregate
  // replay keeps pace without explicit Pump() calls.
  if ((++ingest_count_ & 31U) == 0) DrainUp();
}

// ------------------------------------------------------------ coordinator

void ShardedIds::Pump() {
  CommitAll(FlushReason::kBarrier);
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
    const size_t depth = shard.ring.SizeApprox();
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
      // deadline: stalled. One alert per episode.
      h.alerted = true;
      m_watchdog_stalls_->Inc();
      Alert alert;
      alert.when = sim::Time::FromNanos(last_when_ns_);
      alert.kind = AlertKind::kEngineHealth;
      alert.classification = std::string(kEngineWorkerStall);
      alert.machine = "watchdog";
      alert.group = "shard|" + std::to_string(i);
      alert.state = "stalled";
      alert.detail = "ring_depth=" + std::to_string(depth) + " stalled_ms=" +
                     std::to_string((now - h.pending_since_ns) / 1'000'000);
      alert.trigger =
          "watchdog: shard ring non-empty with no worker progress past the "
          "stall deadline";
      EmitAlert(std::move(alert));
    }
  }
}

void ShardedIds::DrainUp() {
  WatchdogCheck();
  // Snapshot the replay frontier BEFORE draining. A shard commits every
  // aggregate event it vouches for (release through the ring) before it
  // publishes processed_ns (release), so an acquire load of
  // processed_ns >= T guarantees those events are already in the ring
  // and land in pending_ below. Loading the frontier after the drain
  // instead would let an event committed mid-drain sit at-or-before a
  // fresher frontier while missing from pending_ — and a later-timestamped
  // event from another shard would replay ahead of it, out of order.
  int64_t frontier = INT64_MAX;
  for (const auto& shard : shards_) {
    frontier = std::min(
        frontier, shard->processed_ns.load(std::memory_order_acquire));
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    for (;;) {
      const size_t n = shard.up.FrontN(kBatchMax);
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
          case UpMsg::Kind::kFlushAck:
            if (msg.token == flush_token_) ++flush_acks_;
            break;
        }
      }
      shard.up.PopN(n);
    }
  }
  ReplayAggregates(frontier);
}

void ShardedIds::ReplayAggregates(int64_t frontier) {
  // Safe-replay frontier (snapshotted by the caller before its drain):
  // every shard guarantees all its aggregate events at or before it are
  // already in pending_. Events beyond the frontier wait — a slow or
  // still-working shard may yet emit an earlier one. (An event a shard
  // commits after the snapshot can tie the frontier exactly, never
  // undercut it: per-ring times are non-decreasing, a shard's open
  // up-batch only holds times at or above its published frontier, and the
  // window counters are order-insensitive within one instant, so a
  // same-instant straggler replayed in a later batch lands on identical
  // state.)
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
  const int64_t now_ns = std::max(now.nanos(), last_when_ns_);
  ++flush_token_;
  flush_acks_ = 0;
  for (int i = 0; i < shards(); ++i) {
    Push(i, [&](ShardMsg& msg, size_t) {
      msg.kind = ShardMsg::Kind::kFlush;
      msg.when_ns = now_ns;
      msg.token = flush_token_;
    });
  }
  CommitAll(FlushReason::kBarrier);
  while (flush_acks_ < shards_.size()) {
    DrainUp();
    if (flush_acks_ < shards_.size()) std::this_thread::yield();
  }
  // Every shard acked — but an ack becomes visible with the batch's ring
  // commit, which precedes the shard's frontier store. Wait until every
  // processed frontier actually reached now_ns, then the final drain's
  // (snapshot-before-drain) replay covers everything up to it.
  for (;;) {
    int64_t frontier = INT64_MAX;
    for (const auto& shard : shards_) {
      frontier = std::min(
          frontier, shard->processed_ns.load(std::memory_order_acquire));
    }
    if (frontier >= now_ns) break;
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
  // anyway, so the fresh-count behavior matches the single engine.)
  const int64_t owner_horizon_ns =
      (config_.detection.tombstone_ttl + config_.detection.keyed_idle_timeout)
          .nanos();
  owner_table_.Prune(now_ns, owner_horizon_ns);

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
  for (int i = 0; i < shards(); ++i) {
    Push(i, [](ShardMsg& msg, size_t) { msg.kind = ShardMsg::Kind::kStop; });
  }
  CommitAll(FlushReason::kBarrier);
  // A worker with ring backlog keeps emitting up-messages on its way to
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
  // Workers are gone; ring contents are final (every aggregate event was
  // committed with the batch that produced it). Drain and replay
  // everything.
  DrainUp();
  ReplayAggregates(INT64_MAX);
}

void ShardedIds::WedgeWorkerForTest(int shard_index) {
  shards_[static_cast<size_t>(shard_index)]->wedged.store(
      true, std::memory_order_release);
  Push(shard_index, [&](ShardMsg& msg, size_t) {
    msg.kind = ShardMsg::Kind::kWedge;
    msg.when_ns = last_when_ns_;
  });
  CommitAll(FlushReason::kBarrier);
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

obs::MetricsRegistry ShardedIds::MergedMetrics() const {
  obs::MetricsRegistry merged;
  merged.MergeFrom(coord_metrics_);
  uint64_t up_stalls = 0;
  std::string prefix;
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
        .Set(static_cast<int64_t>(shard->ring_hwm));
    merged.GetGauge(prefix + "ring.up_depth_hwm")
        .Set(static_cast<int64_t>(shard->up_hwm));
    merged.GetCounter(prefix + "ring.down_stalls").Inc(shard->ring_stalls);
    merged.GetCounter(prefix + "ring.up_stalls").Inc(shard->up_stalls);
    up_stalls += shard->up_stalls;
  }
  merged.GetCounter("sharded.worker_stalls").Inc(up_stalls);
  merged.GetGauge("sharded.shards").Set(shards());
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
  size_t total = owner_table_.size() + tracked(coord_vids_) +
                 behavior().profile_count();
  for (const auto& shard : shards_) total += tracked(*shard->vids);
  return total;
}

size_t ShardedIds::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& shard : shards_) {
    bytes += shard->vids->fact_base().MemoryBytes();
    bytes += shard->ring.capacity() * sizeof(ShardMsg) +
             shard->arena.MemoryBytes() +
             shard->up.capacity() * sizeof(UpMsg);
  }
  bytes += owner_table_.MemoryBytes();
  bytes += coord_vids_.fact_base().MemoryBytes();
  for (const auto& queue : pending_) {
    bytes += queue.size() * sizeof(Vids::AggregateEvent);
  }
  bytes += behavior().MemoryBytes();
  return bytes;
}

}  // namespace vids::ids
