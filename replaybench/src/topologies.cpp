#include "topologies.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "alloc_count.h"
#include "capture/pcap.h"
#include "capture/replay.h"
#include "sim/scheduler.h"
#include "sip/lazy_message.h"
#include "vids/classifier.h"
#include "vids/ids.h"
#include "vids/sharded_ids.h"

namespace replaybench {

namespace {

using vids::capture::PcapFileSource;
using vids::capture::TimedPacket;

constexpr size_t kBatch = 64;  // capture::RunSource's default batch size
constexpr int64_t kSampleEveryNs = 1'000'000'000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

vids::ids::ShardedConfig ConfigFor(const Topology& topology) {
  vids::ids::ShardedConfig config;
  config.shards = topology.shards;
  config.producers = topology.producers;
  return config;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The engine's own state, sampled by the inline replays.
void SampleState(const vids::ids::Vids& vids, StatePeaks* peaks) {
  const auto& fb = vids.fact_base();
  const size_t fact = fb.MemoryBytes();
  const size_t behavior = vids.behavior().MemoryBytes();
  peaks->fact_bytes = std::max(peaks->fact_bytes, fact);
  peaks->behavior_bytes = std::max(peaks->behavior_bytes, behavior);
  peaks->total_bytes = std::max(peaks->total_bytes, fact + behavior);
  peaks->calls = std::max(peaks->calls, fb.call_count());
  peaks->tombstones = std::max(peaks->tombstones, fb.tombstone_count());
  peaks->keyed = std::max(peaks->keyed, fb.keyed_count());
  peaks->media_index = std::max(peaks->media_index, fb.media_index_count());
  peaks->behavior_profiles =
      std::max(peaks->behavior_profiles, vids.behavior().profile_count());
}

/// Post-drain readings shared by every traced sharded topology.
void ShardedReadings(vids::ids::ShardedIds& engine, const std::string& prefix,
                     uint64_t packets, double flush_ms, bool aggregates,
                     std::map<std::string, double>& m) {
  m[prefix + "sharded.stalls_pkt"] =
      Ratio(static_cast<double>(engine.ingest_stalls()),
            static_cast<double>(packets));
  m[prefix + "sharded.flush_ms"] = flush_ms;
  if (engine.shards() > 1) {
    double max_packets = 0.0;
    double sum = 0.0;
    for (int i = 0; i < engine.shards(); ++i) {
      const auto n = static_cast<double>(engine.shard_vids(i).stats().packets);
      max_packets = std::max(max_packets, n);
      sum += n;
    }
    m[prefix + "sharded.shard_skew"] =
        Ratio(max_packets, sum / static_cast<double>(engine.shards()));
  }
  const vids::obs::MetricsRegistry merged = engine.MergedMetrics();
  const vids::obs::Histogram* inspect = merged.FindHistogram("lat.inspect");
  const vids::obs::Histogram* wait =
      merged.FindHistogram("lat.ingest_to_dequeue");
  m[prefix + "sharded.worker_inspect_ns"] =
      inspect != nullptr ? static_cast<double>(inspect->Quantile(0.5)) : 0.0;
  m[prefix + "sharded.queue_wait_us"] =
      wait != nullptr ? static_cast<double>(wait->Quantile(0.5)) / 1e3 : 0.0;
  if (!aggregates) return;
  const vids::obs::Counter* agg = merged.FindCounter("sharded.agg_events");
  m[prefix + "sharded.agg_events"] =
      agg != nullptr ? static_cast<double>(agg->value()) : 0.0;
  m[prefix + "sharded.agg_escalations"] =
      static_cast<double>(engine.aggregate_escalations());
  m[prefix + "sharded.ownership_transfers"] =
      static_cast<double>(engine.ownership_transfers());
  m[prefix + "sharded.route_escalations"] =
      static_cast<double>(engine.route_escalations());
}

void PutSummary(std::map<std::string, double>& m, const std::string& name,
                const std::vector<double>& samples) {
  const Summary s = Summarize(samples);
  m[name + ".p50"] = s.p50;
  m[name + ".tail"] = s.tail;
}

}  // namespace

Engine BuildEngine(const Topology& topology, int64_t start_ns) {
  Engine e;
  e.topology = &topology;
  const vids::sim::Time start = vids::sim::Time::FromNanos(start_ns - 1);
  const int64_t t0 = NowNs();
  if (topology.shards == 0) {
    e.scheduler = std::make_unique<vids::sim::Scheduler>();
    e.vids = std::make_unique<vids::ids::Vids>(*e.scheduler);
    e.scheduler->RunUntil(start);
  } else {
    e.sharded = std::make_unique<vids::ids::ShardedIds>(ConfigFor(topology));
    e.sharded->Flush(start);
  }
  e.ready_ms = static_cast<double>(NowNs() - t0) / 1e6;
  return e;
}

ReplayResult TimedReplay(const Capture& capture, Engine& engine, int pass) {
  ReplayResult r;
  PcapFileSource source(capture.PassPcap(pass), ReadOptions());
  vids::capture::ReplayStats stats;
  const double steal0 = StealSeconds();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  if (engine.sharded == nullptr) {
    stats = vids::capture::RunSource(source, *engine.vids, *engine.scheduler,
                                     kBatch);
  } else if (engine.topology->producers > 1) {
    stats = vids::capture::RunSource(source, *engine.sharded,
                                     engine.topology->producers, kBatch);
  } else {
    stats = vids::capture::RunSource(source, *engine.sharded, kBatch);
  }
  r.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  r.steal_s = StealSeconds() - steal0;
  const int64_t shift = capture.PassShiftNs(pass);
  r.alerts = Canonicalize(engine.sharded != nullptr ? engine.sharded->alerts()
                                                    : engine.vids->alerts(),
                          capture.when_ns.front() + shift, shift);
  r.packets = stats.packets;
  r.source_ok = stats.ok;
  return r;
}

ReplayResult SampledInlineReplay(const Capture& capture, Engine engine,
                                 StatePeaks* peaks) {
  ReplayResult r;
  PcapFileSource source(capture.pcap, ReadOptions());
  vids::sim::Scheduler& scheduler = *engine.scheduler;
  vids::ids::Vids& vids = *engine.vids;
  std::vector<TimedPacket> batch;
  batch.reserve(kBatch);
  int64_t next_sample = capture.when_ns.empty() ? 0 : capture.when_ns.front();
  const int64_t t0 = NowNs();
  while (source.PullBatch(batch, kBatch) > 0) {
    for (TimedPacket& packet : batch) {
      if (packet.when > scheduler.Now()) scheduler.RunUntil(packet.when);
      if (packet.when.nanos() >= next_sample) {
        SampleState(vids, peaks);
        next_sample = packet.when.nanos() + kSampleEveryNs;
      }
      vids.Inspect(packet.dgram, packet.from_outside);
      r.timestamps_match = r.timestamps_match &&
                           r.packets < capture.Packets() &&
                           capture.when_ns[r.packets] == packet.when.nanos();
      ++r.packets;
    }
  }
  if (source.clock() > scheduler.Now()) scheduler.RunUntil(source.clock());
  SampleState(vids, peaks);
  r.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  r.source_ok = source.ok();
  r.alerts = Canonicalize(vids.alerts());
  return r;
}

PacedResult PacedReplay(const Capture& capture, Engine& warmed, double rate,
                        int pass, SpanRecorder* spans) {
  PacedResult r;
  vids::ids::ShardedIds& engine = *warmed.sharded;
  const int64_t shift = capture.PassShiftNs(pass);
  std::vector<ObservedAlert> observed;
  observed.reserve(capture.Packets() / 64 + 1024);
  const int64_t pass_start = capture.when_ns.front() + shift;
  // Timers left over from an earlier pass fire before this pass's start
  // and are not part of it.
  engine.set_alert_callback(
      [&observed, shift, pass_start](const vids::ids::Alert& alert) {
        if (alert.kind == vids::ids::AlertKind::kEngineHealth) return;
        if (alert.when.nanos() < pass_start) return;
        observed.push_back({alert.when.nanos() - shift, NowNs()});
      });
  PcapFileSource source(capture.PassPcap(pass), ReadOptions());
  std::vector<TimedPacket> batch;
  batch.reserve(16);
  const double steal0 = StealSeconds();
  const int64_t start = NowNs() + 1'000'000;
  OpenLoopSchedule schedule(rate, start);
  uint64_t index = 0;
  const int32_t root =
      spans != nullptr ? spans->Add(kSpanReplay, start, start, 0, -1) : -1;
  // Records [s, now) as a span when tracing; returns now.
  const auto span = [&](uint8_t name, int64_t s) {
    const int64_t e = NowNs();
    if (spans != nullptr) spans->Add(name, s, e, index, root);
    return e;
  };
  // Small pulls keep a decode burst from making the next sends late.
  for (;;) {
    const size_t n = source.PullBatch(batch, 16);
    if (spans != nullptr) span(kSpanPullBatch, NowNs());
    if (n == 0) break;
    for (TimedPacket& packet : batch) {
      const int64_t due = schedule.DueNs(index);
      int64_t now = NowNs();
      while (now < due) {
        engine.Pump();
        now = spans != nullptr ? span(kSpanPump, now) : NowNs();
      }
      schedule.RecordSend(index, now);
      engine.Ingest(packet.dgram, packet.from_outside, packet.when);
      if (spans != nullptr) span(kSpanIngest, now);
      ++index;
    }
  }
  const int64_t flush_start = NowNs();
  engine.Flush(source.clock());
  const int64_t end = span(kSpanFlush, flush_start);
  if (spans != nullptr) spans->SetEnd(root, end);
  r.wall_s = static_cast<double>(end - start) / 1e9;
  r.steal_s = StealSeconds() - steal0;
  r.source_ok = source.ok();
  engine.set_alert_callback(nullptr);
  r.detection = AttributeLatency(capture.when_ns, schedule, observed);
  r.late_us = schedule.late_us();
  r.alerts = Canonicalize(engine.alerts(), pass_start, shift);
  return r;
}

const char* SpanNameString(uint8_t name) {
  static constexpr const char* kNames[kSpanNames] = {
      "replay", "PullBatch", "RunUntil", "Inspect",  "Ingest",
      "Pump",   "Flush",     "MpIngest", "MpFinish"};
  return name < kSpanNames ? kNames[name] : "?";
}

int32_t SpanRecorder::Add(uint8_t name, int64_t start_ns, int64_t end_ns,
                          uint64_t packet, int32_t parent) {
  total_ns_[name] += end_ns - start_ns;
  if (spans_.size() >= cap_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back({start_ns, end_ns, packet, parent, name});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::SetEnd(int32_t index, int64_t end_ns) {
  if (index < 0) return;
  Span& span = spans_[static_cast<size_t>(index)];
  total_ns_[span.name] += end_ns - span.end_ns;
  span.end_ns = end_ns;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# spans held: %zu, dropped past the cap: %llu\n",
               spans_.size(), static_cast<unsigned long long>(dropped_));
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\tpacket\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%lld\t%lld\t%d\t%llu\n", SpanNameString(s.name),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.packet));
  }
  return std::fclose(f) == 0;
}

TracedResult TracedReplay(const Capture& capture, Engine warmed,
                          const std::string& span_path) {
  const Topology& topology = *warmed.topology;
  TracedResult out;
  auto& m = out.metrics;
  ReplayResult& r = out.replay;
  SpanRecorder rec(1 << 18);
  PcapFileSource source(capture.pcap, ReadOptions());
  std::vector<TimedPacket> batch;
  batch.reserve(kBatch);
  const std::string prefix = std::string(topology.name) + ".";
  uint64_t index = 0;
  uint64_t decode_allocs = 0;

  // Times one PullBatch; returns its packet count.
  const auto pull = [&](int32_t root) {
    const uint64_t a0 = ThreadAllocs();
    const int64_t s = NowNs();
    const size_t n = source.PullBatch(batch, kBatch);
    rec.Add(kSpanPullBatch, s, NowNs(), index, root);
    decode_allocs += ThreadAllocs() - a0;
    return n;
  };

  m[prefix + "engine_ready_ms"] = warmed.ready_ms;

  if (topology.shards == 0) {
    vids::sim::Scheduler& scheduler = *warmed.scheduler;
    vids::ids::Vids& vids = *warmed.vids;
    std::array<std::vector<double>, kBuckets> inspect_ns;
    std::array<uint64_t, kBuckets> inspect_allocs{};
    const uint64_t events0 = scheduler.ExecutedEvents();
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    const int32_t root = rec.Add(kSpanReplay, t0, t0, 0, -1);
    while (pull(root) > 0) {
      for (TimedPacket& packet : batch) {
        if (packet.when > scheduler.Now()) {
          const int64_t s = NowNs();
          scheduler.RunUntil(packet.when);
          rec.Add(kSpanRunUntil, s, NowNs(), index, root);
        }
        const size_t b = capture.bucket.at(index);
        const uint64_t a0 = ThreadAllocs();
        const int64_t s = NowNs();
        vids.Inspect(packet.dgram, packet.from_outside);
        const int64_t e = NowNs();
        inspect_allocs[b] += ThreadAllocs() - a0;
        inspect_ns[b].push_back(static_cast<double>(e - s));
        rec.Add(kSpanInspect, s, e, index, root);
        ++index;
      }
    }
    if (source.clock() > scheduler.Now()) {
      const int64_t s = NowNs();
      scheduler.RunUntil(source.clock());
      rec.Add(kSpanRunUntil, s, NowNs(), index, root);
    }
    const int64_t t1 = NowNs();
    rec.SetEnd(root, t1);
    r.wall_s = static_cast<double>(t1 - t0) / 1e9;
    r.cpu_s = ProcessCpuSeconds() - cpu0;
    r.alerts = Canonicalize(vids.alerts());

    const auto packets = static_cast<double>(index);
    const double decode = static_cast<double>(rec.total_ns(kSpanPullBatch));
    const double run_until = static_cast<double>(rec.total_ns(kSpanRunUntil));
    const double inspect = static_cast<double>(rec.total_ns(kSpanInspect));
    const double wall = static_cast<double>(t1 - t0);
    m["capture.decode_ns_pkt"] = Ratio(decode, packets);
    m["capture.decode_allocs_pkt"] =
        Ratio(static_cast<double>(decode_allocs), packets);
    m["sim.run_until_ns_pkt"] = Ratio(run_until, packets);
    m["sim.events_pkt"] =
        Ratio(static_cast<double>(scheduler.ExecutedEvents() - events0), packets);
    // The soak generator sends no RTCP and nothing unclassifiable, so
    // only these buckets are reported.
    for (const Bucket bucket : {Bucket::kSipReq, Bucket::kSipResp, Bucket::kRtp}) {
      const auto b = static_cast<size_t>(bucket);
      const std::string name = BucketName(bucket);
      PutSummary(m, "vids.inspect_ns." + name, inspect_ns[b]);
      m["vids.inspect_allocs." + name] =
          Ratio(static_cast<double>(inspect_allocs[b]),
                static_cast<double>(inspect_ns[b].size()));
    }
    const vids::ids::Vids::Stats st = vids.stats();
    m["vids.transitions_pkt"] =
        Ratio(static_cast<double>(st.transitions), packets);
    const double raised = static_cast<double>(vids.alerts().size());
    m["vids.suppressed_frac"] =
        Ratio(static_cast<double>(st.alerts_suppressed),
              static_cast<double>(st.alerts_suppressed) + raised);
    m["vids.orphan_rtp_frac"] = Ratio(static_cast<double>(st.orphan_rtp),
                                      static_cast<double>(st.rtp_packets));
    const vids::obs::Counter* sweeps = vids.metrics().FindCounter("vids.sweeps");
    const vids::obs::Histogram* sweep_ns =
        vids.metrics().FindHistogram("vids.sweep_ns");
    m["vids.fact.sweeps"] =
        sweeps != nullptr ? static_cast<double>(sweeps->value()) : 0.0;
    m["vids.fact.sweep_ns"] = sweep_ns != nullptr ? sweep_ns->Mean() : 0.0;
    // The named layers plus the replay loop's own residual make up the wall
    // time; the residual is the root span's self time.
    const double residual = wall - decode - run_until - inspect;
    m["trace.inline_residual_frac"] = Ratio(residual, wall);
  } else {
    vids::ids::ShardedIds& engine = *warmed.sharded;
    std::vector<double> ingest_ns;
    ingest_ns.reserve(capture.Packets());
    double flush_ms = 0.0;
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    const int32_t root = rec.Add(kSpanReplay, t0, t0, 0, -1);
    if (topology.producers > 1) {
      vids::capture::MpIngest mp(engine, topology.producers);
      vids::sip::LazyMessage sniff;
      uint64_t claims = 0;
      while (pull(root) > 0) {
        for (TimedPacket& packet : batch) {
          if (vids::ids::ShardedIds::CarriesClaims(packet.dgram, sniff)) {
            ++claims;
          }
          const int64_t s = NowNs();
          mp.Ingest(packet.dgram, packet.from_outside, packet.when);
          rec.Add(kSpanMpIngest, s, NowNs(), index, root);
          ++index;
        }
      }
      const int64_t s = NowNs();
      mp.Finish();
      rec.Add(kSpanMpFinish, s, NowNs(), index, root);
      const auto packets = static_cast<double>(index);
      m["capture.mp_dispatch_ns_pkt"] =
          Ratio(static_cast<double>(rec.total_ns(kSpanMpIngest)), packets);
      m["capture.mp_inline_claims_frac"] =
          Ratio(static_cast<double>(claims), packets);
    } else {
      while (pull(root) > 0) {
        for (TimedPacket& packet : batch) {
          const int64_t s = NowNs();
          engine.Ingest(packet.dgram, packet.from_outside, packet.when);
          const int64_t e = NowNs();
          ingest_ns.push_back(static_cast<double>(e - s));
          rec.Add(kSpanIngest, s, e, index, root);
          ++index;
        }
      }
      PutSummary(m, prefix + "sharded.ingest_ns", ingest_ns);
    }
    const int64_t s = NowNs();
    engine.Flush(source.clock());
    const int64_t t1 = NowNs();
    rec.Add(kSpanFlush, s, t1, index, root);
    flush_ms = static_cast<double>(t1 - s) / 1e6;
    rec.SetEnd(root, t1);
    r.wall_s = static_cast<double>(t1 - t0) / 1e9;
    r.cpu_s = ProcessCpuSeconds() - cpu0;
    r.alerts = Canonicalize(engine.alerts());
    // The coordinator's aggregate and ownership counters are reported for
    // s3, the topology the detection-latency metrics use.
    ShardedReadings(engine, prefix, index, flush_ms, topology.shards == 3, m);
  }
  r.packets = index;
  r.source_ok = source.ok();
  if (!span_path.empty() && !rec.WriteTsv(span_path)) {
    std::fprintf(stderr, "warning: could not write %s\n", span_path.c_str());
  }
  return out;
}

std::map<std::string, double> StandaloneParsePasses(const Capture& capture) {
  // Each batch is split by bucket and every bucket's calls are timed as one
  // run, so the clock reads stay small next to the work they measure.
  PcapFileSource source(capture.pcap, ReadOptions());
  std::vector<TimedPacket> batch;
  constexpr size_t kPassBatch = 256;
  batch.reserve(kPassBatch);
  vids::ids::PacketClassifier classifier;
  vids::sip::LazyMessage lazy;
  std::array<const TimedPacket*, kPassBatch> group{};
  double sip_ns = 0, rtp_ns = 0, index_ns = 0;
  uint64_t sip_n = 0, rtp_n = 0;
  uint64_t index = 0;
  while (source.PullBatch(batch, kPassBatch) > 0) {
    for (const bool sip : {true, false}) {
      size_t n = 0;
      for (size_t i = 0; i < batch.size(); ++i) {
        const auto b = static_cast<Bucket>(capture.bucket.at(index + i));
        const bool is_sip = b == Bucket::kSipReq || b == Bucket::kSipResp;
        if (is_sip == sip && (sip || b == Bucket::kRtp)) group[n++] = &batch[i];
      }
      if (n == 0) continue;
      int64_t s = NowNs();
      for (size_t i = 0; i < n; ++i) {
        classifier.Classify(group[i]->dgram, group[i]->from_outside);
      }
      const auto took = static_cast<double>(NowNs() - s);
      (sip ? sip_ns : rtp_ns) += took;
      (sip ? sip_n : rtp_n) += n;
      if (sip) {
        s = NowNs();
        for (size_t i = 0; i < n; ++i) lazy.Index(group[i]->dgram.payload);
        index_ns += static_cast<double>(NowNs() - s);
      }
    }
    index += batch.size();
  }
  return {
      {"vids.classify_ns.sip", Ratio(sip_ns, static_cast<double>(sip_n))},
      {"vids.classify_ns.rtp", Ratio(rtp_ns, static_cast<double>(rtp_n))},
      {"sip.index_ns", Ratio(index_ns, static_cast<double>(sip_n))},
  };
}

}  // namespace replaybench
