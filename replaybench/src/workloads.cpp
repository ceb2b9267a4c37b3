#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_logic.h"
#include "capture/corpus.h"
#include "vids/trace.h"

namespace replaybench {

bool MakeWorkload(std::string_view name, uint64_t seed, double scale,
                  WorkloadSpec* out) {
  WorkloadSpec w;
  w.name = std::string(name);
  vids::load::SoakConfig& c = w.config;
  c.seed = seed;
  const auto calls = [scale](uint64_t n) {
    return std::max<uint64_t>(
        50, static_cast<uint64_t>(std::llround(static_cast<double>(n) * scale)));
  };
  if (name == "soak_mix") {
    w.why =
        "reference soak shape: 16% SIP, thousands of live calls, every attack "
        "and behavioral burst; large working set";
    c.total_calls = calls(5'000);
    c.calls_per_second = 200.0;
    c.mean_hold = vids::sim::Duration::Seconds(30);
    c.rtp_packets_per_call = 16;
    c.attack_every = 200;
    c.spit_bursts = c.reg_crack_bursts = c.toll_fraud_bursts = 2;
    w.paced_rate = 200'000.0;
    w.passes = 7;
  } else if (name == "signaling_churn") {
    w.why =
        "57% SIP with 3 s holds and 5000 callers: parsing, admission, sweeps, "
        "timers, aggregates and behavior profiles";
    c.total_calls = calls(12'000);
    c.calls_per_second = 1000.0;
    c.mean_hold = vids::sim::Duration::Seconds(3);
    c.rtp_packets_per_call = 2;
    c.caller_aors = 5000;
    c.attack_every = 50;
    c.spit_bursts = c.reg_crack_bursts = c.toll_fraud_bursts = 4;
    w.paced_rate = 150'000.0;
    w.passes = 8;
  } else if (name == "benign_media") {
    w.why =
        "attack-free, 97% RTP, small live state: per-packet pipeline overhead; "
        "every alert is a false positive";
    c.total_calls = calls(1'500);
    c.calls_per_second = 10.0;
    c.mean_hold = vids::sim::Duration::Seconds(120);
    // At most 100 per direction: even a 1 s call stays at the codec rate
    // and under rtp_flood_threshold.
    c.rtp_packets_per_call = 100;
    c.caller_aors = 200;
    c.attack_every = 0;
    w.attack_free = true;
    w.paced_rate = 500'000.0;
    w.passes = 12;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

vids::capture::PcapReadOptions ReadOptions() {
  vids::capture::PcapReadOptions options;
  options.inside = vids::capture::corpus::InsideSubnet();
  options.rebase_to_first = false;
  return options;
}

Capture GenerateCapture(const WorkloadSpec& workload) {
  vids::ids::TraceLog log;
  vids::load::SoakConfig config = workload.config;
  config.capture = &log;
  Capture out;
  {
    vids::load::SoakDriver driver(config);
    const vids::load::SoakReport report = driver.Run();
    out.calls = report.calls_started;
    out.online_alerts = report.alerts_total;
  }
  const vids::capture::PcapWriteOptions write_options;
  vids::capture::PcapWriter writer(write_options);
  // The pcap keeps absolute timestamps: sim t = 0 is the writer's epoch.
  const int64_t epoch_ns = write_options.epoch_base_s * 1'000'000'000;
  out.when_ns.reserve(log.size());
  out.bucket.reserve(log.size());
  for (const vids::ids::TraceRecord& record : log.records()) {
    writer.Add(record.when, record.dgram);
    out.when_ns.push_back(epoch_ns + record.when.nanos());
    const Bucket bucket = BucketOf(record.dgram.payload);
    out.bucket.push_back(static_cast<uint8_t>(bucket));
    if (bucket == Bucket::kSipReq || bucket == Bucket::kSipResp) {
      ++out.sip_packets;
    }
  }
  out.pcap = writer.bytes();
  if (!out.when_ns.empty()) {
    const int64_t span_s =
        (out.when_ns.back() - out.when_ns.front()) / 1'000'000'000 + 1;
    out.pass_shift_s = static_cast<uint32_t>(span_s + 3600);
  }
  return out;
}

std::string Capture::PassPcap(int pass) const {
  std::string bytes = pcap;
  if (pass > 0 &&
      !ShiftPcapSeconds(bytes, static_cast<uint32_t>(pass) * pass_shift_s)) {
    bytes.clear();  // the replay then reports a source error
  }
  return bytes;
}

std::string DescribeConfig(const vids::load::SoakConfig& c) {
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "seed=%llu total_calls=%llu calls_per_second=%g mean_hold_s=%g "
      "rtp_packets_per_call=%d callee_aors=%d caller_aors=%d "
      "attack_every=%llu spit_bursts=%d reg_crack_bursts=%d "
      "toll_fraud_bursts=%d late_retransmit_prob=%g "
      "post_ttl_retransmit_prob=%g pause_at_fraction=%g pause_s=%g",
      static_cast<unsigned long long>(c.seed),
      static_cast<unsigned long long>(c.total_calls), c.calls_per_second,
      c.mean_hold.ToSeconds(), c.rtp_packets_per_call, c.callee_aors,
      c.caller_aors, static_cast<unsigned long long>(c.attack_every),
      c.spit_bursts, c.reg_crack_bursts, c.toll_fraud_bursts,
      c.late_retransmit_prob, c.post_ttl_retransmit_prob, c.pause_at_fraction,
      c.pause.ToSeconds());
  return line;
}

}  // namespace replaybench
