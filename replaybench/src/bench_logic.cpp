#include "bench_logic.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include <unistd.h>

namespace replaybench {

double TailPercentile(size_t n) {
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank >= 1 && n - rank >= kMinBeyond) return pct;
  }
  return 0.0;
}

double NearestRank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size()) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = NearestRank(samples, 50.0);
  s.tail_pct = TailPercentile(s.n);
  s.tail = s.tail_pct > 0.0 ? NearestRank(samples, s.tail_pct) : s.p50;
  return s;
}

double StealSeconds() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  const long ticks = sysconf(_SC_CLK_TCK);
  return got == 8 && ticks > 0
             ? static_cast<double>(v[7]) / static_cast<double>(ticks)
             : 0.0;
}

double CleanMedian(const std::vector<double>& values,
                   const std::vector<double>& steal) {
  std::vector<size_t> order(values.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&steal](size_t a, size_t b) {
    return steal[a] < steal[b];
  });
  std::vector<double> kept;
  for (size_t i = 0; i < (values.size() + 1) / 2; ++i) {
    kept.push_back(values[order[i]]);
  }
  return Summarize(std::move(kept)).p50;
}

OpenLoopSchedule::OpenLoopSchedule(double packets_per_second, int64_t start_ns)
    : rate_(packets_per_second), start_ns_(start_ns) {}

int64_t OpenLoopSchedule::DueNs(uint64_t index) const {
  return start_ns_ +
         static_cast<int64_t>(std::llround(static_cast<double>(index) * 1e9 /
                                           rate_));
}

int64_t OpenLoopSchedule::RecordSend(uint64_t index, int64_t sent_ns) {
  const int64_t late = std::max<int64_t>(0, sent_ns - DueNs(index));
  late_us_.push_back(static_cast<double>(late) / 1e3);
  return late;
}

DetectionLatency AttributeLatency(const std::vector<int64_t>& packet_when_ns,
                                  const OpenLoopSchedule& schedule,
                                  const std::vector<ObservedAlert>& alerts) {
  DetectionLatency out;
  for (const ObservedAlert& alert : alerts) {
    const auto it = std::lower_bound(packet_when_ns.begin(),
                                     packet_when_ns.end(), alert.when_ns);
    if (it == packet_when_ns.end()) {
      ++out.unattributed;
      continue;
    }
    const auto index = static_cast<uint64_t>(it - packet_when_ns.begin());
    out.latency_ms.push_back(
        static_cast<double>(alert.callback_ns - schedule.DueNs(index)) / 1e6);
  }
  return out;
}

std::vector<CanonicalAlert> Canonicalize(
    const std::vector<vids::ids::Alert>& alerts, int64_t from_ns,
    int64_t shift_ns) {
  std::vector<CanonicalAlert> out;
  for (const vids::ids::Alert& alert : alerts) {
    if (alert.kind == vids::ids::AlertKind::kEngineHealth) continue;
    if (alert.when.nanos() < from_ns) continue;
    vids::ids::Alert moved = alert;
    moved.when = vids::sim::Time::FromNanos(alert.when.nanos() - shift_ns);
    out.push_back({moved.when.nanos(), moved.ToString()});
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool ShiftPcapSeconds(std::string& bytes, uint32_t seconds) {
  const auto get = [&bytes](size_t at) {
    uint32_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
  };
  constexpr size_t kGlobalHeader = 24;
  constexpr size_t kRecordHeader = 16;
  constexpr uint32_t kMagicNanoLe = 0xa1b23c4d;
  constexpr uint32_t kMagicMicroLe = 0xa1b2c3d4;
  if (bytes.size() < kGlobalHeader) return false;
  if (get(0) != kMagicNanoLe && get(0) != kMagicMicroLe) return false;
  size_t at = kGlobalHeader;
  while (at < bytes.size()) {
    if (bytes.size() - at < kRecordHeader) return false;
    const uint32_t ts = get(at) + seconds;
    std::memcpy(bytes.data() + at, &ts, sizeof(ts));
    const uint32_t incl_len = get(at + 8);
    if (bytes.size() - at - kRecordHeader < incl_len) return false;
    at += kRecordHeader + incl_len;
  }
  return true;
}

std::vector<CanonicalAlert> OnlyIn(const std::vector<CanonicalAlert>& a,
                                   const std::vector<CanonicalAlert>& b) {
  std::vector<CanonicalAlert> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

size_t SymmetricDifference(const std::vector<CanonicalAlert>& a,
                           const std::vector<CanonicalAlert>& b) {
  return OnlyIn(a, b).size() + OnlyIn(b, a).size();
}

const char* BucketName(Bucket bucket) {
  switch (bucket) {
    case Bucket::kSipReq:
      return "sip_req";
    case Bucket::kSipResp:
      return "sip_resp";
    case Bucket::kRtp:
      return "rtp";
    case Bucket::kRtcp:
      return "rtcp";
    case Bucket::kOther:
      break;
  }
  return "other";
}

Bucket BucketOf(const std::string& payload) {
  if (payload.empty()) return Bucket::kOther;
  if (payload.rfind("SIP/2.0", 0) == 0) return Bucket::kSipResp;
  const auto b0 = static_cast<unsigned char>(payload[0]);
  if (b0 >> 6 == 2 && payload.size() >= 2) {
    const auto pt = static_cast<unsigned char>(payload[1]);
    return pt >= 200 && pt <= 204 ? Bucket::kRtcp : Bucket::kRtp;
  }
  if (b0 >= 'A' && b0 <= 'Z') return Bucket::kSipReq;
  return Bucket::kOther;
}

}  // namespace replaybench
