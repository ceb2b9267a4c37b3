// The benchmark's workloads: deterministic soak captures generated in-repo
// by load::SoakDriver through its SoakConfig::capture hook, encoded as a
// classic pcap with capture::PcapWriter and held in memory.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "capture/pcap.h"
#include "load/soak.h"

namespace replaybench {

struct WorkloadSpec {
  std::string name;
  std::string why;
  vids::load::SoakConfig config;
  /// Offered rate of the paced open-loop s3 replay, packets per second:
  /// fixed per workload, below the s3 pipeline's saturation point.
  double paced_rate = 0.0;
  /// Timed replay passes per topology in an end-to-end run (a few fewer
  /// when the measuring window runs out first), sized so a run fits its
  /// window on the reference host.
  int passes = 0;
  /// True when the workload injects no attack at all, so that every alert
  /// it raises is a false positive.
  bool attack_free = false;
};

/// The workload `name` generated from `seed`. `scale` multiplies the call
/// count (1.0 for measurement runs; the self-check uses a short fraction).
/// Returns false for an unknown name.
bool MakeWorkload(std::string_view name, uint64_t seed, double scale,
                  WorkloadSpec* out);

/// One generated capture plus what the benchmark needs to know about it
/// without decoding it again.
struct Capture {
  std::string pcap;                  ///< classic pcap, nanosecond, LE
  std::vector<int64_t> when_ns;      ///< per packet, as replays see it
  std::vector<uint8_t> bucket;       ///< per packet, a Bucket value
  uint64_t sip_packets = 0;
  uint64_t calls = 0;                ///< benign calls the soak started
  uint64_t online_alerts = 0;        ///< the online soak's alerts_total
  /// How much later each repeated replay pass is shifted: the capture's
  /// span plus an hour, so every call, tombstone and window of the
  /// previous pass has expired before the next one starts.
  uint32_t pass_shift_s = 0;
  uint64_t Packets() const { return when_ns.size(); }
  int64_t PassShiftNs(int pass) const {
    return static_cast<int64_t>(pass) * pass_shift_s * 1'000'000'000;
  }
  /// The pcap of replay pass `pass` (pass 0 is the capture itself).
  std::string PassPcap(int pass) const;
};

/// Runs the online soak with the capture hook and encodes its capture.
Capture GenerateCapture(const WorkloadSpec& workload);

/// How every replay decodes the capture: direction from the corpus inside
/// subnet, absolute timestamps kept (the online soak's clock).
vids::capture::PcapReadOptions ReadOptions();

/// One-line rendering of the workload's SoakConfig, for provenance output.
std::string DescribeConfig(const vids::load::SoakConfig& config);

}  // namespace replaybench
