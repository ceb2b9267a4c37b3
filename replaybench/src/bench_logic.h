// Pure logic of the replay benchmark, kept apart from the engine drivers so
// it can be unit-tested: the percentile rule every timing is reported with,
// the open-loop send schedule, detection-latency attribution and the
// canonical alert diff behind the cross-topology correctness count.
#pragma once

#include <cstddef>
#include <climits>
#include <cstdint>
#include <string>
#include <vector>

#include "vids/alert.h"

namespace replaybench {

/// A timing summary: the median plus the highest percentile that still has
/// at least kMinBeyond samples strictly above its rank, and the sample
/// count. `tail_pct` is 0 (and `tail` equals `p50`) when even the median
/// has fewer than kMinBeyond samples beyond it.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
};

inline constexpr size_t kMinBeyond = 10;

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} whose nearest rank
/// ceil(p/100 * n) leaves at least kMinBeyond of n samples beyond it; 0 if
/// none does.
double TailPercentile(size_t n);

/// Nearest-rank percentile of ascending `sorted` (pct in (0, 100]).
double NearestRank(const std::vector<double>& sorted, double pct);

/// Summarizes `samples` (any order) by the rule above.
Summary Summarize(std::vector<double> samples);

/// Host CPU time stolen by the hypervisor so far, summed over all CPUs, in
/// seconds (the steal column of the kernel's CPU statistics); 0 where the
/// kernel does not report it.
double StealSeconds();

/// The median of `values` over the samples taken with the least stolen
/// CPU: the ceil(n/2) samples with the smallest `steal` (ties keep sample
/// order). A shared host that takes a CPU away slows a multi-threaded
/// replay by far more than the program's own variation, so those samples
/// are set aside, but never more than half of them.
double CleanMedian(const std::vector<double>& values,
                   const std::vector<double>& steal);

/// Open-loop send schedule at a fixed offered rate: packet i is due at
/// start + i / rate regardless of how earlier sends went, so a stall makes
/// every later packet late instead of slowing the offered load.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double packets_per_second, int64_t start_ns);

  int64_t DueNs(uint64_t index) const;
  /// Records that packet `index` was actually handed to the engine at
  /// `sent_ns`; returns how late that was (0 when on time or early).
  int64_t RecordSend(uint64_t index, int64_t sent_ns);

  /// Lateness of every recorded send, in microseconds.
  const std::vector<double>& late_us() const { return late_us_; }

 private:
  double rate_;
  int64_t start_ns_;
  std::vector<double> late_us_;
};

/// One observed alert of a paced run: its detection instant on the capture
/// clock and the wall time its callback ran.
struct ObservedAlert {
  int64_t when_ns = 0;
  int64_t callback_ns = 0;
};

struct DetectionLatency {
  std::vector<double> latency_ms;
  /// Alerts raised after the last packet's timestamp (end-of-stream timer
  /// firings): no packet carries their evidence, so they have no latency.
  size_t unattributed = 0;
};

/// Each alert's latency runs from the scheduled send time of the first
/// packet whose timestamp is at or after alert.when to its callback.
/// `packet_when_ns` is the capture's non-decreasing timestamp sequence.
DetectionLatency AttributeLatency(const std::vector<int64_t>& packet_when_ns,
                                  const OpenLoopSchedule& schedule,
                                  const std::vector<ObservedAlert>& alerts);

/// An alert reduced to the engine-independent part that the equivalence
/// gates compare: its time and rendered text.
struct CanonicalAlert {
  int64_t when_ns = 0;
  std::string text;
  bool operator<(const CanonicalAlert& other) const {
    return when_ns != other.when_ns ? when_ns < other.when_ns
                                    : text < other.text;
  }
  bool operator==(const CanonicalAlert& other) const {
    return when_ns == other.when_ns && text == other.text;
  }
};

/// Sorted by (when, text), engine-health alerts dropped: they describe the
/// monitor, not the traffic. Only alerts at or after `from_ns` are kept,
/// moved `shift_ns` earlier: a replay pass shifted later in time compares
/// with the unshifted one.
std::vector<CanonicalAlert> Canonicalize(
    const std::vector<vids::ids::Alert>& alerts, int64_t from_ns = INT64_MIN,
    int64_t shift_ns = 0);

/// Adds `seconds` to every record timestamp of a classic little-endian
/// pcap (as capture::PcapWriter writes it by default), on a little-endian
/// host. Returns false, with `bytes` possibly partly rewritten, for another
/// byte order or when the record framing runs past the end.
bool ShiftPcapSeconds(std::string& bytes, uint32_t seconds);

/// Multiset difference a \ b of two canonical lists.
std::vector<CanonicalAlert> OnlyIn(const std::vector<CanonicalAlert>& a,
                                   const std::vector<CanonicalAlert>& b);

/// Size of the multiset symmetric difference of two canonical lists.
size_t SymmetricDifference(const std::vector<CanonicalAlert>& a,
                           const std::vector<CanonicalAlert>& b);

/// The benchmark's own look at a datagram, independent of the engine's
/// classifier: SIP request / SIP response by the first line, RTP / RTCP by
/// the version bits and payload type.
enum class Bucket : uint8_t { kSipReq, kSipResp, kRtp, kRtcp, kOther };
inline constexpr size_t kBuckets = 5;
const char* BucketName(Bucket bucket);
Bucket BucketOf(const std::string& payload);

}  // namespace replaybench
