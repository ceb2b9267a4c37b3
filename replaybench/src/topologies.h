// The engine topologies and the replays the benchmark runs through them.
//
//   inline  plain Vids on the replay thread
//   s1      ShardedIds, 1 shard, 1 producer
//   s3      ShardedIds, 3 shards, 1 producer
//   s2p2    ShardedIds, 2 shards, 2 producers fed through capture::MpIngest
//
// Each stays within 4 threads. Timed replays go through the public drivers
// (capture::RunSource); the traced replay re-implements the same loops so
// it can time every call into a module from outside.
//
// Every replay consumes an Engine built beforehand and brought to the
// capture's start instant: a sharded worker's first message otherwise
// walks its clock from 0 to the capture's epoch one simulated minute at a
// time (ShardedIds::AdvanceShardClock with the watchdog on), which costs
// about a second per worker for a 2020-epoch capture. That start-up cost is
// counted in setup_s and reported per topology by the traced run, not
// folded into the per-packet throughput.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_logic.h"
#include "sim/scheduler.h"
#include "vids/ids.h"
#include "vids/sharded_ids.h"
#include "workloads.h"

namespace replaybench {

struct Topology {
  const char* name;
  int shards;     ///< 0 = plain Vids
  int producers;
};

/// In measuring order: s3 comes last because its engine also runs the
/// paced passes, which always run in full.
inline constexpr std::array<Topology, 4> kTopologies = {{
    {"inline", 0, 0},
    {"s1", 1, 1},
    {"s2p2", 2, 2},
    {"s3", 3, 1},
}};
inline constexpr const Topology& kS3 = kTopologies[3];

/// One engine of one topology, ready to replay a capture that starts at
/// the instant it was warmed to. Replays it repeatedly in passes, each
/// shifted later by Capture::pass_shift_s (pass 0 first).
struct Engine {
  const Topology* topology = nullptr;
  std::unique_ptr<vids::sim::Scheduler> scheduler;  ///< inline only
  std::unique_ptr<vids::ids::Vids> vids;            ///< inline only
  std::unique_ptr<vids::ids::ShardedIds> sharded;   ///< sharded only
  double ready_ms = 0.0;  ///< construction plus the warm-up
};

/// Constructs an engine of `topology` and advances it to just before
/// `start_ns`: a plain Vids runs its scheduler there, a sharded engine
/// Flush()es there.
Engine BuildEngine(const Topology& topology, int64_t start_ns);

struct ReplayResult {
  uint64_t packets = 0;
  double wall_s = 0.0;  ///< decode through the final RunUntil / Flush
  double cpu_s = 0.0;   ///< process CPU time over the same interval
  double steal_s = 0.0; ///< host CPU time stolen over the same interval
  bool source_ok = false;
  /// Only set by SampledInlineReplay: every decoded packet carried the
  /// timestamp the capture recorded for it.
  bool timestamps_match = true;
  std::vector<CanonicalAlert> alerts;
  double PacketsPerSecond() const {
    return wall_s > 0.0 ? static_cast<double>(packets) / wall_s : 0.0;
  }
};

/// As-fast-as-possible replay of pass `pass` of the in-memory capture
/// through the public driver. The alerts returned are the pass's own,
/// shifted back to pass 0's clock.
ReplayResult TimedReplay(const Capture& capture, Engine& engine, int pass);

/// Peaks of the inline engine's state, sampled from outside once per
/// second of capture time and at end of stream.
struct StatePeaks {
  size_t fact_bytes = 0;
  size_t calls = 0;
  size_t tombstones = 0;
  size_t keyed = 0;
  size_t media_index = 0;
  size_t behavior_profiles = 0;
  size_t behavior_bytes = 0;
  size_t total_bytes = 0;  ///< max of fact + behavior bytes at one sample
};

/// Untimed inline replay that samples state; its alerts are the reference
/// every other replay is compared with.
ReplayResult SampledInlineReplay(const Capture& capture, Engine engine,
                                 StatePeaks* peaks);

class SpanRecorder;

/// Paced open-loop replay of pass `pass` through a single-producer sharded
/// engine at `rate` packets per second. With `spans`, its PullBatch, Pump,
/// Ingest and Flush calls are recorded.
struct PacedResult {
  double wall_s = 0.0;
  double steal_s = 0.0;  ///< host CPU time stolen during the pass
  DetectionLatency detection;
  std::vector<double> late_us;
  std::vector<CanonicalAlert> alerts;
  bool source_ok = false;
};
PacedResult PacedReplay(const Capture& capture, Engine& engine, double rate,
                        int pass, SpanRecorder* spans = nullptr);

/// One span of the traced run: a call into a module, timed from the
/// benchmark's side. Spans of one packet share `packet`.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t packet = 0;
  int32_t parent = -1;  ///< index of the enclosing span, -1 for the root
  uint8_t name = 0;     ///< a SpanName
};

enum SpanName : uint8_t {
  kSpanReplay,
  kSpanPullBatch,
  kSpanRunUntil,
  kSpanInspect,
  kSpanIngest,
  kSpanPump,
  kSpanFlush,
  kSpanMpIngest,
  kSpanMpFinish,
  kSpanNames,
};
const char* SpanNameString(uint8_t name);

/// Spans held in memory during a traced replay (up to a cap; every call is
/// still summed into the per-name totals) and written out at the end.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t cap) : cap_(cap) { spans_.reserve(cap); }
  int32_t Add(uint8_t name, int64_t start_ns, int64_t end_ns, uint64_t packet,
              int32_t parent);
  /// Re-stamps an already added span's end (the root closes last).
  void SetEnd(int32_t index, int64_t end_ns);
  int64_t total_ns(uint8_t name) const { return total_ns_[name]; }
  /// Writes the held spans as TSV (name, start, end, parent, packet).
  bool WriteTsv(const std::string& path) const;

 private:
  size_t cap_;
  std::vector<Span> spans_;
  std::array<int64_t, kSpanNames> total_ns_{};
  uint64_t dropped_ = 0;
};

/// Per-layer measurements of one traced replay, by metric name.
struct TracedResult {
  ReplayResult replay;
  std::map<std::string, double> metrics;
};

/// Traced replay of `topology`: spans around PullBatch, RunUntil, Inspect,
/// Ingest, Pump and Flush, allocation counts on the replay thread, and the
/// engine's own counters read after the drain, plus the engine's
/// construction and warm-up time as <topology>.engine_ready_ms. Metric names are prefixed
/// by layer (capture., sim., vids., sharded., ...) as BENCHMARK.json lists
/// them. `span_path`, when not empty, receives the spans.
TracedResult TracedReplay(const Capture& capture, Engine engine,
                          const std::string& span_path);

/// Standalone passes over the capture: PacketClassifier::Classify by
/// bucket and LazyMessage::Index over every SIP payload, timed in batches.
std::map<std::string, double> StandaloneParsePasses(const Capture& capture);

}  // namespace replaybench
