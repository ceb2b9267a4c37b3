// RunSource: the drivers that feed a PacketSource into the engine.
//
// All drivers replay at recorded timestamps into the sim scheduler(s), so
// TTL sweeps, aggregate windows and the watchdog see a clock consistent
// with the traffic: before each packet is inspected every engine-internal
// timer due at or before its arrival instant fires (the same
// timer-before-same-time-packet order the sharded WorkerLoop uses), and at
// end of stream the engine runs up to the source's vouched clock() so
// trailing windows close exactly where the capture ended.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "capture/packet_source.h"
#include "sim/scheduler.h"
#include "vids/ids.h"
#include "vids/sharded_ids.h"

namespace vids::capture {

struct ReplayStats {
  uint64_t packets = 0;  ///< datagrams delivered to the engine
  uint64_t batches = 0;  ///< PullBatch calls that yielded packets
  sim::Time end;         ///< source clock() at end of stream
  bool ok = false;       ///< error() was empty at end of stream
};

/// Forwards every packet to ShardedIds::Ingest; Finish() does nothing.
/// Kept for replaybench, which still drives its `producers` topology
/// through it; goes with the benchmark's next revision.
class MpIngest {
 public:
  MpIngest(ids::ShardedIds& engine, int /*producers*/) : engine_(engine) {}
  void Ingest(const net::Datagram& dgram, bool from_outside, sim::Time when) {
    engine_.Ingest(dgram, from_outside, when);
  }
  void Finish() {}

 private:
  ids::ShardedIds& engine_;
};

/// Replays into a single-threaded Vids on `scheduler`.
ReplayStats RunSource(PacketSource& source, ids::Vids& vids,
                      sim::Scheduler& scheduler, size_t batch_size = 64);

/// Replays into the sharded engine. Each Ingest carries the source
/// timestamp (the workers' private schedulers advance on the source
/// clock); a final Flush(source.clock()) drains every ring and fires
/// everything up to stream end.
ReplayStats RunSource(PacketSource& source, ids::ShardedIds& engine,
                      size_t batch_size = 64);

/// Same as the overload above; `producers` is ignored. Kept for
/// replaybench; goes with the benchmark's next revision.
ReplayStats RunSource(PacketSource& source, ids::ShardedIds& engine,
                      int producers, size_t batch_size);

}  // namespace vids::capture
