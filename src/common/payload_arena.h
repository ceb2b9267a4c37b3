// Fixed-slot payload arena paired 1:1 with a ring's slots.
//
// The sharded ingest path (src/vids/sharded_ids.*) moves datagram payload
// bytes from the router to a shard worker through an SPSC ring. A
// naive design would keep a std::string per ring slot and assign into it;
// that works (capacity is reused across laps), but the strings' heap blocks
// land wherever the allocator put them, so a producer filling a batch and a
// worker draining one walk scattered cache lines. The arena replaces those
// scattered blocks with ONE contiguous slab per ring:
//
//  - `slots * slot_bytes` bytes, allocated once at construction. Slot i of
//    the arena belongs to slot i of the ring (same index: the producer
//    writes arena.Slot(ring.ProducerNextIndex()) right before BeginPushN,
//    the consumer reads arena.Slot(ring.ConsumerIndex(i))).
//  - A payload that fits `slot_bytes` is memcpy'd into the slab; the ring
//    message carries only its length. Oversized payloads (rare: jumbo SIP
//    bodies) fall back to the ring slot's own string — the arena is a fast
//    path, never a correctness constraint.
//  - Slot bytes are reused in place exactly like ring slots, so the
//    steady-state handoff allocates nothing and the ring's working set is
//    one slab the hardware prefetcher can follow.
//
// Synchronization is inherited from the paired ring: the producer writes a
// slot strictly before CommitPushN's release store publishes the owning
// ring index, and the consumer reads it only after FrontN's acquire load —
// the same happens-before edge that covers the ring slot covers the arena
// slot. The arena itself holds no atomics.
#pragma once

#include <cstddef>
#include <cstring>
#include <vector>

namespace vids::common {

class PayloadArena {
 public:
  /// `slots` should equal the paired ring's capacity(); `slot_bytes` is the
  /// largest payload stored inline (larger ones take the caller's fallback
  /// path).
  PayloadArena(size_t slots, size_t slot_bytes)
      : slot_bytes_(slot_bytes), bytes_(slots * slot_bytes) {}

  PayloadArena(const PayloadArena&) = delete;
  PayloadArena& operator=(const PayloadArena&) = delete;

  size_t slot_bytes() const { return slot_bytes_; }
  bool Fits(size_t n) const { return n <= slot_bytes_; }

  /// Copies `n` bytes (n must satisfy Fits) into slot `index`.
  void Store(size_t index, const char* data, size_t n) {
    std::memcpy(bytes_.data() + index * slot_bytes_, data, n);
  }

  /// The slot's bytes; valid until the paired ring slot is reused.
  const char* Slot(size_t index) const {
    return bytes_.data() + index * slot_bytes_;
  }

  /// Slab footprint, for MemoryBytes() accounting.
  size_t MemoryBytes() const { return bytes_.capacity(); }

 private:
  size_t slot_bytes_;
  std::vector<char> bytes_;
};

}  // namespace vids::common
