// Media-endpoint → owning-shard routing map of the sharded engine.
//
// The router (ShardedIds::Ingest, one thread) snoops SDP on the SIP it
// routes: an endpoint belongs to the shard of the call that negotiated it.
// This map records that binding plus a last-seen stamp per endpoint. It is
// owned and used by the router thread only, so it is a plain open-addressing
// table over a power-of-two slot array: no atomics, no locks. Claims apply
// in arrival order (the newest claim owns the endpoint), every lookup and
// claim refreshes the entry's last-seen stamp, and Prune() drops entries
// idle past the engine's state horizon.
#pragma once

#include <cstdint>
#include <vector>

namespace vids::ids {

class MediaOwnerTable {
 public:
  /// Up to one ownership-transition edge per claim: the losing shard must
  /// drop its endpoint counters. `early` marks the first-claim retract
  /// aimed at the hash-fallback shard (media that arrived before its
  /// negotiation was hash-routed there).
  struct RetractEdge {
    int shard = -1;
    bool early = false;
  };

  explicit MediaOwnerTable(size_t capacity = 1024) {
    size_t cap = 16;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
  }

  /// The shard owning `key`, or -1 when no call negotiated it. A hit
  /// refreshes the entry's idle stamp to `t_ns`.
  int Owner(uint64_t key, int64_t t_ns) {
    Entry& e = FindSlot(slots_, key);
    if (e.key == 0) return -1;
    e.last_seen = t_ns;
    return e.shard;
  }

  /// Endpoint `key` is claimed by `shard` at `t_ns`. Returns the edge this
  /// claim creates, if any (shard == -1 when none): the previous owner of a
  /// renegotiated endpoint, or `hash_shard` on the first claim.
  RetractEdge Claim(uint64_t key, int shard, int64_t t_ns, int hash_shard) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Rehash(slots_.size() * 2);
    Entry& e = FindSlot(slots_, key);
    RetractEdge edge;
    if (e.key == 0) {
      e.key = key;
      e.last_seen = t_ns;
      ++size_;
      if (hash_shard != shard) edge = {hash_shard, true};
    } else {
      if (e.shard != shard) edge = {e.shard, false};
      if (t_ns > e.last_seen) e.last_seen = t_ns;
    }
    e.shard = shard;
    return edge;
  }

  /// Drops entries idle past `horizon_ns` (no lookup or claim refreshed
  /// them since `now_ns - horizon_ns`).
  void Prune(int64_t now_ns, int64_t horizon_ns) {
    size_t live = 0;
    for (const Entry& e : slots_) {
      if (e.key != 0 && now_ns - e.last_seen <= horizon_ns) ++live;
    }
    size_t cap = 16;
    while (cap * 3 < live * 4) cap <<= 1;
    std::vector<Entry> fresh(cap);
    for (const Entry& e : slots_) {
      if (e.key != 0 && now_ns - e.last_seen <= horizon_ns) {
        FindSlot(fresh, e.key) = e;
      }
    }
    slots_.swap(fresh);
    size_ = live;
  }

  size_t size() const { return size_; }

  /// Heap bytes of the slot array.
  size_t MemoryBytes() const { return slots_.capacity() * sizeof(Entry); }

 private:
  struct Entry {
    uint64_t key = 0;  // 0 = empty (PackedKey 0 is unroutable)
    int64_t last_seen = 0;
    int shard = -1;
  };

  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Probe for `key`'s slot (or the empty slot where it belongs); the load
  /// factor cap guarantees an empty slot, hence termination.
  static Entry& FindSlot(std::vector<Entry>& slots, uint64_t key) {
    const size_t mask = slots.size() - 1;
    size_t idx = Mix(key) & mask;
    for (;;) {
      Entry& e = slots[idx];
      if (e.key == 0 || e.key == key) return e;
      idx = (idx + 1) & mask;
    }
  }

  void Rehash(size_t cap) {
    std::vector<Entry> fresh(cap);
    for (const Entry& e : slots_) {
      if (e.key != 0) FindSlot(fresh, e.key) = e;
    }
    slots_.swap(fresh);
  }

  std::vector<Entry> slots_;
  size_t size_ = 0;
};

}  // namespace vids::ids
