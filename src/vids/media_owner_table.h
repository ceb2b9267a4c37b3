// Media-endpoint → owning-shard routing map of the sharded engine.
//
// The router (ShardedIds::Ingest, one thread) reads the SDP of the SIP it
// routes with sdp::ProbeAudio, the classifier's reader: the endpoint that
// reader yields belongs to the shard of the call that negotiated it.
// This map records that binding plus a last-seen stamp per endpoint. It is
// owned and used by the router thread only, so it is a plain hash map.
// Claims apply in arrival order (the newest claim owns the endpoint), every
// lookup and claim refreshes the entry's last-seen stamp, and Prune() drops
// entries idle past the engine's state horizon.
#pragma once

#include <cstdint>
#include <unordered_map>

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
    owners_.reserve(capacity);
  }

  /// The shard owning `key`, or -1 when no call negotiated it. A hit
  /// refreshes the entry's idle stamp to `t_ns`.
  int Owner(uint64_t key, int64_t t_ns) {
    const auto it = owners_.find(key);
    if (it == owners_.end()) return -1;
    it->second.last_seen = t_ns;
    return it->second.shard;
  }

  /// Endpoint `key` is claimed by `shard` at `t_ns`. Returns the edge this
  /// claim creates, if any (shard == -1 when none): the previous owner of a
  /// renegotiated endpoint, or `hash_shard` on the first claim.
  RetractEdge Claim(uint64_t key, int shard, int64_t t_ns, int hash_shard) {
    const auto [it, inserted] = owners_.try_emplace(key, Entry{t_ns, shard});
    Entry& e = it->second;
    RetractEdge edge;
    if (inserted) {
      if (hash_shard != shard) edge = {hash_shard, true};
      return edge;
    }
    if (e.shard != shard) edge = {e.shard, false};
    if (t_ns > e.last_seen) e.last_seen = t_ns;
    e.shard = shard;
    return edge;
  }

  /// Drops entries idle past `horizon_ns` (no lookup or claim refreshed
  /// them since `now_ns - horizon_ns`).
  void Prune(int64_t now_ns, int64_t horizon_ns) {
    std::erase_if(owners_, [&](const auto& kv) {
      return now_ns - kv.second.last_seen > horizon_ns;
    });
  }

  size_t size() const { return owners_.size(); }

  /// Heap bytes: the bucket array plus one node per entry.
  size_t MemoryBytes() const {
    return owners_.bucket_count() * sizeof(void*) +
           owners_.size() * (sizeof(void*) + sizeof(Map::value_type));
  }

 private:
  struct Entry {
    int64_t last_seen = 0;
    int shard = -1;
  };
  using Map = std::unordered_map<uint64_t, Entry>;

  Map owners_;
};

}  // namespace vids::ids
