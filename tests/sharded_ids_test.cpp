// Tests of the sharded multi-worker engine: SPSC ring semantics, the
// shards=N vs shards=1 vs plain-Vids alert-equivalence guarantee, ring
// backpressure (stall, never drop), and cross-shard media-ownership
// transfer. The threaded cases double as the TSan stress surface — CI
// runs this binary under -fsanitize=thread, scaled up via
// SHARDED_STRESS_PACKETS.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "obs/flight_recorder.h"

#include "common/spsc_ring.h"
#include "rtp/packet.h"
#include "sdp/sdp.h"
#include "sip/message.h"
#include "vids/alert.h"
#include "vids/ids.h"
#include "vids/patterns.h"
#include "vids/sharded_ids.h"

namespace vids::ids {
namespace {

// ------------------------------------------------------------ SpscRing

TEST(SpscRing, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(common::SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(common::SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(common::SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(common::SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRing, FifoAcrossWraparound) {
  common::SpscRing<int> ring(4);
  EXPECT_EQ(ring.Front(), nullptr);  // empty
  int next_push = 0;
  int next_pop = 0;
  // Many full/empty cycles so head and tail wrap the 4-slot buffer often.
  for (int round = 0; round < 100; ++round) {
    while (int* slot = ring.BeginPush()) {
      *slot = next_push++;
      ring.CommitPush();
    }
    EXPECT_EQ(ring.SizeApprox(), ring.capacity());
    EXPECT_EQ(ring.BeginPush(), nullptr);  // full: rejected, not overwritten
    while (int* front = ring.Front()) {
      EXPECT_EQ(*front, next_pop++);
      ring.Pop();
    }
    EXPECT_EQ(ring.Front(), nullptr);
  }
  EXPECT_EQ(next_push, next_pop);
  EXPECT_EQ(next_push, 400);
}

TEST(SpscRing, SlotsAreReusedInPlace) {
  // The zero-allocation handoff depends on Pop() leaving the slot object
  // alive: after a full lap, BeginPush must hand back the same object
  // (same address, warm string capacity) it handed out last lap.
  common::SpscRing<std::string> ring(2);
  std::string* first = ring.BeginPush();
  ASSERT_NE(first, nullptr);
  first->assign("warm-capacity-probe-string");
  const size_t capacity_before = first->capacity();
  ring.CommitPush();
  ring.Pop();
  std::string* second = ring.BeginPush();  // slot 1
  ASSERT_NE(second, nullptr);
  ring.CommitPush();
  ring.Pop();
  std::string* again = ring.BeginPush();  // back to slot 0
  ASSERT_EQ(again, first);
  EXPECT_GE(again->capacity(), capacity_before);
}

TEST(SpscRing, TwoThreadStressKeepsOrderAndLosesNothing) {
  const int n = [] {
    if (const char* s = std::getenv("SHARDED_STRESS_PACKETS")) {
      return std::max(1000, std::atoi(s));
    }
    return 200'000;
  }();
  common::SpscRing<int> ring(64);
  std::thread producer([&] {
    for (int i = 0; i < n;) {
      if (int* slot = ring.BeginPush()) {
        *slot = i++;
        ring.CommitPush();
      } else {
        std::this_thread::yield();
      }
    }
  });
  int expected = 0;
  long long sum = 0;
  while (expected < n) {
    if (int* front = ring.Front()) {
      ASSERT_EQ(*front, expected);  // strict FIFO under concurrency
      sum += *front;
      ++expected;
      ring.Pop();
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(sum, static_cast<long long>(n) * (n - 1) / 2);
  EXPECT_EQ(ring.Front(), nullptr);
}

TEST(SpscRingBatched, WraparoundAtCapacityBoundaries) {
  // Batches of every size from 1 to capacity, pushed/popped repeatedly so
  // the open batch regularly straddles the index wraparound.
  common::SpscRing<int> ring(8);
  const size_t cap = ring.capacity();
  int next_push = 0;
  int next_pop = 0;
  for (size_t batch = 1; batch <= cap; ++batch) {
    for (int round = 0; round < 25; ++round) {
      size_t pushed = 0;
      while (pushed < batch) {
        int* slot = ring.BeginPushN();
        ASSERT_NE(slot, nullptr);  // ring is drained between rounds
        *slot = next_push++;
        ++pushed;
      }
      EXPECT_EQ(ring.open_push(), batch);
      ring.CommitPushN();
      EXPECT_EQ(ring.open_push(), 0u);
      const size_t n = ring.FrontN(cap);
      ASSERT_EQ(n, batch);
      for (size_t i = 0; i < n; ++i) EXPECT_EQ(ring.At(i), next_pop++);
      ring.PopN(n);
      EXPECT_EQ(ring.FrontN(cap), 0u);
    }
  }
  EXPECT_EQ(next_push, next_pop);
}

TEST(SpscRingBatched, PartialBatchInvisibleUntilCommit) {
  common::SpscRing<int> ring(8);
  // Reserved-but-uncommitted slots must not be readable…
  for (int i = 0; i < 3; ++i) {
    int* slot = ring.BeginPushN();
    ASSERT_NE(slot, nullptr);
    *slot = i;
    EXPECT_EQ(ring.FrontN(8), 0u) << "uncommitted slot leaked to consumer";
  }
  // …but they do count against capacity: the ring is full counting the
  // open batch, and rejects rather than hands out an in-flight slot twice.
  for (int i = 3; i < 8; ++i) {
    int* slot = ring.BeginPushN();
    ASSERT_NE(slot, nullptr);
    *slot = i;
  }
  EXPECT_EQ(ring.BeginPushN(), nullptr);
  ring.CommitPushN();  // one publish for all 8
  ASSERT_EQ(ring.FrontN(8), 8u);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(ring.At(i), static_cast<int>(i));
  ring.PopN(8);
}

TEST(SpscRingBatched, InterleavedSingleAndBatchedOps) {
  // Single push/pop is the K = 1 case of the batched machinery, so mixing
  // them must preserve FIFO exactly.
  common::SpscRing<int> ring(8);
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 50; ++round) {
    // Two singles, then a batch of three.
    for (int i = 0; i < 2; ++i) {
      int* slot = ring.BeginPush();
      ASSERT_NE(slot, nullptr);
      *slot = next_push++;
      ring.CommitPush();
    }
    for (int i = 0; i < 3; ++i) {
      int* slot = ring.BeginPushN();
      ASSERT_NE(slot, nullptr);
      *slot = next_push++;
    }
    ring.CommitPushN();
    // One single pop, then drain the rest batched.
    int* front = ring.Front();
    ASSERT_NE(front, nullptr);
    EXPECT_EQ(*front, next_pop++);
    ring.Pop();
    const size_t n = ring.FrontN(8);
    ASSERT_EQ(n, 4u);
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(ring.At(i), next_pop++);
    ring.PopN(n);
  }
  EXPECT_EQ(next_push, next_pop);
}

TEST(SpscRingBatched, TwoThreadStressKeepsOrderAndLosesNothing) {
  // The batched analog of the single-op stress above, and the TSan surface
  // for the one-release-store-per-batch publish: producer commits variable
  // partial batches, consumer drains variable batch sizes.
  const int n = [] {
    if (const char* s = std::getenv("SHARDED_STRESS_PACKETS")) {
      return std::max(1000, std::atoi(s));
    }
    return 200'000;
  }();
  common::SpscRing<int> ring(64);
  std::thread producer([&] {
    int i = 0;
    while (i < n) {
      // Vary the batch size so commits land on every ring offset.
      const int want = 1 + (i % 7);
      int reserved = 0;
      while (reserved < want && i < n) {
        int* slot = ring.BeginPushN();
        if (slot == nullptr) break;  // full: publish what we have
        *slot = i++;
        ++reserved;
      }
      if (reserved > 0) {
        ring.CommitPushN();
      } else {
        std::this_thread::yield();
      }
    }
  });
  int expected = 0;
  long long sum = 0;
  while (expected < n) {
    const size_t avail = ring.FrontN(1 + static_cast<size_t>(expected % 13));
    if (avail == 0) {
      std::this_thread::yield();
      continue;
    }
    for (size_t i = 0; i < avail; ++i) {
      ASSERT_EQ(ring.At(i), expected);  // strict FIFO under concurrency
      sum += ring.At(i);
      ++expected;
    }
    ring.PopN(avail);
  }
  producer.join();
  EXPECT_EQ(sum, static_cast<long long>(n) * (n - 1) / 2);
  EXPECT_EQ(ring.FrontN(1), 0u);
}

// ------------------------------------------------- trace infrastructure

const net::Endpoint kProxyA{net::IpAddress(10, 1, 0, 1), 5060};
const net::Endpoint kProxyB{net::IpAddress(10, 2, 0, 1), 5060};
const net::Endpoint kAttacker{net::IpAddress(10, 9, 0, 66), 5060};

struct TracePacket {
  net::Datagram dgram;
  bool from_outside = true;
  sim::Time when;
};

net::Datagram SipDgram(const sip::Message& message, net::Endpoint src,
                       net::Endpoint dst) {
  net::Datagram dgram;
  dgram.src = src;
  dgram.dst = dst;
  dgram.payload = message.Serialize();
  dgram.kind = net::PayloadKind::kSip;
  return dgram;
}

net::Datagram RtpDgram(uint32_t ssrc, uint16_t seq, uint32_t ts,
                       net::Endpoint src, net::Endpoint dst) {
  rtp::RtpHeader header;
  header.ssrc = ssrc;
  header.sequence_number = seq;
  header.timestamp = ts;
  header.payload_type = 18;
  net::Datagram dgram;
  dgram.src = src;
  dgram.dst = dst;
  dgram.payload = header.Serialize();
  dgram.kind = net::PayloadKind::kRtp;
  return dgram;
}

sip::Message MakeInvite(const std::string& call_id, const std::string& callee,
                        net::Endpoint offer_media, net::Endpoint via_sentby) {
  auto invite = sip::Message::MakeRequest(
      sip::Method::kInvite,
      *sip::SipUri::Parse("sip:" + callee + "@b.example.com"));
  sip::Via via;
  via.sent_by = via_sentby;
  via.branch = "z9hG4bK" + call_id;
  invite.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
  from.SetTag("tag-" + call_id);
  invite.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:" + callee + "@b.example.com");
  invite.SetTo(to);
  invite.SetCallId(call_id);
  invite.SetCseq(sip::CSeq{1, sip::Method::kInvite});
  invite.SetBody(sdp::MakeAudioOffer(offer_media).Serialize(),
                 "application/sdp");
  return invite;
}

sip::Message MakeResponse(const sip::Message& request, int status,
                          std::optional<net::Endpoint> answer_media) {
  auto response = sip::Message::MakeResponse(status);
  for (const auto via : request.Headers("Via")) {
    response.AddHeader("Via", via);
  }
  response.SetFrom(*request.From());
  auto to = *request.To();
  to.SetTag("tag-callee");
  response.SetTo(to);
  response.SetCallId(std::string(*request.CallId()));
  response.SetCseq(*request.Cseq());
  if (answer_media) {
    response.SetBody(sdp::MakeAudioOffer(*answer_media).Serialize(),
                     "application/sdp");
  }
  return response;
}

sip::Message MakeInDialog(sip::Method method, const std::string& call_id,
                          uint32_t cseq, net::Endpoint via_sentby) {
  auto request = sip::Message::MakeRequest(
      method, *sip::SipUri::Parse("sip:bob@b.example.com"));
  sip::Via via;
  via.sent_by = via_sentby;
  via.branch = "z9hG4bK" + std::string(sip::MethodName(method)) + call_id;
  request.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
  from.SetTag("tag-" + call_id);
  request.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
  to.SetTag("tag-callee");
  request.SetTo(to);
  request.SetCallId(call_id);
  request.SetCseq(sip::CSeq{cseq, method});
  return request;
}

// REGISTER for `user`@b.example.com from `client`; `id` names the
// transaction (Via branch, From tag, Call-ID).
sip::Message MakeRegister(const std::string& user, const std::string& id,
                          net::Endpoint client) {
  auto reg = sip::Message::MakeRequest(
      sip::Method::kRegister, *sip::SipUri::Parse("sip:b.example.com"));
  sip::Via via;
  via.sent_by = client;
  via.branch = "z9hG4bK" + id;
  reg.PushVia(via);
  sip::NameAddr aor;
  aor.uri = *sip::SipUri::Parse("sip:" + user + "@b.example.com");
  reg.SetTo(aor);
  aor.SetTag("tag-" + id);
  reg.SetFrom(aor);
  reg.SetCallId(id + "@trace");
  reg.SetCseq(sip::CSeq{1, sip::Method::kRegister});
  return reg;
}

// Builds an attack-scenario trace with monotonically increasing timestamps.
// All steps are 17 ms — deliberately off every detection-window boundary so
// timer-vs-packet ties can't depend on floating sweep cadence.
class TraceBuilder {
 public:
  void Step() { now_ = now_ + sim::Duration::Millis(17); }

  void Add(net::Datagram dgram, bool from_outside) {
    trace_.push_back({std::move(dgram), from_outside, now_});
  }

  // Benign INVITE/180/200/ACK handshake negotiating both media endpoints.
  void EstablishCall(const std::string& call_id, net::Endpoint caller_media,
                     net::Endpoint callee_media) {
    const auto invite = MakeInvite(call_id, "bob", caller_media, kProxyA);
    Add(SipDgram(invite, kProxyA, kProxyB), true);
    Step();
    Add(SipDgram(MakeResponse(invite, 180, std::nullopt), kProxyB, kProxyA),
        false);
    Step();
    Add(SipDgram(MakeResponse(invite, 200, callee_media), kProxyB, kProxyA),
        false);
    Step();
    Add(SipDgram(MakeInDialog(sip::Method::kAck, call_id, 1, caller_media),
                 caller_media, callee_media),
        true);
    Step();
  }

  const std::vector<TracePacket>& trace() const { return trace_; }
  sim::Time now() const { return now_; }

 private:
  std::vector<TracePacket> trace_;
  sim::Time now_ = sim::Time::FromNanos(0);
};

// Everything that must be identical across engine shapes.
using AlertSig =
    std::tuple<int64_t, int, std::string, std::string, std::string,
               std::string, std::string>;

AlertSig SigOf(const Alert& alert) {
  return {alert.when.nanos(), static_cast<int>(alert.kind),
          alert.classification, alert.group, alert.machine, alert.detail,
          alert.trigger};
}

std::vector<AlertSig> SortedSigs(const std::vector<Alert>& alerts) {
  std::vector<AlertSig> sigs;
  sigs.reserve(alerts.size());
  for (const Alert& alert : alerts) sigs.push_back(SigOf(alert));
  std::sort(sigs.begin(), sigs.end());
  return sigs;
}

std::vector<Alert> RunPlain(const std::vector<TracePacket>& trace) {
  sim::Scheduler scheduler;
  Vids vids(scheduler);
  for (const TracePacket& p : trace) {
    if (p.when > scheduler.Now()) scheduler.RunUntil(p.when);
    vids.Inspect(p.dgram, p.from_outside);
  }
  return vids.alerts();
}

std::vector<Alert> RunShardedCfg(const std::vector<TracePacket>& trace,
                                 ShardedConfig config) {
  ShardedIds engine(config);
  sim::Time last;
  for (const TracePacket& p : trace) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
    last = p.when;
  }
  engine.Flush(last);
  engine.Stop();
  return engine.alerts();
}

std::vector<Alert> RunSharded(const std::vector<TracePacket>& trace,
                              int shards) {
  ShardedConfig config;
  config.shards = shards;
  return RunShardedCfg(trace, config);
}

// Benign calls interleaved with every attack scenario whose detection the
// sharded engine re-plumbs: the two cross-call aggregates (INVITE flood,
// DRDoS) plus call-local attacks (BYE DoS, CANCEL DoS, RTP flood) that
// must keep working untouched on whatever shard their state hashed to.
std::vector<TracePacket> AttackScenarioTrace() {
  TraceBuilder b;
  DetectionConfig detection;

  // A few benign calls with media on distinct Call-IDs/endpoints.
  for (int c = 0; c < 4; ++c) {
    const std::string call_id = "benign-" + std::to_string(c) + "@trace";
    const net::Endpoint caller{net::IpAddress(10, 1, 0, 10),
                               static_cast<uint16_t>(20000 + 2 * c)};
    const net::Endpoint callee{net::IpAddress(10, 2, 0, 10),
                               static_cast<uint16_t>(30000 + 2 * c)};
    b.EstablishCall(call_id, caller, callee);
    for (int i = 1; i <= 6; ++i) {
      b.Add(RtpDgram(0x600u + static_cast<uint32_t>(c),
                     static_cast<uint16_t>(i), 160u * static_cast<uint32_t>(i),
                     caller, callee),
            true);
      b.Step();
    }
  }

  // BYE DoS: a spoofed BYE from a third party against an open call.
  b.EstablishCall("bye-dos@trace", {net::IpAddress(10, 1, 0, 11), 21000},
                  {net::IpAddress(10, 2, 0, 11), 31000});
  b.Add(SipDgram(MakeInDialog(sip::Method::kBye, "bye-dos@trace", 9,
                              kAttacker),
                 kAttacker, kProxyB),
        true);
  b.Step();

  // CANCEL DoS: pending INVITE answered by a foreign-source CANCEL.
  {
    const auto invite =
        MakeInvite("cancel-dos@trace", "carol",
                   {net::IpAddress(10, 1, 0, 12), 22000}, kProxyA);
    b.Add(SipDgram(invite, kProxyA, kProxyB), true);
    b.Step();
    b.Add(SipDgram(MakeResponse(invite, 180, std::nullopt), kProxyB, kProxyA),
          false);
    b.Step();
    auto cancel = sip::Message::MakeRequest(
        sip::Method::kCancel, *sip::SipUri::Parse("sip:carol@b.example.com"));
    for (const auto via : invite.Headers("Via")) {
      cancel.AddHeader("Via", via);
    }
    cancel.SetFrom(*invite.From());
    cancel.SetTo(*invite.To());
    cancel.SetCallId("cancel-dos@trace");
    cancel.SetCseq(sip::CSeq{1, sip::Method::kCancel});
    b.Add(SipDgram(cancel, kAttacker, kProxyB), true);
    b.Step();
  }

  // INVITE flood: distinct Call-IDs (hence scattered across shards) aimed
  // at one AOR — the aggregate the coordinator must count globally.
  for (int k = 0; k <= detection.invite_flood_threshold + 2; ++k) {
    const std::string call_id = "flood-" + std::to_string(k) + "@trace";
    b.Add(SipDgram(MakeInvite(call_id, "floodee",
                              net::Endpoint{kAttacker.ip, 42000}, kAttacker),
                   kAttacker, kProxyB),
          true);
    b.Step();
  }

  // DRDoS reflection: unsolicited 200s, each a fresh Call-ID, converging on
  // one victim host — the other cross-shard aggregate.
  {
    const net::Endpoint victim{net::IpAddress(10, 9, 1, 77), 5060};
    const auto probe = MakeInvite(
        "refl-probe", "victim", {net::IpAddress(10, 1, 0, 30), 23000},
        kProxyB);
    for (int k = 0; k <= detection.drdos_threshold + 2; ++k) {
      auto response = MakeResponse(probe, 200, std::nullopt);
      response.SetCallId("refl-" + std::to_string(k) + "@trace");
      b.Add(SipDgram(response, kProxyB, victim), false);
      b.Step();
    }
  }

  // RTP flood at one (unnegotiated) victim endpoint. Single key, so it
  // lands wholly on one shard — must alert there exactly as in the plain
  // engine. Tight spacing: the threshold must be crossed inside one window.
  {
    const net::Endpoint victim{net::IpAddress(10, 2, 9, 5), 40000};
    const net::Endpoint source{net::IpAddress(10, 9, 0, 66), 41000};
    for (int k = 0; k <= detection.rtp_flood_threshold + 10; ++k) {
      b.Add(RtpDgram(0xF100Du, static_cast<uint16_t>(k),
                     160u * static_cast<uint32_t>(k), source, victim),
            true);
      if (k % 50 == 49) b.Step();  // stay well inside the 1 s window
    }
    b.Step();
  }

  return b.trace();
}

// ------------------------------------------------------- equivalence

TEST(ShardedEquivalence, ShardSweepMatchesPlainVids) {
  const auto trace = AttackScenarioTrace();
  const auto plain = SortedSigs(RunPlain(trace));
  ASSERT_FALSE(plain.empty());  // the trace must actually trigger attacks
  for (int shards : {1, 2, 4, 8}) {
    EXPECT_EQ(plain, SortedSigs(RunSharded(trace, shards)))
        << "shards=" << shards;
  }
}

std::string RenderedAlerts(const std::vector<Alert>& alerts) {
  std::string out;
  for (const Alert& alert : alerts) {
    out += alert.ToString();
    out += '\n';
  }
  return out;
}

TEST(ShardedEquivalence, AlertStreamByteIdenticalAcrossShards) {
  // Stronger than signature equality: the canonically ordered retained
  // history must RENDER identically for every shard count — the same
  // byte-for-byte gate the soak and the CI corpus replay enforce.
  const auto trace = AttackScenarioTrace();
  const std::string reference = RenderedAlerts(RunSharded(trace, 4));
  ASSERT_FALSE(reference.empty());
  for (int shards : {1, 2, 8}) {
    EXPECT_EQ(reference, RenderedAlerts(RunSharded(trace, shards)))
        << "shards=" << shards;
  }
}

TEST(ShardedEquivalence, MidStreamFlushKeepsAlertsIdentical) {
  // The soak's sampling protocol — Flush mid-stream, read state, keep
  // ingesting — must not move a single alert byte. Flush only between
  // distinct instants, as real sample timers do.
  const auto trace = AttackScenarioTrace();
  const std::string reference = RenderedAlerts(RunSharded(trace, 4));
  ShardedConfig config;
  config.shards = 4;
  ShardedIds engine(config);
  sim::Time last;
  for (size_t i = 0; i < trace.size(); ++i) {
    engine.Ingest(trace[i].dgram, trace[i].from_outside, trace[i].when);
    last = trace[i].when;
    if (i % 97 == 96 && i + 1 < trace.size() &&
        trace[i + 1].when > trace[i].when) {
      engine.Flush(last);
    }
  }
  engine.Flush(last);
  engine.Stop();
  EXPECT_EQ(reference, RenderedAlerts(engine.alerts()));
}

TEST(ShardedEquivalence, BatchingKnobsNeverChangeAlerts) {
  // The alert multiset must be invariant across the batching matrix: a
  // 2-slot ring (almost every push backpressures and commits early) and a
  // deep ring (batches commit only at kBatchMax or the deadline), against
  // the default 4-shard engine on the same trace.
  const auto trace = AttackScenarioTrace();
  const auto baseline = SortedSigs(RunSharded(trace, 4));  // defaults
  EXPECT_FALSE(baseline.empty());

  ShardedConfig tiny;
  tiny.shards = 4;
  tiny.ring_capacity = 2;
  EXPECT_EQ(baseline, SortedSigs(RunShardedCfg(trace, tiny)));

  ShardedConfig deep;
  deep.shards = 4;
  deep.ring_capacity = 8192;
  EXPECT_EQ(baseline, SortedSigs(RunShardedCfg(trace, deep)));
}

TEST(ShardedEquivalence, TraceCoversEveryRelevantClassification) {
  // Guard the guard: if a future change silently stops the trace from
  // triggering an attack class, the equivalence tests would still "pass".
  const auto trace = AttackScenarioTrace();
  ShardedConfig config;
  config.shards = 4;
  ShardedIds engine(config);
  sim::Time last;
  for (const TracePacket& p : trace) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
    last = p.when;
  }
  engine.Flush(last);
  engine.Stop();
  EXPECT_GE(engine.CountAlerts(kAttackInviteFlood), 1u);
  EXPECT_GE(engine.CountAlerts(kAttackDrdos), 1u);
  EXPECT_GE(engine.CountAlerts(kAttackRtpFlood), 1u);
}

// ------------------------------------------------------ backpressure

TEST(ShardedBackpressure, TinyRingsStallButLoseNothing) {
  ShardedConfig config;
  config.shards = 2;
  config.ring_capacity = 2;  // virtually every burst overruns the ring
  ShardedIds engine(config);
  const sim::Time t0 = sim::Time::FromNanos(1);
  uint64_t fed = 0;
  for (int k = 0; k < 4000; ++k) {
    const net::Endpoint victim{net::IpAddress(10, 2, 9, 1),
                               static_cast<uint16_t>(40000 + 2 * (k % 8))};
    engine.Ingest(RtpDgram(0xB00Du + static_cast<uint32_t>(k % 8),
                           static_cast<uint16_t>(k),
                           160u * static_cast<uint32_t>(k),
                           {net::IpAddress(10, 9, 0, 66), 41000}, victim),
                  true, t0);
    ++fed;
  }
  engine.Flush(t0);
  uint64_t inspected = 0;
  for (int i = 0; i < engine.shards(); ++i) {
    inspected += engine.shard_vids(i).stats().packets;
  }
  EXPECT_EQ(inspected, fed);
  EXPECT_GT(engine.ingest_stalls(), 0u);
  engine.Stop();
}

// ---------------------------------------------------- aggregate hooks

TEST(AggregateHook, DrdosKeyIsVictimIpFromPacket) {
  // The DRDoS event must name the packet's destination IP itself — as the
  // dotted event key and as the address bits the window group is keyed
  // by — not an event arg that could be absent: an
  // empty-key fallback would collapse all victims into one shared window
  // counter.
  sim::Scheduler scheduler;
  Vids vids(scheduler);
  std::vector<Vids::AggregateEvent> events;
  vids.set_aggregate_hook([&](const Vids::AggregateEvent& event) {
    if (event.kind == Vids::AggregateKind::kUnsolicitedResponse) {
      events.push_back(event);
    }
  });
  const net::Endpoint victim{net::IpAddress(10, 9, 1, 77), 5060};
  const auto probe = MakeInvite(
      "refl-probe", "victim", {net::IpAddress(10, 1, 0, 30), 23000}, kProxyB);
  auto response = MakeResponse(probe, 200, std::nullopt);
  response.SetCallId("refl-key@trace");
  vids.Inspect(SipDgram(response, kProxyB, victim), false);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].key, "10.9.1.77");
  EXPECT_EQ(events[0].aux, uint64_t{victim.ip.bits()});
}

// ------------------------------------------------- coordinator behavior

TEST(ShardedBehavior, FlushReclaimsRegisterOnlyProfiles) {
  // REGISTER finals feed behavior profiles but create no window-counter
  // group, so the coordinator Vids's fact base stays empty and its sweep
  // chain never arms. Flush must still reclaim the profiles once they have
  // idled past the behavior horizon.
  ShardedConfig config;
  config.shards = 2;
  ShardedIds engine(config);
  const net::Endpoint client{net::IpAddress(10, 9, 2, 5), 5060};
  sim::Time t = sim::Time::FromNanos(0) + sim::Duration::Seconds(1);
  for (int k = 0; k < 4; ++k) {
    const std::string account = "acct-" + std::to_string(k);
    const auto reg = MakeRegister(account, "reg-" + account, client);
    engine.Ingest(SipDgram(reg, client, kProxyB), true, t);
    t = t + sim::Duration::Millis(10);
    engine.Ingest(
        SipDgram(MakeResponse(reg, 401, std::nullopt), kProxyB, client),
        false, t);
    t = t + sim::Duration::Seconds(1);
  }
  engine.Flush(t);
  EXPECT_EQ(engine.behavior().profile_count(), 4u);
  engine.Flush(t + DetectionConfig{}.behavior.IdleHorizon() +
               sim::Duration::Seconds(5));
  EXPECT_EQ(engine.behavior().profile_count(), 0u);
  engine.Stop();
}

TEST(ShardedBehavior, PumpAloneDeliversFreshBehaviorAlert) {
  // Distributed registration cracking against one account: twelve clients
  // each get a 401. The behavior alert fires on the tenth failure, a few
  // packets before the end of the stream. With no Flush() and no later
  // traffic, Pump() alone must surface it: every aggregate event ships in
  // the up-batch of the drain batch that produced it, so once the worker
  // has processed the last packet its frontier vouches for all of them.
  TraceBuilder b;
  for (int k = 0; k < 12; ++k) {
    const net::Endpoint client{
        net::IpAddress(10, 9, 3, static_cast<uint8_t>(10 + k)), 5060};
    const auto reg = MakeRegister("victim", "crack-" + std::to_string(k),
                                  client);
    b.Add(SipDgram(reg, client, kProxyB), true);
    b.Step();
    b.Add(SipDgram(MakeResponse(reg, 401, std::nullopt), kProxyB, client),
          false);
    b.Step();
  }
  const std::vector<TracePacket>& trace = b.trace();
  const std::vector<Alert> plain = RunPlain(trace);
  const auto behavior_alert =
      std::find_if(plain.begin(), plain.end(), [](const Alert& alert) {
        return alert.kind == AlertKind::kBehavior;
      });
  ASSERT_NE(behavior_alert, plain.end());
  // The evidence ends inside the 250 ms the shards once held cold events.
  ASSERT_LT(trace.back().when - behavior_alert->when,
            sim::Duration::Millis(250));

  ShardedConfig config;
  config.shards = 1;
  ShardedIds engine(config);
  for (const TracePacket& p : trace) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.alerts().size() < plain.size() &&
         std::chrono::steady_clock::now() < deadline) {
    engine.Pump();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(engine.CountAlerts(AlertKind::kBehavior), 1u);
  EXPECT_EQ(SortedSigs(plain), SortedSigs(engine.alerts()));
  engine.Stop();
}

// ----------------------------------------------------------- shutdown

TEST(ShardedShutdown, StopWithoutFlushDrainsBacklog) {
  // Regression: Stop() used to push kStop and block in join() without
  // draining the up-rings. With tiny rings and aggregate-heavy traffic a
  // worker fills its up-ring while the kStop still waits behind down-ring
  // backlog, and PushUp then blocks forever against a joining coordinator
  // (the deadlock shows up as a test timeout). Stop() must keep draining
  // until every worker has exited — and still surface every alert, since
  // the destructor takes exactly this path with no prior Flush().
  DetectionConfig detection;
  ShardedConfig config;
  config.shards = 2;
  config.ring_capacity = 2;
  ShardedIds engine(config);
  TraceBuilder b;
  b.Step();
  const net::Endpoint victim{net::IpAddress(10, 9, 1, 77), 5060};
  const auto probe = MakeInvite(
      "refl-probe", "victim", {net::IpAddress(10, 1, 0, 30), 23000}, kProxyB);
  for (int k = 0; k < detection.drdos_threshold + 50; ++k) {
    auto response = MakeResponse(probe, 200, std::nullopt);
    response.SetCallId("refl-stop-" + std::to_string(k) + "@trace");
    engine.Ingest(SipDgram(response, kProxyB, victim), false, b.now());
    b.Step();
  }
  engine.Stop();  // deliberately no Flush() first
  EXPECT_GE(engine.CountAlerts(kAttackDrdos), 1u);
}

// ------------------------------------------------ ownership transfer

TEST(ShardedOwnership, RenegotiationMovesMediaBetweenShards) {
  ShardedConfig config;
  config.shards = 4;
  ShardedIds engine(config);
  const net::Endpoint media{net::IpAddress(10, 5, 0, 10), 40000};
  TraceBuilder b;
  b.Step();
  // Call A negotiates `media`; then a sequence of calls with different
  // Call-IDs renegotiate the same endpoint. FNV scatters the Call-IDs over
  // 4 shards, so some consecutive owner pair differs and a RetractMedia
  // must cross shards (probability of all 17 landing identically: 4^-16).
  b.Add(SipDgram(MakeInvite("xfer-a@trace", "bob", media, kProxyA), kProxyA,
                 kProxyB),
        true);
  b.Step();
  for (int i = 0; i < 16; ++i) {
    const std::string call_id = "xfer-b-" + std::to_string(i) + "@trace";
    b.Add(SipDgram(MakeInvite(call_id, "bob", media, kProxyA), kProxyA,
                   kProxyB),
          true);
    b.Step();
    // In-flight media between consecutive claims: it must count on the
    // current owner only, and leave with it at the next handover.
    b.Add(RtpDgram(0xAB01u, static_cast<uint16_t>(i),
                   160u * static_cast<uint32_t>(i),
                   {net::IpAddress(10, 1, 0, 10), 20002}, media),
          true);
    b.Step();
  }
  sim::Time last;
  for (const TracePacket& p : b.trace()) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
    last = p.when;
  }
  engine.Flush(last);
  EXPECT_GT(engine.ownership_transfers(), 0u);
  // Exactly one shard may still claim the endpoint, and hold its media
  // counters: every superseded claim was retracted (cross-shard) or
  // overwritten (same shard).
  size_t media_entries = 0;
  size_t keyed = 0;
  for (int i = 0; i < engine.shards(); ++i) {
    media_entries += engine.shard_vids(i).fact_base().media_index_count();
    keyed += engine.shard_vids(i).fact_base().keyed_count();
  }
  EXPECT_EQ(media_entries, 1u);
  EXPECT_EQ(keyed, 1u);
  engine.Stop();
}

TEST(ShardedOwnership, EarlyMediaStateCollapsesOntoClaimingShard) {
  // RTP that arrives before its SDP negotiation is hash-routed and builds
  // per-endpoint keyed counters on the fallback shard. When the SDP claim
  // lands on a different shard, the router must retract the fallback
  // shard's partial state, so exactly one keyed media group per endpoint
  // survives — split counters would make near-threshold detections depend
  // on the hash layout.
  ShardedConfig config;
  config.shards = 4;
  ShardedIds engine(config);
  TraceBuilder b;
  b.Step();
  constexpr int kCalls = 8;
  const auto callee_media = [](int c) {
    return net::Endpoint{net::IpAddress(10, 2, 0, 10),
                         static_cast<uint16_t>(30000 + 2 * c)};
  };
  const auto caller_media = [](int c) {
    return net::Endpoint{net::IpAddress(10, 1, 0, 10),
                         static_cast<uint16_t>(20000 + 2 * c)};
  };
  // Early media: RTP to each callee endpoint before any SDP mentions it.
  for (int c = 0; c < kCalls; ++c) {
    for (int i = 0; i < 3; ++i) {
      b.Add(RtpDgram(0x700u + static_cast<uint32_t>(c),
                     static_cast<uint16_t>(i), 160u * static_cast<uint32_t>(i),
                     caller_media(c), callee_media(c)),
            true);
      b.Step();
    }
  }
  // Then each call negotiates its endpoint, and media keeps flowing.
  for (int c = 0; c < kCalls; ++c) {
    b.EstablishCall("early-" + std::to_string(c) + "@trace", caller_media(c),
                    callee_media(c));
    b.Add(RtpDgram(0x700u + static_cast<uint32_t>(c), 100, 16000u,
                   caller_media(c), callee_media(c)),
          true);
    b.Step();
  }
  sim::Time last;
  for (const TracePacket& p : b.trace()) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
    last = p.when;
  }
  engine.Flush(last);
  // One keyed media group per endpoint across ALL shards: the pre-claim
  // state on the hash-fallback shard was dropped when the negotiating
  // call's shard claimed the endpoint.
  size_t keyed = 0;
  for (int i = 0; i < engine.shards(); ++i) {
    keyed += engine.shard_vids(i).fact_base().keyed_count();
  }
  EXPECT_EQ(keyed, static_cast<size_t>(kCalls));
  // With 16 claims over 4 shards, some hash-fallback shard must differ
  // from its claimant (routing is deterministic, so this is stable).
  EXPECT_GT(engine.early_media_retracts(), 0u);
  engine.Stop();
}

TEST(FactBase, DropMediaKeyedGroupRemovesKeyedState) {
  sim::Scheduler scheduler;
  Vids vids(scheduler);
  auto& fb = vids.fact_base();
  const net::Endpoint endpoint{net::IpAddress(10, 2, 9, 5), 40000};
  fb.GetOrCreateMediaGroup(endpoint);
  EXPECT_EQ(fb.keyed_count(), 1u);
  fb.DropMediaKeyedGroup(endpoint);
  EXPECT_EQ(fb.keyed_count(), 0u);
  fb.DropMediaKeyedGroup(endpoint);  // no-op when absent
  EXPECT_EQ(fb.keyed_count(), 0u);
}

TEST(MediaOwnerTable, ClaimsApplyInArrivalOrderAndPruneIdleEntries) {
  MediaOwnerTable table(16);
  constexpr uint64_t kKey = 0x0a000001'9c40ULL;
  EXPECT_EQ(table.Owner(kKey, 5), -1);
  // First claim: the hash-fallback shard loses any early media.
  MediaOwnerTable::RetractEdge edge = table.Claim(kKey, 2, 10, 0);
  EXPECT_EQ(edge.shard, 0);
  EXPECT_TRUE(edge.early);
  EXPECT_EQ(table.Owner(kKey, 20), 2);
  // Renegotiation: the previous owner loses; a same-shard claim is silent.
  edge = table.Claim(kKey, 1, 30, 0);
  EXPECT_EQ(edge.shard, 2);
  EXPECT_FALSE(edge.early);
  EXPECT_EQ(table.Claim(kKey, 1, 40, 0).shard, -1);
  // A claim stamped earlier than the entry's last activity still applies
  // (arrival order decides ownership).
  edge = table.Claim(kKey, 3, 35, 0);
  EXPECT_EQ(edge.shard, 1);
  EXPECT_EQ(table.Owner(kKey, 50), 3);
  // Growth keeps every binding.
  for (uint64_t k = 1; k <= 64; ++k) table.Claim(kKey + 2 * k, 0, 60, 0);
  EXPECT_EQ(table.size(), 65u);
  EXPECT_EQ(table.Owner(kKey, 70), 3);
  // Pruning drops exactly the entries idle past the horizon: the lookup
  // at 70 refreshed kKey; the bulk claims last saw 60.
  table.Prune(100, 35);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Owner(kKey, 100), 3);
  EXPECT_EQ(table.Owner(kKey + 2, 100), -1);
}

// ----------------------------------------------------- pipeline spans

TEST(PipelineSpans, SampledSpansPopulateLatencyHistograms) {
  ShardedConfig config;
  config.shards = 2;
  config.trace_sample_period = 1;  // sample every packet
  ShardedIds engine(config);
  const auto trace = AttackScenarioTrace();
  sim::Time last;
  for (const TracePacket& p : trace) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
    last = p.when;
  }
  engine.Flush(last);

  const auto merged = engine.MergedMetrics();
  // Every packet was sampled: the cross-shard aggregate histograms hold
  // one span per packet, with the three stages in agreement.
  const auto* e2e = merged.FindHistogram("lat.e2e");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count(), trace.size());
  EXPECT_GT(e2e->sum(), 0);
  const auto* dequeue = merged.FindHistogram("lat.ingest_to_dequeue");
  const auto* inspect = merged.FindHistogram("lat.inspect");
  ASSERT_NE(dequeue, nullptr);
  ASSERT_NE(inspect, nullptr);
  EXPECT_EQ(dequeue->count(), e2e->count());
  EXPECT_EQ(inspect->count(), e2e->count());
  // The attack trace alerts, so the emit stage recorded too.
  const auto* to_alert = merged.FindHistogram("lat.ingest_to_alert");
  ASSERT_NE(to_alert, nullptr);
  EXPECT_GT(to_alert->count(), 0u);
  // Per-shard series exist under the shard prefix and sum to the total.
  uint64_t per_shard = 0;
  uint64_t span_records = 0;
  for (int i = 0; i < engine.shards(); ++i) {
    const auto* h = merged.FindHistogram("shard." + std::to_string(i) +
                                         ".lat.e2e");
    ASSERT_NE(h, nullptr) << "shard " << i;
    per_shard += h->count();
    // The worker also logged kSpan flight records (ring of the last 32).
    const auto& spans = engine.shard_spans(i);
    span_records += spans.total_recorded();
    spans.ForEach([&](const obs::Record& r) {
      EXPECT_EQ(r.type, obs::RecordType::kSpan);
      EXPECT_EQ(r.to, static_cast<int16_t>(i));
      EXPECT_GT(r.when_ns, 0);
    });
  }
  EXPECT_EQ(per_shard, e2e->count());
  EXPECT_EQ(span_records, e2e->count());
  // Batch + queue visibility rode along.
  EXPECT_GT(merged.FindHistogram("batch.consumed")->count(), 0u);
  EXPECT_GT(merged.FindHistogram("pipeline.batch.committed")->count(), 0u);
  ASSERT_NE(merged.FindGauge("shard.0.ring.down_depth_hwm"), nullptr);
  engine.Stop();
}

TEST(PipelineSpans, SamplingOffRecordsNothing) {
  ShardedConfig config;
  config.shards = 2;
  config.trace_sample_period = 0;  // tracing disabled
  ShardedIds engine(config);
  const auto trace = AttackScenarioTrace();
  sim::Time last;
  for (const TracePacket& p : trace) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
    last = p.when;
  }
  engine.Flush(last);
  const auto merged = engine.MergedMetrics();
  EXPECT_EQ(merged.FindHistogram("lat.e2e")->count(), 0u);
  EXPECT_EQ(merged.FindHistogram("lat.ingest_to_alert")->count(), 0u);
  for (int i = 0; i < engine.shards(); ++i) {
    EXPECT_EQ(engine.shard_spans(i).total_recorded(), 0u);
  }
  engine.Stop();
}

TEST(PipelineSpans, SamplingNeverChangesAlerts) {
  const auto trace = AttackScenarioTrace();
  const auto baseline = SortedSigs(RunSharded(trace, 4));  // default period
  ShardedConfig every;
  every.shards = 4;
  every.trace_sample_period = 1;
  EXPECT_EQ(baseline, SortedSigs(RunShardedCfg(trace, every)));
  ShardedConfig off;
  off.shards = 4;
  off.trace_sample_period = 0;
  off.watchdog_stall_ms = 0;
  EXPECT_EQ(baseline, SortedSigs(RunShardedCfg(trace, off)));
}

// ------------------------------------------------------------ watchdog

TEST(Watchdog, WedgedWorkerRaisesEngineHealthAlert) {
  ShardedConfig config;
  config.shards = 2;
  config.watchdog_stall_ms = 50;
  ShardedIds engine(config);
  // A little traffic first, so the engine is provably healthy when the
  // wedge lands.
  TraceBuilder b;
  b.Step();
  b.EstablishCall("wedge@trace", {net::IpAddress(10, 1, 0, 10), 20000},
                  {net::IpAddress(10, 2, 0, 10), 30000});
  for (const TracePacket& p : b.trace()) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
  }
  engine.Flush(b.now());
  EXPECT_EQ(engine.CountAlerts(AlertKind::kEngineHealth), 0u);

  // Wedge worker 0: its down-ring keeps the kWedge message (never retired
  // while wedged), its heartbeat freezes. Keep pumping so the watchdog's
  // episode stays continuously observed; it must alert within the
  // deadline — generous wall cap for sanitizer builds.
  engine.WedgeWorkerForTest(0);
  const auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine.CountAlerts(AlertKind::kEngineHealth) == 0 &&
         std::chrono::steady_clock::now() < cap) {
    engine.Pump();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(engine.CountAlerts(AlertKind::kEngineHealth), 1u)
      << "watchdog failed to flag a wedged worker within 30 s";
  // One alert per stall episode, aimed at the wedged shard.
  EXPECT_EQ(engine.CountAlerts(AlertKind::kEngineHealth), 1u);
  EXPECT_EQ(engine.watchdog_stalls(), 1u);
  for (const Alert& alert : engine.alerts()) {
    if (alert.kind != AlertKind::kEngineHealth) continue;
    EXPECT_EQ(alert.classification, kEngineWorkerStall);
    EXPECT_EQ(alert.machine, "watchdog");
    EXPECT_EQ(alert.group, "shard|0");
  }

  // Release the worker: the engine must recover and stop cleanly, and the
  // closed episode must not re-alert.
  engine.UnwedgeWorkerForTest(0);
  engine.Flush(b.now());
  EXPECT_EQ(engine.CountAlerts(AlertKind::kEngineHealth), 1u);
  engine.Stop();
}

TEST(Watchdog, CleanTrafficAndStopRaiseNoFalsePositives) {
  // The watchdog stays armed with a tight deadline while normal traffic,
  // Flush barriers, and Stop() all run — none of it may look like a stall
  // (episodes must anchor on pending-work-without-progress, not on idle
  // gaps or driver pauses).
  ShardedConfig config;
  config.shards = 2;
  config.watchdog_stall_ms = 250;
  ShardedIds engine(config);
  const auto trace = AttackScenarioTrace();
  sim::Time last;
  for (const TracePacket& p : trace) {
    engine.Ingest(p.dgram, p.from_outside, p.when);
    last = p.when;
  }
  engine.Flush(last);
  // A driver pause with the watchdog armed (idle-then-burst): no episode
  // may carry across the quiet gap.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const sim::Duration offset = last - sim::Time::FromNanos(0);
  for (const TracePacket& p : trace) {
    engine.Ingest(p.dgram, p.from_outside, p.when + offset);
  }
  engine.Flush(last + offset);
  engine.Stop();
  EXPECT_EQ(engine.CountAlerts(AlertKind::kEngineHealth), 0u);
  EXPECT_EQ(engine.watchdog_stalls(), 0u);
}

// ------------------------------------------------------------- stress

TEST(ShardedStress, MixedTrafficUnderChurn) {
  // Wide mixed workload for the sanitizers: all shards busy, rings cycling,
  // periodic Flush barriers interleaved with traffic. Scaled up in the CI
  // TSan lane via SHARDED_STRESS_PACKETS.
  int packets = 20'000;
  if (const char* s = std::getenv("SHARDED_STRESS_PACKETS")) {
    packets = std::max(1000, std::atoi(s));
  }
  ShardedConfig config;
  config.shards = 4;
  config.ring_capacity = 64;
  ShardedIds engine(config);
  sim::Time now = sim::Time::FromNanos(1);
  uint64_t fed = 0;
  for (int k = 0; k < packets; ++k) {
    now = now + sim::Duration::Micros(97);
    if (k % 20 == 0) {
      const std::string call_id =
          "stress-" + std::to_string(k / 20) + "@trace";
      const net::Endpoint caller{net::IpAddress(10, 1, 0, 10),
                                 static_cast<uint16_t>(20000 + (k / 10) % 500)};
      engine.Ingest(
          SipDgram(MakeInvite(call_id, "bob", caller, kProxyA), kProxyA,
                   kProxyB),
          true, now);
    } else {
      const net::Endpoint dst{net::IpAddress(10, 2, 0, 10),
                              static_cast<uint16_t>(30000 + 2 * (k % 64))};
      engine.Ingest(RtpDgram(0x51000u + static_cast<uint32_t>(k % 64),
                             static_cast<uint16_t>(k),
                             160u * static_cast<uint32_t>(k),
                             {net::IpAddress(10, 1, 0, 10), 20002}, dst),
                    true, now);
    }
    ++fed;
    if (k % 5000 == 4999) engine.Flush(now);
  }
  engine.Flush(now);
  uint64_t inspected = 0;
  for (int i = 0; i < engine.shards(); ++i) {
    inspected += engine.shard_vids(i).stats().packets;
  }
  EXPECT_EQ(inspected, fed);
  // Default-on span sampling and watchdog rode through the whole soak:
  // no stall alert may appear on a healthy run.
  EXPECT_EQ(engine.CountAlerts(AlertKind::kEngineHealth), 0u);
  EXPECT_EQ(engine.watchdog_stalls(), 0u);
  engine.Stop();
}

}  // namespace
}  // namespace vids::ids
