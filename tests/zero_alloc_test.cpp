// Steady-state allocation test: once a call's media session is established
// and the per-endpoint pattern groups exist, inspecting an in-session RTP
// packet must not touch the heap — inline, and through the sharded
// pipeline's ring hand-off. Global operator new/delete are replaced with
// counting forwarders that count on every thread; the counter is armed
// only around the measured loop, so gtest internals and the warmup phase
// are free to allocate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "rtp/packet.h"
#include "sdp/sdp.h"
#include "sip/message.h"
#include "vids/ids.h"
#include "vids/sharded_ids.h"

namespace {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

// GCC pairs allocation functions by body and flags free() on a pointer
// from the malloc-backed replacement operator new above — a false
// positive, as both sides of the pair are replaced together.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace vids::ids {
namespace {

const net::Endpoint kProxyA{net::IpAddress(10, 1, 0, 1), 5060};
const net::Endpoint kProxyB{net::IpAddress(10, 2, 0, 1), 5060};
const net::Endpoint kCallerMedia{net::IpAddress(10, 1, 0, 10), 20000};
const net::Endpoint kCalleeMedia{net::IpAddress(10, 2, 0, 10), 30000};

net::Datagram SipDgram(const sip::Message& message, net::Endpoint src,
                       net::Endpoint dst) {
  net::Datagram dgram;
  dgram.src = src;
  dgram.dst = dst;
  dgram.payload = message.Serialize();
  dgram.kind = net::PayloadKind::kSip;
  return dgram;
}

sip::Message MakeInvite(const std::string& call_id,
                        net::Endpoint offer = kCallerMedia) {
  auto invite = sip::Message::MakeRequest(
      sip::Method::kInvite, *sip::SipUri::Parse("sip:bob@b.example.com"));
  sip::Via via;
  via.sent_by = kProxyA;
  via.branch = "z9hG4bK" + call_id;
  invite.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
  from.SetTag("tag-alice");
  invite.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
  invite.SetTo(to);
  invite.SetCallId(call_id);
  invite.SetCseq(sip::CSeq{1, sip::Method::kInvite});
  invite.SetBody(sdp::MakeAudioOffer(offer).Serialize(), "application/sdp");
  return invite;
}

sip::Message MakeOk(const sip::Message& invite) {
  auto response = sip::Message::MakeResponse(200);
  for (const auto via : invite.Headers("Via")) {
    response.AddHeader("Via", via);
  }
  response.SetFrom(*invite.From());
  auto to = *invite.To();
  to.SetTag("tag-bob");
  response.SetTo(to);
  response.SetCallId(std::string(*invite.CallId()));
  response.SetCseq(*invite.Cseq());
  response.SetBody(sdp::MakeAudioOffer(kCalleeMedia).Serialize(),
                   "application/sdp");
  return response;
}

TEST(ZeroAlloc, SteadyStateRtpInspectionDoesNotAllocate) {
  sim::Scheduler scheduler;
  Vids vids(scheduler);

  // Establish a monitored call with negotiated media at kCalleeMedia.
  const auto invite = MakeInvite("za-1");
  vids.Inspect(SipDgram(invite, kProxyA, kProxyB), true);
  vids.Inspect(SipDgram(MakeOk(invite), kProxyB, kProxyA), false);
  auto ack = sip::Message::MakeRequest(
      sip::Method::kAck, *sip::SipUri::Parse("sip:bob@10.2.0.10"));
  sip::Via via;
  via.sent_by = kProxyA;
  via.branch = "z9hG4bKackza-1";
  ack.PushVia(via);
  ack.SetCallId("za-1");
  ack.SetCseq(sip::CSeq{1, sip::Method::kAck});
  vids.Inspect(SipDgram(ack, kCallerMedia, kCalleeMedia), true);
  ASSERT_EQ(vids.fact_base().CallByMedia(kCalleeMedia), "za-1");

  // Pre-built datagram; the loop patches sequence/timestamp bytes in place
  // (RFC 3550 big-endian offsets) instead of re-serializing.
  rtp::RtpHeader header;
  header.ssrc = 0xCAFE;
  header.sequence_number = 1;
  header.timestamp = 160;
  header.payload_type = 18;
  net::Datagram dgram;
  dgram.src = kCallerMedia;
  dgram.dst = kCalleeMedia;
  dgram.payload = header.Serialize();
  dgram.kind = net::PayloadKind::kRtp;
  const auto patch = [&dgram](uint16_t seq, uint32_t ts) {
    dgram.payload[2] = static_cast<char>(seq >> 8);
    dgram.payload[3] = static_cast<char>(seq & 0xFF);
    dgram.payload[4] = static_cast<char>(ts >> 24);
    dgram.payload[5] = static_cast<char>((ts >> 16) & 0xFF);
    dgram.payload[6] = static_cast<char>((ts >> 8) & 0xFF);
    dgram.payload[7] = static_cast<char>(ts & 0xFF);
  };

  // Warmup: settle container capacities, cross the RTP-flood threshold so
  // the flood machine parks in its (deduplicated) attack self-loop, and let
  // every lazily-compiled dispatch table build.
  uint16_t seq = 1;
  uint32_t ts = 160;
  for (int i = 0; i < 600; ++i) {
    patch(++seq, ts += 160);
    vids.Inspect(dgram, true);
  }

  g_alloc_count.store(0);
  g_counting.store(true);
  for (int i = 0; i < 200; ++i) {
    patch(++seq, ts += 160);
    vids.Inspect(dgram, true);
  }
  g_counting.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "steady-state RTP inspection touched the heap";
  EXPECT_GT(vids.stats().rtp_packets, 0u);
}

// The same in-session stream with a moving clock. The scheduler advances
// 1.2 s per packet through RunUntil, so the RTP-flood window timer T1
// expires and re-arms on every packet and a fact-base sweep tick runs in
// between. Frozen-clock tests never exercise either; here both must stay
// off the heap once the warmup has let every idle keyed group (the INVITE
// flood counter) and behavior profile (the caller) be reclaimed.
TEST(ZeroAlloc, PacedRtpWithExpiringTimersAndSweepsDoesNotAllocate) {
  DetectionConfig detection;
  // RTP does not refresh a call's idle clock, so keep the call alive past
  // the whole run: the stream must stay in-session, not orphaned.
  detection.call_idle_timeout = sim::Duration::Seconds(3600);
  sim::Scheduler scheduler;
  Vids vids(scheduler, detection);

  const auto invite = MakeInvite("za-paced");
  vids.Inspect(SipDgram(invite, kProxyA, kProxyB), true);
  vids.Inspect(SipDgram(MakeOk(invite), kProxyB, kProxyA), false);
  ASSERT_EQ(vids.fact_base().CallByMedia(kCalleeMedia), "za-paced");

  rtp::RtpHeader header;
  header.ssrc = 0xBEEF;
  header.sequence_number = 1;
  header.timestamp = 160;
  header.payload_type = 18;
  net::Datagram dgram;
  dgram.src = kCallerMedia;
  dgram.dst = kCalleeMedia;
  dgram.payload = header.Serialize();
  dgram.kind = net::PayloadKind::kRtp;
  uint16_t seq = 1;
  uint32_t ts = 160;
  const sim::Duration pace = sim::Duration::Millis(1200);
  const auto next_packet = [&] {
    scheduler.RunUntil(scheduler.Now() + pace);
    ++seq;
    ts += 160;
    dgram.payload[2] = static_cast<char>(seq >> 8);
    dgram.payload[3] = static_cast<char>(seq & 0xFF);
    dgram.payload[4] = static_cast<char>(ts >> 24);
    dgram.payload[5] = static_cast<char>((ts >> 16) & 0xFF);
    dgram.payload[6] = static_cast<char>((ts >> 8) & 0xFF);
    dgram.payload[7] = static_cast<char>(ts & 0xFF);
    vids.Inspect(dgram, true);
  };

  // Warmup past keyed_idle_timeout and the behavior IdleHorizon(), so the
  // one-time reclaims (flood group, caller profile) happen here.
  const sim::Duration horizon =
      std::max(detection.keyed_idle_timeout, detection.behavior.IdleHorizon());
  const sim::Time warm_until =
      scheduler.Now() + horizon + sim::Duration::Seconds(10);
  while (scheduler.Now() < warm_until) next_packet();
  ASSERT_EQ(vids.fact_base().keyed_count(), 1u);  // the media group only
  ASSERT_EQ(vids.behavior().profile_count(), 0u);
  const uint64_t sweeps_before = vids.metrics().GetCounter("vids.sweeps").value();
  const uint64_t timers_before = scheduler.ExecutedEvents();

  g_alloc_count.store(0);
  g_counting.store(true);
  for (int i = 0; i < 100; ++i) next_packet();
  g_counting.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "paced RTP inspection touched the heap";
  // Vacuity guards: sweeps ran, and both T1 and the sweep timer fired
  // about once per packet.
  EXPECT_GE(vids.metrics().GetCounter("vids.sweeps").value() - sweeps_before,
            100u);
  EXPECT_GE(scheduler.ExecutedEvents() - timers_before, 200u);
  EXPECT_EQ(vids.fact_base().CallByMedia(kCalleeMedia), "za-paced");
}

// In-dialog SIP steady state: once a dialog exists, a re-INVITE / 200 / ACK
// refresh cycle rides entirely on the lazy parse layer and reused scratch
// state — no heap traffic. This is the SIP counterpart of the RTP test
// above and the invariant BM_VidsInspectSipInDialog reports as
// allocs_per_iter.
TEST(ZeroAlloc, SteadyStateInDialogSipInspectionDoesNotAllocate) {
  sim::Scheduler scheduler;
  Vids vids(scheduler);
  const std::string call_id = "za-dlg";

  const auto make_ack = [&call_id](uint32_t cseq) {
    auto ack = sip::Message::MakeRequest(
        sip::Method::kAck, *sip::SipUri::Parse("sip:bob@b.example.com"));
    sip::Via via;
    via.sent_by = kProxyA;
    via.branch = "z9hG4bKack" + call_id;
    ack.PushVia(via);
    sip::NameAddr from;
    from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
    from.SetTag("tag-alice");
    ack.SetFrom(from);
    sip::NameAddr to;
    to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
    to.SetTag("tag-bob");
    ack.SetTo(to);
    ack.SetCallId(call_id);
    ack.SetCseq(sip::CSeq{cseq, sip::Method::kAck});
    return ack;
  };

  // Establish the dialog: INVITE / 200 / ACK.
  const auto invite = MakeInvite(call_id);
  vids.Inspect(SipDgram(invite, kProxyA, kProxyB), true);
  vids.Inspect(SipDgram(MakeOk(invite), kProxyB, kProxyA), false);
  vids.Inspect(SipDgram(make_ack(1), kProxyA, kProxyB), true);
  ASSERT_EQ(vids.fact_base().CallByMedia(kCalleeMedia), call_id);

  // Pre-serialized refresh cycle: re-INVITE with both tags and CSeq 2, its
  // 200, its ACK. The measured loop replays the same three datagrams.
  auto reinvite = MakeInvite(call_id);
  auto to = *reinvite.To();
  to.SetTag("tag-bob");
  reinvite.SetTo(to);
  reinvite.SetCseq(sip::CSeq{2, sip::Method::kInvite});
  net::Datagram cycle[3] = {
      SipDgram(reinvite, kProxyA, kProxyB),
      SipDgram(MakeOk(reinvite), kProxyB, kProxyA),
      SipDgram(make_ack(2), kProxyA, kProxyB),
  };
  const bool from_outside[3] = {true, false, true};

  // Warmup: settle string/map capacities, cross the INVITE-flood threshold
  // so its machine parks in the deduplicated attack self-loop.
  for (int i = 0; i < 600; ++i) {
    for (int p = 0; p < 3; ++p) vids.Inspect(cycle[p], from_outside[p]);
  }

  g_alloc_count.store(0);
  g_counting.store(true);
  for (int i = 0; i < 200; ++i) {
    for (int p = 0; p < 3; ++p) vids.Inspect(cycle[p], from_outside[p]);
  }
  g_counting.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "steady-state in-dialog SIP inspection touched the heap";
  EXPECT_GT(vids.stats().sip_packets, 600u);
}

// The sharded steady state: Ingest copies each payload into its ring slot's
// reused string and the worker inspects the datagram there. The RTP
// carries a 20-byte G.729 frame (32-byte payload), past std::string's
// inline buffer, so every slot that carried one holds a heap buffer. Once
// every ring has lapped, those buffers are reused in place: nothing on the
// router, the workers or the coordinator touches the heap.
void ExpectShardedSteadyStateDoesNotAllocate(int shards) {
  ShardedConfig config;
  config.shards = shards;
  config.ring_capacity = 64;
  ShardedIds engine(config);
  const sim::Time t0 = sim::Time::FromNanos(1);

  constexpr int kCalls = 16;
  std::vector<net::Datagram> media;
  for (int i = 0; i < kCalls; ++i) {
    const net::Endpoint offer{net::IpAddress(10, 1, 0, 10),
                              static_cast<uint16_t>(20000 + 2 * i)};
    engine.Ingest(SipDgram(MakeInvite("za-shard-" + std::to_string(i), offer),
                           kProxyA, kProxyB),
                  true, t0);
    rtp::RtpHeader header;
    header.ssrc = 0x5A000000u + static_cast<uint32_t>(i);
    header.payload_type = 18;
    net::Datagram dgram;
    dgram.src = net::Endpoint{net::IpAddress(10, 2, 0, 10),
                              static_cast<uint16_t>(30000 + 2 * i)};
    dgram.dst = offer;
    dgram.kind = net::PayloadKind::kRtp;
    dgram.payload = header.Serialize() + std::string(20, '\x5a');
    ASSERT_GT(dgram.payload.size(), std::string().capacity());
    media.push_back(std::move(dgram));
  }
  uint16_t seq = 0;
  uint32_t ts = 0;
  const auto send_round = [&] {
    ++seq;
    ts += 160;
    for (net::Datagram& dgram : media) {
      dgram.payload[2] = static_cast<char>(seq >> 8);
      dgram.payload[3] = static_cast<char>(seq & 0xFF);
      dgram.payload[4] = static_cast<char>(ts >> 24);
      dgram.payload[5] = static_cast<char>((ts >> 16) & 0xFF);
      dgram.payload[6] = static_cast<char>((ts >> 8) & 0xFF);
      dgram.payload[7] = static_cast<char>(ts & 0xFF);
      engine.Ingest(dgram, true, t0);
    }
  };

  // Warmup: past the RTP-flood threshold on every stream (the frozen
  // clock keeps each stream in one window; dedup then keeps the parked
  // machines quiet), and several laps of every ring.
  for (int k = 0; k < 300; ++k) send_round();
  engine.Flush(t0);
  for (int i = 0; i < shards; ++i) {
    ASSERT_GE(engine.shard_vids(i).stats().rtp_packets,
              2 * config.ring_capacity)
        << "shard " << i << "'s ring never lapped";
  }

  g_alloc_count.store(0);
  g_counting.store(true);
  for (int k = 0; k < 200; ++k) send_round();
  engine.Flush(t0);  // the workers' share of the window is counted too
  g_counting.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "sharded steady-state ingest touched the heap at shards=" << shards;
  uint64_t rtp = 0;
  for (int i = 0; i < shards; ++i) {
    rtp += engine.shard_vids(i).stats().rtp_packets;
  }
  EXPECT_EQ(rtp, 500u * kCalls);
  engine.Stop();
}

TEST(ZeroAlloc, ShardedSteadyStateOneShardDoesNotAllocate) {
  ExpectShardedSteadyStateDoesNotAllocate(1);
}

TEST(ZeroAlloc, ShardedSteadyStateFourShardsDoesNotAllocate) {
  ExpectShardedSteadyStateDoesNotAllocate(4);
}

}  // namespace
}  // namespace vids::ids
