// Accounting-honesty tests for the TAB-MEM state figures. Global operator
// new/delete are replaced with forwarders that stamp each block with its
// size, so a test can read the net bytes the allocator handed out (and not
// yet got back) over a window. Two claims are checked against that real
// heap: the engine's MemoryBytes() growth over fresh call admissions, and
// that a recycled call group writes its next call's variables without
// allocating.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "rtp/packet.h"
#include "sdp/sdp.h"
#include "sip/message.h"
#include "vids/classifier.h"
#include "vids/fact_base.h"
#include "vids/ids.h"

namespace {

// Each block carries a header: its size, and whether it was handed out
// inside the counting window. Freeing a block counts only if it was
// counted, so the window's total is exactly the live bytes it allocated.
struct BlockHeader {
  std::size_t size;
  bool counted;
};
constexpr std::size_t kHeaderBytes = alignof(std::max_align_t);
static_assert(sizeof(BlockHeader) <= kHeaderBytes);

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_live_bytes{0};

void* CountedAlloc(std::size_t size) {
  void* raw = std::malloc(size + kHeaderBytes);
  if (raw == nullptr) throw std::bad_alloc{};
  const bool counted = g_counting.load(std::memory_order_relaxed);
  ::new (raw) BlockHeader{size, counted};
  if (counted) {
    g_live_bytes.fetch_add(static_cast<int64_t>(size),
                           std::memory_order_relaxed);
  }
  return static_cast<char*>(raw) + kHeaderBytes;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  char* raw = static_cast<char*>(p) - kHeaderBytes;
  const auto* header = reinterpret_cast<const BlockHeader*>(raw);
  if (header->counted) {
    g_live_bytes.fetch_sub(static_cast<int64_t>(header->size),
                           std::memory_order_relaxed);
  }
  std::free(raw);
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace vids::ids {
namespace {

const net::Endpoint kProxyA{net::IpAddress(10, 1, 0, 1), 5060};
const net::Endpoint kProxyB{net::IpAddress(10, 2, 0, 1), 5060};

/// Net heap bytes allocated by `body` and still held when it returns.
template <typename Body>
int64_t LiveBytesAllocatedBy(Body&& body) {
  g_live_bytes.store(0);
  g_counting.store(true);
  body();
  g_counting.store(false);
  return g_live_bytes.load();
}

net::Datagram SipDgram(const sip::Message& message, net::Endpoint src,
                       net::Endpoint dst) {
  net::Datagram dgram;
  dgram.src = src;
  dgram.dst = dst;
  dgram.payload = message.Serialize();
  dgram.kind = net::PayloadKind::kSip;
  return dgram;
}

net::Datagram RtpDgram(net::Endpoint src, net::Endpoint dst) {
  rtp::RtpHeader header;
  header.ssrc = 0xACC0;
  header.sequence_number = 1;
  header.timestamp = 160;
  header.payload_type = 18;
  net::Datagram dgram;
  dgram.src = src;
  dgram.dst = dst;
  dgram.payload = header.Serialize();
  dgram.kind = net::PayloadKind::kRtp;
  return dgram;
}

net::Endpoint CallerMedia(int k) {
  return {net::IpAddress(10, 1, 0, 10), static_cast<uint16_t>(20000 + 2 * k)};
}
net::Endpoint CalleeMedia(int k) {
  return {net::IpAddress(10, 2, 0, 10), static_cast<uint16_t>(30000 + 2 * k)};
}

/// One call's INVITE / 180 / 200 (SDP offer and answer), then one RTP
/// packet toward each negotiated endpoint. Call `k` has its own caller,
/// callee and media ports, so it opens its own call group, behavior
/// profile, INVITE-flood counter and two media-endpoint groups, and no
/// threshold is crossed (no alert, whose history would be heap the state
/// accounting rightly leaves out).
std::vector<net::Datagram> CallPackets(const std::string& call_id, int k) {
  const std::string caller = "caller" + std::to_string(k);
  const std::string callee = "callee" + std::to_string(k);
  auto invite = sip::Message::MakeRequest(
      sip::Method::kInvite,
      *sip::SipUri::Parse("sip:" + callee + "@b.example.com"));
  sip::Via via;
  via.sent_by = kProxyA;
  via.branch = "z9hG4bK" + call_id;
  invite.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:" + caller + "@a.example.com");
  from.SetTag("tag-" + call_id);
  invite.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:" + callee + "@b.example.com");
  invite.SetTo(to);
  invite.SetCallId(call_id);
  invite.SetCseq(sip::CSeq{1, sip::Method::kInvite});
  invite.SetBody(sdp::MakeAudioOffer(CallerMedia(k)).Serialize(),
                 "application/sdp");

  std::vector<net::Datagram> packets{SipDgram(invite, kProxyA, kProxyB)};
  for (const int status : {180, 200}) {
    auto response = sip::Message::MakeResponse(status);
    for (const auto header : invite.Headers("Via")) {
      response.AddHeader("Via", header);
    }
    response.SetFrom(*invite.From());
    auto answer_to = *invite.To();
    answer_to.SetTag("tag-callee-" + call_id);
    response.SetTo(answer_to);
    response.SetCallId(call_id);
    response.SetCseq(*invite.Cseq());
    if (status == 200) {
      response.SetBody(sdp::MakeAudioOffer(CalleeMedia(k)).Serialize(),
                       "application/sdp");
    }
    packets.push_back(SipDgram(response, kProxyB, kProxyA));
  }
  packets.push_back(RtpDgram(CallerMedia(k), CalleeMedia(k)));
  packets.push_back(RtpDgram(CalleeMedia(k), CallerMedia(k)));
  return packets;
}

size_t StateBytes(const Vids& vids) {
  return vids.fact_base().MemoryBytes() + vids.behavior().MemoryBytes();
}

// The state figures replaybench and TAB-MEM report are MemoryBytes(); a
// smaller figure must mean a smaller heap, not a blinder count.
TEST(StateAccounting, AdmissionGrowthMatchesTheHeap) {
  constexpr int kWarmup = 8;
  constexpr int kCalls = 400;
  std::vector<std::vector<net::Datagram>> calls;
  for (int k = 0; k < kWarmup + kCalls; ++k) {
    calls.push_back(CallPackets("acct-call-" + std::to_string(k), k));
  }
  sim::Scheduler scheduler;
  Vids vids(scheduler);
  // Warm-up: lazily built dispatch tables, classifier scratch, metrics.
  for (int k = 0; k < kWarmup; ++k) {
    for (const net::Datagram& dgram : calls[static_cast<size_t>(k)]) {
      vids.Inspect(dgram, true);
    }
  }
  const size_t calls_before = vids.fact_base().call_count();
  const size_t keyed_before = vids.fact_base().keyed_count();
  const size_t state_before = StateBytes(vids);
  const int64_t heap = LiveBytesAllocatedBy([&] {
    for (int k = kWarmup; k < kWarmup + kCalls; ++k) {
      for (const net::Datagram& dgram : calls[static_cast<size_t>(k)]) {
        vids.Inspect(dgram, true);
      }
    }
  });
  const auto accounted =
      static_cast<double>(StateBytes(vids) - state_before);

  // Every call opened its group, INVITE-flood counter and two media
  // groups, and nothing alerted.
  ASSERT_EQ(vids.fact_base().call_count() - calls_before, size_t{kCalls});
  ASSERT_EQ(vids.fact_base().keyed_count() - keyed_before,
            size_t{3 * kCalls});
  ASSERT_TRUE(vids.alerts().empty());
  ASSERT_GT(heap, 0);
  const double ratio = accounted / static_cast<double>(heap);
  EXPECT_GT(ratio, 0.8) << "MemoryBytes grew " << accounted
                        << " B for a heap growth of " << heap << " B";
  EXPECT_LT(ratio, 1.2) << "MemoryBytes grew " << accounted
                        << " B for a heap growth of " << heap << " B";
}

// A swept call group parks in the fact base's pool with its variable
// stores laid out; the next call's writes, long strings included, land in
// the kept slots and spill buffer.
TEST(StateAccounting, PooledReadmissionAllocatesNothingInVariableStores) {
  sim::Scheduler scheduler;
  const DetectionConfig config;
  CallStateFactBase fact_base(scheduler, config, nullptr);
  PacketClassifier classifier;

  // Call-ID, tags and branch all exceed a slot's inline payload, so every
  // string variable of the SIP machine goes through the spill buffer.
  const auto classified = [&](const std::string& call_id) {
    std::vector<std::pair<PacketProto, efsm::Event>> events;
    for (const net::Datagram& dgram : CallPackets(call_id, 1)) {
      const ClassifiedPacket* packet = classifier.Classify(dgram, true);
      events.emplace_back(packet->proto, packet->event);
    }
    return events;
  };
  const auto deliver = [](efsm::MachineGroup& group,
                          const std::vector<std::pair<PacketProto,
                                                      efsm::Event>>& events) {
    for (const auto& [proto, event] : events) {
      if (proto == PacketProto::kRtp) {
        group.DeliverData(group.machine(call_machine::kRtp), event);
        continue;
      }
      for (const size_t index : {call_machine::kSip, call_machine::kCancelDos,
                                 call_machine::kHijack}) {
        group.DeliverData(group.machine(index), event);
      }
    }
  };
  const auto first = classified("readmit-call-0001@pool.example.com");
  const auto second = classified("readmit-call-0002@pool.example.com");

  bool created = false;
  efsm::MachineGroup& group =
      fact_base.GetOrCreateCall("readmit-call-0001@pool.example.com", created);
  deliver(group, first);
  ASSERT_EQ(group.machine(call_machine::kRtp).StateName(), "RTP Rcvd");

  // Idle past the call timeout: the periodic sweep parks the group.
  scheduler.RunUntil(scheduler.Now() + config.call_idle_timeout +
                     config.sweep_interval * 2);
  ASSERT_EQ(fact_base.call_count(), 0u);
  ASSERT_GT(fact_base.PooledBytes(), 0u);

  efsm::MachineGroup& reused =
      fact_base.GetOrCreateCall("readmit-call-0002@pool.example.com", created);
  ASSERT_EQ(fact_base.PooledBytes(), 0u);  // the parked group came back
  const int64_t heap = LiveBytesAllocatedBy([&] { deliver(reused, second); });
  EXPECT_EQ(reused.machine(call_machine::kRtp).StateName(), "RTP Rcvd");
  EXPECT_EQ(reused.machine(call_machine::kSip).local().GetString("l_call_id"),
            "readmit-call-0002@pool.example.com");
  EXPECT_EQ(heap, 0) << "re-admission into a pooled group allocated";
}

}  // namespace
}  // namespace vids::ids
