// TAB-MEM: per-call memory cost of the vIDS (paper §7.3).
//
// Paper claim: one instance of each protocol machine per call; SIP state
// ≈ 450 bytes, RTP state ≈ 40 bytes; growth is linear in concurrent calls
// and low enough to monitor thousands of calls; machines are deleted when
// a call reaches its final state.
#include <cstdio>

#include "bench_util.h"
#include "rtp/packet.h"
#include "sdp/sdp.h"
#include "sip/message.h"
#include "vids/ids.h"
#include "vids/spec_machines.h"

using namespace vids;

namespace {

const net::Endpoint kProxyA{net::IpAddress(10, 1, 0, 1), 5060};
const net::Endpoint kProxyB{net::IpAddress(10, 2, 0, 1), 5060};

sip::Message MakeInvite(const std::string& call_id, uint16_t caller_port) {
  auto invite = sip::Message::MakeRequest(
      sip::Method::kInvite, *sip::SipUri::Parse("sip:bob@b.example.com"));
  sip::Via via;
  via.sent_by = kProxyA;
  via.branch = "z9hG4bK" + call_id;
  invite.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
  from.SetTag("tag-" + call_id);
  invite.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
  invite.SetTo(to);
  invite.SetCallId(call_id);
  invite.SetCseq(sip::CSeq{1, sip::Method::kInvite});
  invite.SetBody(
      sdp::MakeAudioOffer(net::Endpoint{net::IpAddress(10, 1, 0, 10),
                                        caller_port})
          .Serialize(),
      "application/sdp");
  return invite;
}

net::Datagram Wrap(const sip::Message& message) {
  net::Datagram dgram;
  dgram.src = kProxyA;
  dgram.dst = kProxyB;
  dgram.payload = message.Serialize();
  dgram.kind = net::PayloadKind::kSip;
  return dgram;
}

// Feeds INVITE + 180 + 200 for one call: an established, monitored call.
void OpenCall(ids::Vids& vids, int index) {
  const std::string call_id = "call-" + std::to_string(index) + "@bench";
  const auto invite =
      MakeInvite(call_id, static_cast<uint16_t>(20000 + (index % 20000) * 2));
  vids.Inspect(Wrap(invite), true);
  for (int status : {180, 200}) {
    auto response = sip::Message::MakeResponse(status);
    for (const auto via : invite.Headers("Via")) {
      response.AddHeader("Via", via);
    }
    response.SetFrom(*invite.From());
    auto to = *invite.To();
    to.SetTag("tag-callee");
    response.SetTo(to);
    response.SetCallId(call_id);
    response.SetCseq(*invite.Cseq());
    if (status == 200) {
      response.SetBody(
          sdp::MakeAudioOffer(
              net::Endpoint{net::IpAddress(10, 2, 0, 10),
                            static_cast<uint16_t>(30000 + (index % 17000) * 2)})
              .Serialize(),
          "application/sdp");
    }
    auto dgram = Wrap(response);
    std::swap(dgram.src, dgram.dst);
    vids.Inspect(dgram, false);
  }
}

}  // namespace

int main() {
  bench::PrintHeader(
      "TAB-MEM", "per-call memory cost and linear growth",
      "~450 B SIP + ~40 B RTP state vars per call; linear growth; "
      "thousands of calls affordable; deleted at final state");

  // --- State-variable payload of one monitored call (the paper's unit) ---
  {
    sim::Scheduler scheduler;
    ids::Vids vids(scheduler);
    OpenCall(vids, 0);
    auto* group = vids.fact_base().FindCall("call-0@bench");
    if (group != nullptr) {
      size_t sip_vars = 0, rtp_vars = 0, sip_total = 0, rtp_total = 0;
      for (const auto& machine : group->machines()) {
        if (machine->name() == ids::kSipMachineName) {
          sip_vars = machine->local().MemoryBytes();
          sip_total = machine->MemoryBytes();
        }
        if (machine->name() == ids::kRtpMachineName) {
          rtp_vars = machine->local().MemoryBytes();
          rtp_total = machine->MemoryBytes();
        }
      }
      std::printf("one established call:\n");
      std::printf("  SIP machine: %5zu B state variables (%zu B with "
                  "instance overhead; paper: ~450 B)\n",
                  sip_vars, sip_total);
      std::printf("  RTP machine: %5zu B state variables (%zu B with "
                  "instance overhead; paper: ~40 B)\n",
                  rtp_vars, rtp_total);
      std::printf("  whole group (incl. globals + per-call patterns): %zu B\n",
                  group->MemoryBytes());
    }
  }

  // --- Linear growth with concurrent calls ---
  bench::PrintRule();
  std::printf("%-18s %-16s %-12s\n", "concurrent calls", "fact base (KB)",
              "bytes/call");
  size_t bytes_at_1000 = 0;
  for (int calls : {100, 500, 1000, 2000, 5000}) {
    sim::Scheduler scheduler;
    ids::Vids vids(scheduler);
    for (int i = 0; i < calls; ++i) OpenCall(vids, i);
    const size_t bytes = vids.fact_base().MemoryBytes();
    if (calls == 1000) bytes_at_1000 = bytes;
    std::printf("%-18d %-16.1f %-12zu\n", calls,
                static_cast<double>(bytes) / 1024.0,
                bytes / static_cast<size_t>(calls));
  }
  std::printf("=> 10,000 calls would take ~%.1f MB: easily afforded "
              "(paper's claim)\n",
              static_cast<double>(bytes_at_1000) * 10.0 / (1024.0 * 1024.0));

  // --- Deletion at final state ---
  bench::PrintRule();
  {
    sim::Scheduler scheduler;
    ids::Vids vids(scheduler);
    for (int i = 0; i < 200; ++i) OpenCall(vids, i);
    const size_t before = vids.fact_base().MemoryBytes();
    // Tear each call down: ACK + BYE + 200.
    for (int i = 0; i < 200; ++i) {
      const std::string call_id = "call-" + std::to_string(i) + "@bench";
      auto bye = sip::Message::MakeRequest(
          sip::Method::kBye, *sip::SipUri::Parse("sip:bob@10.2.0.10"));
      sip::Via via;
      via.sent_by = kProxyA;
      via.branch = "z9hG4bKbye" + std::to_string(i);
      bye.PushVia(via);
      bye.SetCallId(call_id);
      bye.SetCseq(sip::CSeq{2, sip::Method::kBye});
      sip::NameAddr from;
      from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
      from.SetTag("t");
      bye.SetFrom(from);
      auto to = from;
      to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
      bye.SetTo(to);
      vids.Inspect(Wrap(bye), true);
      auto ok = sip::Message::MakeResponse(200);
      ok.AddHeader("Via", via.ToString());
      ok.SetCallId(call_id);
      ok.SetCseq(sip::CSeq{2, sip::Method::kBye});
      ok.SetFrom(from);
      ok.SetTo(to);
      auto dgram = Wrap(ok);
      std::swap(dgram.src, dgram.dst);
      vids.Inspect(dgram, false);
    }
    // Run out the RTP close linger, then sweep (triggered by one packet).
    scheduler.RunUntil(scheduler.Now() + ids::DetectionConfig{}.rtp_close_linger +
                       sim::Duration::Seconds(5));
    OpenCall(vids, 9999);
    // The swept groups parked in the reuse pool are capacity, not call
    // state: judge deletion on the live remainder, and show the pool apart.
    const size_t pooled = vids.fact_base().PooledBytes();
    const size_t after = vids.fact_base().MemoryBytes() - pooled;
    std::printf("200 calls open: %zu KB -> all closed + swept: %zu KB live\n",
                before / 1024, after / 1024);
    std::printf("group reuse pool: %zu KB (at most kGroupPoolCap = %zu "
                "groups, counted in MemoryBytes)\n",
                pooled / 1024, ids::CallStateFactBase::kGroupPoolCap);
    std::printf("state deleted at final call state -> %s\n",
                after < before / 4 ? "OK" : "MISMATCH");
  }
  return 0;
}
