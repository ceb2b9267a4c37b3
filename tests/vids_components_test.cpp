// Unit suites for the vIDS components in isolation: the Packet Classifier
// (datagram → typed event) and the Call State Fact Base (group lifecycle,
// keyed groups, media index, sweeps, tombstones).
#include <gtest/gtest.h>

#include "rtp/packet.h"
#include "rtp/rtcp.h"
#include "sdp/sdp.h"
#include "sip/message.h"
#include "vids/classifier.h"
#include "vids/fact_base.h"

namespace vids::ids {
namespace {

const net::Endpoint kSrc{net::IpAddress(10, 1, 0, 1), 5060};
const net::Endpoint kDst{net::IpAddress(10, 2, 0, 1), 5060};

net::Datagram Wrap(std::string payload, net::PayloadKind kind) {
  net::Datagram dgram;
  dgram.src = kSrc;
  dgram.dst = kDst;
  dgram.payload = std::move(payload);
  dgram.kind = kind;
  return dgram;
}

// ----------------------------------------------------------- classifier

TEST(Classifier, SipRequestEventCarriesTheInputVector) {
  PacketClassifier classifier;
  auto invite = sip::Message::MakeRequest(
      sip::Method::kInvite, *sip::SipUri::Parse("sip:bob@b.example.com"));
  sip::Via via;
  via.sent_by = kSrc;
  via.branch = "z9hG4bKtest";
  invite.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
  from.SetTag("ft");
  invite.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
  invite.SetTo(to);
  invite.SetCallId("cid-1");
  invite.SetCseq(sip::CSeq{7, sip::Method::kInvite});
  invite.SetBody(
      sdp::MakeAudioOffer(net::Endpoint{net::IpAddress(10, 1, 0, 10), 20000})
          .Serialize(),
      "application/sdp");

  const auto result = classifier.Classify(
      Wrap(invite.Serialize(), net::PayloadKind::kSip), true);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->proto, PacketProto::kSip);
  EXPECT_EQ(result->call_key, "cid-1");
  EXPECT_EQ(result->dest_key, "bob@b.example.com");
  const auto& event = result->event;
  EXPECT_EQ(event.name, kSipEvent);
  EXPECT_EQ(event.ArgString("kind"), "request");
  EXPECT_EQ(event.ArgString("method"), "INVITE");
  EXPECT_EQ(event.ArgInt("cseq"), 7);
  EXPECT_EQ(event.ArgString("from_tag"), "ft");
  EXPECT_EQ(event.ArgString("branch"), "z9hG4bKtest");
  EXPECT_EQ(event.ArgString("src_ip"), "10.1.0.1");
  EXPECT_EQ(event.ArgInt("dst_port"), 5060);
  EXPECT_EQ(event.Arg("from_outside"), efsm::Value{true});
  EXPECT_EQ(event.ArgString("sdp_ip"), "10.1.0.10");
  EXPECT_EQ(event.ArgInt("sdp_port"), 20000);
  EXPECT_EQ(event.ArgInt("sdp_pt"), 18);
}

TEST(Classifier, RtpEventCarriesStreamFields) {
  PacketClassifier classifier;
  rtp::RtpHeader header;
  header.ssrc = 0xCAFE;
  header.sequence_number = 42;
  header.timestamp = 4242;
  header.payload_type = 18;
  header.marker = true;
  const auto result = classifier.Classify(
      Wrap(header.Serialize(), net::PayloadKind::kRtp), false);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->proto, PacketProto::kRtp);
  EXPECT_EQ(result->event.ArgInt("ssrc"), 0xCAFE);
  EXPECT_EQ(result->event.ArgInt("seq"), 42);
  EXPECT_EQ(result->event.ArgInt("ts"), 4242);
  EXPECT_EQ(result->event.Arg("marker"), efsm::Value{true});
}

TEST(Classifier, RtcpSniffedBeforeRtp) {
  PacketClassifier classifier;
  rtp::SenderReport sr;
  sr.sender_ssrc = 9;
  sr.packet_count = 500;
  const auto result = classifier.Classify(
      Wrap(sr.Serialize(), net::PayloadKind::kRtp), true);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->proto, PacketProto::kRtcp);
  EXPECT_EQ(result->event.ArgString("kind"), "SR");
  EXPECT_EQ(result->event.ArgInt("packet_count"), 500);
}

TEST(Classifier, HintIsOnlyAHint) {
  PacketClassifier classifier;
  // SIP content labeled as RTP still classifies as SIP (content wins).
  const auto result = classifier.Classify(
      Wrap("OPTIONS sip:x@y SIP/2.0\r\nCSeq: 1 OPTIONS\r\n"
           "Content-Length: 0\r\n\r\n",
           net::PayloadKind::kRtp),
      true);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->proto, PacketProto::kSip);
}

TEST(Classifier, JunkIsCountedUnknown) {
  PacketClassifier classifier;
  EXPECT_EQ(classifier.Classify(
                Wrap("\x01\x02garbage", net::PayloadKind::kSip), true),
            nullptr);
  EXPECT_EQ(classifier.unknown_packets(), 1u);
}

// ------------------------------------------------------------ fact base

class FactBaseFixture : public ::testing::Test {
 protected:
  FactBaseFixture() : fact_base_(scheduler_, config_, nullptr) {}

  DetectionConfig config_;
  sim::Scheduler scheduler_;
  CallStateFactBase fact_base_;
};

TEST_F(FactBaseFixture, CallGroupCreatedOnceWithMachinesAndChannel) {
  bool created = false;
  auto& group = fact_base_.GetOrCreateCall("c1", created);
  EXPECT_TRUE(created);
  EXPECT_NE(group.Find(kSipMachineName), nullptr);
  EXPECT_NE(group.Find(kRtpMachineName), nullptr);
  EXPECT_NE(group.Find("cancel-dos"), nullptr);
  EXPECT_NE(group.Find("hijack"), nullptr);

  auto& again = fact_base_.GetOrCreateCall("c1", created);
  EXPECT_FALSE(created);
  EXPECT_EQ(&group, &again);
  EXPECT_EQ(fact_base_.call_count(), 1u);
  EXPECT_EQ(fact_base_.calls_created(), 1u);
}

TEST_F(FactBaseFixture, CrossProtocolAblationSkipsChannel) {
  DetectionConfig ablated = config_;
  ablated.enable_cross_protocol = false;
  CallStateFactBase fact_base(scheduler_, ablated, nullptr);
  bool created = false;
  auto& group = fact_base.GetOrCreateCall("c1", created);
  // The SIP machine's δ emit lands on an unrouted channel: the RTP machine
  // must stay in INIT after a media offer.
  auto* sip_machine = group.Find(kSipMachineName);
  efsm::Event invite;
  invite.name = std::string(kSipEvent);
  invite.args["kind"] = std::string("request");
  invite.args["method"] = std::string("INVITE");
  invite.args["sdp_ip"] = std::string("10.1.0.10");
  invite.args["sdp_port"] = int64_t{20000};
  invite.args["sdp_pt"] = int64_t{18};
  group.DeliverData(*sip_machine, invite);
  EXPECT_EQ(group.Find(kRtpMachineName)->StateName(), "INIT");
}

TEST_F(FactBaseFixture, KeyedGroupsPerKindAndKey) {
  auto& flood1 = fact_base_.GetOrCreateInviteFlood("bob@b");
  auto& flood2 = fact_base_.GetOrCreateInviteFlood("bob@b");
  auto& media = fact_base_.GetOrCreateMediaGroup(
      net::Endpoint{net::IpAddress(10, 2, 0, 10), 30000});
  EXPECT_EQ(&flood1, &flood2);
  EXPECT_NE(static_cast<void*>(&flood1), static_cast<void*>(&media));
  EXPECT_EQ(fact_base_.keyed_count(), 2u);
  EXPECT_NE(flood1.Find("invite-flood"), nullptr);
  EXPECT_NE(media.Find("media-spam"), nullptr);
  EXPECT_NE(media.Find("rtp-flood"), nullptr);
  EXPECT_NE(media.Find("rtcp-bye"), nullptr);
}

TEST_F(FactBaseFixture, MediaIndexMapsEndpointsToCalls) {
  const net::Endpoint ep{net::IpAddress(10, 2, 0, 10), 30000};
  bool created = false;
  fact_base_.GetOrCreateCall("c1", created);
  fact_base_.GetOrCreateCall("c2", created);
  fact_base_.IndexMedia(ep, "c1");
  EXPECT_EQ(fact_base_.CallByMedia(ep), "c1");
  fact_base_.IndexMedia(ep, "c2");  // rebind (port reuse)
  EXPECT_EQ(fact_base_.CallByMedia(ep), "c2");
}

TEST_F(FactBaseFixture, MediaForUnknownCallIsNotIndexed) {
  // An index entry with no owning call would have no reverse index and
  // could never be reclaimed — the fact base refuses to create one.
  const net::Endpoint ep{net::IpAddress(10, 2, 0, 10), 30000};
  fact_base_.IndexMedia(ep, "ghost");
  EXPECT_EQ(fact_base_.CallByMedia(ep), std::nullopt);
  EXPECT_EQ(fact_base_.media_index_count(), 0u);
}

TEST_F(FactBaseFixture, SweepReclaimsIdleKeyedGroups) {
  fact_base_.GetOrCreateInviteFlood("bob@b");
  scheduler_.RunUntil(scheduler_.Now() + config_.keyed_idle_timeout +
                      sim::Duration::Seconds(2));
  fact_base_.Sweep(scheduler_.Now());
  EXPECT_EQ(fact_base_.keyed_count(), 0u);
}

TEST_F(FactBaseFixture, SweepReclaimsIdleCallsWithTombstone) {
  bool created = false;
  fact_base_.GetOrCreateCall("stuck", created);
  scheduler_.RunUntil(scheduler_.Now() + config_.call_idle_timeout +
                      sim::Duration::Seconds(2));
  fact_base_.Sweep(scheduler_.Now());
  EXPECT_EQ(fact_base_.call_count(), 0u);
  EXPECT_TRUE(fact_base_.IsTombstoned("stuck"));
  EXPECT_EQ(fact_base_.calls_deleted(), 1u);

  // Tombstones themselves expire.
  scheduler_.RunUntil(scheduler_.Now() + config_.tombstone_ttl +
                      sim::Duration::Seconds(2));
  fact_base_.Sweep(scheduler_.Now());
  EXPECT_FALSE(fact_base_.IsTombstoned("stuck"));
}

TEST_F(FactBaseFixture, SweepDropsMediaIndexOfDeletedCall) {
  bool created = false;
  fact_base_.GetOrCreateCall("c1", created);
  const net::Endpoint ep{net::IpAddress(10, 2, 0, 10), 30000};
  fact_base_.IndexMedia(ep, "c1");
  scheduler_.RunUntil(scheduler_.Now() + config_.call_idle_timeout +
                      sim::Duration::Seconds(2));
  fact_base_.Sweep(scheduler_.Now());
  EXPECT_FALSE(fact_base_.CallByMedia(ep).has_value());
}

TEST_F(FactBaseFixture, BinaryKeyedGroupsAreOnePerKey) {
  const net::Endpoint ep{net::IpAddress(10, 2, 0, 10), 30000};
  auto& media = fact_base_.GetOrCreateMediaGroup(ep);
  EXPECT_EQ(&media, &fact_base_.GetOrCreateMediaGroup(ep));
  EXPECT_EQ(media.name(), "media|10.2.0.10:30000");
  EXPECT_EQ(fact_base_.keyed_count(), 1u);

  // Media and DRDoS groups share one binary-keyed map; the family tag keeps
  // a host's two groups apart.
  auto& drdos = fact_base_.GetOrCreateDrdosGroup(net::IpAddress(10, 2, 0, 10));
  EXPECT_EQ(&drdos, &fact_base_.GetOrCreateDrdosGroup(
                        net::IpAddress(10, 2, 0, 10)));
  EXPECT_NE(static_cast<void*>(&drdos), static_cast<void*>(&media));
  EXPECT_EQ(drdos.name(), "drdos|10.2.0.10");
  EXPECT_NE(drdos.Find("drdos"), nullptr);
  EXPECT_EQ(fact_base_.keyed_count(), 2u);
}

TEST_F(FactBaseFixture, FindGroupByMediaResolvesTheOwningGroup) {
  const net::Endpoint ep{net::IpAddress(10, 2, 0, 10), 30000};
  EXPECT_EQ(fact_base_.FindGroupByMedia(ep), nullptr);

  bool created = false;
  auto& group = fact_base_.GetOrCreateCall("c1", created);
  fact_base_.IndexMedia(ep, "c1");
  EXPECT_EQ(fact_base_.FindGroupByMedia(ep), &group);

  scheduler_.RunUntil(scheduler_.Now() + config_.call_idle_timeout +
                      sim::Duration::Seconds(2));
  fact_base_.Sweep(scheduler_.Now());
  EXPECT_EQ(fact_base_.FindGroupByMedia(ep), nullptr);
}

TEST_F(FactBaseFixture, SweepKeepsReboundMediaIndexEntry) {
  // c1 negotiates ep, then the port is reused by c2. When c1 is reclaimed
  // its stale reverse keys must not delete c2's live index entry.
  bool created = false;
  fact_base_.GetOrCreateCall("c1", created);
  const net::Endpoint ep{net::IpAddress(10, 2, 0, 10), 30000};
  fact_base_.IndexMedia(ep, "c1");

  scheduler_.RunUntil(scheduler_.Now() + config_.call_idle_timeout -
                      sim::Duration::Seconds(5));
  auto& c2 = fact_base_.GetOrCreateCall("c2", created);
  fact_base_.IndexMedia(ep, "c2");

  scheduler_.RunUntil(scheduler_.Now() + sim::Duration::Seconds(10));
  fact_base_.Sweep(scheduler_.Now());  // c1 idle-expired, c2 still fresh
  EXPECT_EQ(fact_base_.call_count(), 1u);
  EXPECT_EQ(fact_base_.CallByMedia(ep), "c2");
  EXPECT_EQ(fact_base_.FindGroupByMedia(ep), &c2);
}

TEST_F(FactBaseFixture, SweepIsRateLimited) {
  bool created = false;
  fact_base_.GetOrCreateCall("c1", created);
  // Two immediate sweeps: the second is a no-op (next_sweep_ gate), cheap
  // to call per-packet.
  fact_base_.Sweep(scheduler_.Now());
  fact_base_.Sweep(scheduler_.Now());
  EXPECT_EQ(fact_base_.call_count(), 1u);
}

}  // namespace
}  // namespace vids::ids
