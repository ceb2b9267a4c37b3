// Packet Classifier (paper Fig. 3, bottom stage).
//
// Turns raw datagrams into protocol-tagged EFSM events carrying the input
// vector x̄ the predicates read: SIP header fields and SDP media parameters,
// or RTP header fields. Classification is by content (a parse attempt),
// with the port/label only as a hint — attack traffic does not announce
// itself honestly.
#pragma once

#include <string>

#include "efsm/machine.h"
#include "net/datagram.h"
#include "sip/lazy_message.h"

namespace vids::ids {

enum class PacketProto { kSip, kRtp, kRtcp, kUnknown };

struct ClassifiedPacket {
  PacketProto proto = PacketProto::kUnknown;
  efsm::Event event;
  /// SIP: the Call-ID (call grouping key). RTP: empty — media is matched to
  /// a call through the fact base's media-endpoint index.
  std::string call_key;
  /// SIP INVITE: the destination AOR (INVITE-flood grouping key).
  std::string dest_key;
  /// Binary source/destination endpoints of the datagram — the fact base
  /// keys its media and victim indexes on these, no string round trips.
  net::Endpoint src;
  net::Endpoint dst;
};

class PacketClassifier {
 public:
  /// Classifies one datagram. Returns nullptr when it is neither parsable
  /// SIP nor RTP. The result points at per-protocol scratch owned by the
  /// classifier — valid until the next Classify call — so the steady-state
  /// path reuses event-argument and key-string capacity instead of
  /// rebuilding a ClassifiedPacket per packet. SIP fields come from the
  /// zero-copy lazy lexer; no sip::Message is materialized.
  const ClassifiedPacket* Classify(const net::Datagram& dgram,
                                   bool from_outside);

  uint64_t sip_packets() const { return sip_packets_; }
  uint64_t rtp_packets() const { return rtp_packets_; }
  uint64_t rtcp_packets() const { return rtcp_packets_; }
  uint64_t unknown_packets() const { return unknown_packets_; }

 private:
  const ClassifiedPacket* ClassifySip(const net::Datagram& dgram,
                                      bool from_outside);
  const ClassifiedPacket* ClassifyRtp(const net::Datagram& dgram,
                                      bool from_outside);
  const ClassifiedPacket* ClassifyRtcp(const net::Datagram& dgram,
                                       bool from_outside);

  uint64_t sip_packets_ = 0;
  uint64_t rtp_packets_ = 0;
  uint64_t rtcp_packets_ = 0;
  uint64_t unknown_packets_ = 0;

  // Reused per packet; each protocol shape writes its full argument set
  // every time (absent fields become monostate) so no value leaks from one
  // packet into the next.
  sip::LazyMessage lazy_;
  ClassifiedPacket sip_scratch_;
  ClassifiedPacket rtp_scratch_;
  ClassifiedPacket rtcp_scratch_;
};

/// Event names shared between the classifier and the machine definitions.
inline constexpr std::string_view kSipEvent = "SIP";
inline constexpr std::string_view kRtpEvent = "RTP";
inline constexpr std::string_view kRtcpEvent = "RTCP";
/// Synthesized by the Event Distributor for responses matching no call.
inline constexpr std::string_view kUnsolicitedEvent = "UNSOLICITED";
/// Synchronization channel (δ_SIP→RTP of Fig. 2/5), pre-interned, and the
/// event names it carries.
inline const efsm::ArgKey kSipToRtpChannel = efsm::ArgKey::Intern("SIP->RTP");
inline constexpr std::string_view kSyncOffer = "sync:offer";
inline constexpr std::string_view kSyncAnswer = "sync:answer";
inline constexpr std::string_view kSyncBye = "sync:bye";

/// Interned keys for the event argument vector x̄, shared by the classifier
/// (producer) and the machine predicates/actions (consumers) so hot-path
/// argument access never hashes a string.
namespace argkey {
// Transport endpoints (every packet event).
inline const efsm::ArgKey kSrcIp = efsm::ArgKey::Intern("src_ip");
inline const efsm::ArgKey kSrcPort = efsm::ArgKey::Intern("src_port");
inline const efsm::ArgKey kDstIp = efsm::ArgKey::Intern("dst_ip");
inline const efsm::ArgKey kDstPort = efsm::ArgKey::Intern("dst_port");
inline const efsm::ArgKey kFromOutside = efsm::ArgKey::Intern("from_outside");
// SIP.
inline const efsm::ArgKey kKind = efsm::ArgKey::Intern("kind");
inline const efsm::ArgKey kMethod = efsm::ArgKey::Intern("method");
inline const efsm::ArgKey kStatus = efsm::ArgKey::Intern("status");
inline const efsm::ArgKey kCallId = efsm::ArgKey::Intern("call_id");
inline const efsm::ArgKey kCseq = efsm::ArgKey::Intern("cseq");
inline const efsm::ArgKey kFrom = efsm::ArgKey::Intern("from");
inline const efsm::ArgKey kFromTag = efsm::ArgKey::Intern("from_tag");
inline const efsm::ArgKey kTo = efsm::ArgKey::Intern("to");
inline const efsm::ArgKey kToTag = efsm::ArgKey::Intern("to_tag");
inline const efsm::ArgKey kBranch = efsm::ArgKey::Intern("branch");
inline const efsm::ArgKey kSdpIp = efsm::ArgKey::Intern("sdp_ip");
inline const efsm::ArgKey kSdpPort = efsm::ArgKey::Intern("sdp_port");
inline const efsm::ArgKey kSdpCodec = efsm::ArgKey::Intern("sdp_codec");
inline const efsm::ArgKey kSdpPt = efsm::ArgKey::Intern("sdp_pt");
inline const efsm::ArgKey kUserAgent = efsm::ArgKey::Intern("user_agent");
// RTP / RTCP.
inline const efsm::ArgKey kSsrc = efsm::ArgKey::Intern("ssrc");
inline const efsm::ArgKey kSeq = efsm::ArgKey::Intern("seq");
inline const efsm::ArgKey kTs = efsm::ArgKey::Intern("ts");
inline const efsm::ArgKey kPt = efsm::ArgKey::Intern("pt");
inline const efsm::ArgKey kMarker = efsm::ArgKey::Intern("marker");
inline const efsm::ArgKey kPacketCount = efsm::ArgKey::Intern("packet_count");
// Synchronization events (δ_SIP→RTP payload).
inline const efsm::ArgKey kIp = efsm::ArgKey::Intern("ip");
inline const efsm::ArgKey kPort = efsm::ArgKey::Intern("port");
}  // namespace argkey

}  // namespace vids::ids
