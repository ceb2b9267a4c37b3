#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "capture/corpus.h"
#include "capture/pcap.h"
#include "common/rng.h"
#include "sdp/sdp.h"
#include "sip/lazy_message.h"

namespace vids::sdp {
namespace {

constexpr const char* kTypical =
    "v=0\r\n"
    "o=alice 2890844526 2890844527 IN IP4 10.1.0.10\r\n"
    "s=call\r\n"
    "c=IN IP4 10.1.0.10\r\n"
    "t=0 0\r\n"
    "m=audio 20000 RTP/AVP 18 0\r\n"
    "a=rtpmap:18 G729/8000\r\n"
    "a=rtpmap:0 PCMU/8000\r\n"
    "a=sendrecv\r\n";

TEST(Sdp, ParsesTypicalOffer) {
  const auto sd = SessionDescription::Parse(kTypical);
  ASSERT_TRUE(sd.has_value());
  EXPECT_EQ(sd->origin_username, "alice");
  EXPECT_EQ(sd->session_id, 2890844526u);
  EXPECT_EQ(sd->session_version, 2890844527u);
  ASSERT_TRUE(sd->connection.has_value());
  EXPECT_EQ(sd->connection->ToString(), "10.1.0.10");
  ASSERT_EQ(sd->media.size(), 1u);
  const auto& m = sd->media[0];
  EXPECT_EQ(m.media, "audio");
  EXPECT_EQ(m.port, 20000);
  EXPECT_EQ(m.transport, "RTP/AVP");
  EXPECT_EQ(m.payload_types, (std::vector<int>{18, 0}));
  EXPECT_EQ(m.rtpmap.at(18), "G729/8000");
  ASSERT_EQ(m.attributes.size(), 1u);
  EXPECT_EQ(m.attributes[0], "sendrecv");
}

TEST(Sdp, AudioEndpointAndCodec) {
  const auto sd = SessionDescription::Parse(kTypical);
  ASSERT_TRUE(sd.has_value());
  const auto ep = sd->AudioEndpoint();
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->ToString(), "10.1.0.10:20000");
  EXPECT_EQ(sd->AudioCodec(), "G729");
}

TEST(Sdp, MediaLevelConnectionOverridesSession) {
  const auto sd = SessionDescription::Parse(
      "v=0\r\n"
      "o=- 1 1 IN IP4 10.0.0.1\r\n"
      "s=-\r\n"
      "c=IN IP4 10.0.0.1\r\n"
      "m=audio 4000 RTP/AVP 0\r\n"
      "c=IN IP4 10.0.0.99\r\n");
  ASSERT_TRUE(sd.has_value());
  EXPECT_EQ(sd->AudioEndpoint()->ip.ToString(), "10.0.0.99");
}

TEST(Sdp, CodecFallsBackToStaticPayloadTable) {
  const auto sd = SessionDescription::Parse(
      "v=0\r\no=- 1 1 IN IP4 10.0.0.1\r\ns=-\r\nc=IN IP4 10.0.0.1\r\n"
      "m=audio 4000 RTP/AVP 0\r\n");
  ASSERT_TRUE(sd.has_value());
  EXPECT_EQ(sd->AudioCodec(), "PCMU");
}

TEST(Sdp, SerializeParseRoundTrip) {
  const auto offer =
      MakeAudioOffer(net::Endpoint{net::IpAddress(10, 2, 0, 11), 22334});
  const auto parsed = SessionDescription::Parse(offer.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AudioEndpoint()->ToString(), "10.2.0.11:22334");
  EXPECT_EQ(parsed->AudioCodec(), "G729");
  ASSERT_EQ(parsed->media.size(), 1u);
  EXPECT_EQ(parsed->media[0].payload_types, (std::vector<int>{18}));
}

TEST(Sdp, RejectsMissingVersion) {
  EXPECT_FALSE(SessionDescription::Parse(
                   "o=- 1 1 IN IP4 10.0.0.1\r\ns=-\r\n")
                   .has_value());
  EXPECT_FALSE(SessionDescription::Parse("").has_value());
  EXPECT_FALSE(SessionDescription::Parse("v=1\r\n").has_value());
}

TEST(Sdp, RejectsMalformedMediaLine) {
  EXPECT_FALSE(
      SessionDescription::Parse("v=0\r\nm=audio RTP/AVP 0\r\n").has_value());
  EXPECT_FALSE(
      SessionDescription::Parse("v=0\r\nm=audio 4000 RTP/AVP x\r\n")
          .has_value());
}

TEST(Sdp, RejectsMalformedConnection) {
  EXPECT_FALSE(
      SessionDescription::Parse("v=0\r\nc=IN IP6 ::1\r\n").has_value());
  EXPECT_FALSE(
      SessionDescription::Parse("v=0\r\nc=IN IP4 999.0.0.1\r\n").has_value());
}

TEST(Sdp, IgnoresUnknownLinesAndBareNewlines) {
  const auto sd = SessionDescription::Parse(
      "v=0\n"
      "o=- 1 1 IN IP4 10.0.0.1\n"
      "s=-\n"
      "b=AS:64\n"
      "z=something\n"
      "c=IN IP4 10.0.0.1\n"
      "m=audio 4000 RTP/AVP 18\n");
  ASSERT_TRUE(sd.has_value());
  EXPECT_TRUE(sd->AudioEndpoint().has_value());
}

TEST(Sdp, LinesWithoutEqualsAreRejected) {
  EXPECT_FALSE(SessionDescription::Parse("v=0\r\ngarbage\r\n").has_value());
}

TEST(Sdp, NoAudioSectionMeansNoEndpoint) {
  const auto sd = SessionDescription::Parse(
      "v=0\r\nc=IN IP4 10.0.0.1\r\nm=video 5000 RTP/AVP 31\r\n");
  ASSERT_TRUE(sd.has_value());
  EXPECT_FALSE(sd->AudioEndpoint().has_value());
  EXPECT_EQ(sd->AudioCodec(), "");
}

TEST(Sdp, ZeroPortMeansNoEndpoint) {
  const auto sd = SessionDescription::Parse(
      "v=0\r\nc=IN IP4 10.0.0.1\r\nm=audio 0 RTP/AVP 18\r\n");
  ASSERT_TRUE(sd.has_value());
  EXPECT_FALSE(sd->AudioEndpoint().has_value());
}

// ------------------------------------------- ProbeAudio vs Parse oracle

// ProbeAudio (the classifier's and the sharded router's allocation-free
// SDP reader) claims to equal Parse + AudioEndpoint + AudioCodec + the
// first section's first payload type, and to reject exactly what Parse
// rejects. Returns "" when both agree on `body`, else what differs.
std::string ProbeDisagreement(const std::string& body) {
  const auto parsed = SessionDescription::Parse(body);
  const auto probe = ProbeAudio(body);
  if (parsed.has_value() != probe.has_value()) {
    return parsed ? "probe rejects, Parse accepts"
                  : "probe accepts, Parse rejects";
  }
  if (!parsed) return "";
  const auto endpoint = parsed->AudioEndpoint();
  if (probe->has_endpoint != endpoint.has_value() ||
      (endpoint && probe->endpoint != *endpoint)) {
    return "endpoint";
  }
  if (probe->codec != parsed->AudioCodec()) return "codec";
  if (probe->has_first_pt != !parsed->media.empty() ||
      (probe->has_first_pt &&
       probe->first_pt != parsed->media.front().payload_types.front())) {
    return "first payload type";
  }
  return "";
}

std::vector<std::string> Lines(const std::string& body) {
  std::vector<std::string> lines;
  std::istringstream in(body);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string Join(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

// One seeded structural mutation of an SDP body.
std::string Mutate(const std::string& body, common::Stream& rng) {
  std::vector<std::string> lines = Lines(body);
  if (lines.empty()) return body;
  const auto pick = [&](size_t n) {
    return static_cast<size_t>(rng.NextInRange(0, n - 1));
  };
  const auto m_line = [&]() -> std::optional<size_t> {
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].rfind("m=", 0) == 0) return i;
    }
    return std::nullopt;
  };
  static const char* kRtpmaps[] = {
      "a=rtpmap:18 G729/8000",  "a=rtpmap:18 PCMU/8000\r",
      "a=rtpmap:0 PCMA/8000",   "a=RTPMAP:18 GSM/8000",
      "a=rtpmap:18  G722/8000", "a=rtpmap:18",
      "a=rtpmap: 18 G729/8000", "a=rtpmap:18 /8000",
      "a=rtpmap:x G729/8000",   "a=rtpmap:18 iLBC",
  };
  switch (rng.NextInRange(0, 8)) {
    case 0:  // drop a line
      lines.erase(lines.begin() + static_cast<long>(pick(lines.size())));
      break;
    case 1: {  // duplicate a line
      const size_t i = pick(lines.size());
      lines.insert(lines.begin() + static_cast<long>(i), lines[i]);
      break;
    }
    case 2: {  // double one space
      std::string& line = lines[pick(lines.size())];
      const size_t space = line.find(' ', pick(line.size() + 1));
      if (space != std::string::npos) line.insert(space, " ");
      break;
    }
    case 3:  // media-level c= (after the first m=, or anywhere)
      lines.insert(lines.begin() +
                       static_cast<long>(m_line() ? *m_line() + 1
                                                  : pick(lines.size() + 1)),
                   rng.NextBernoulli(0.8) ? "c=IN IP4 10.7.7.7\r"
                                          : "c=IN IP4 10.7.7\r");
      break;
    case 4:  // a second audio section
      lines.push_back("m=audio 41000 RTP/AVP 0 18\r");
      if (rng.NextBernoulli(0.5)) lines.push_back("c=IN IP4 10.8.8.8\r");
      if (rng.NextBernoulli(0.5)) lines.push_back("a=rtpmap:0 PCMU/8000\r");
      break;
    case 5:  // a non-audio section ahead of the audio one
      lines.insert(lines.begin() + static_cast<long>(m_line().value_or(
                                       lines.size())),
                   "m=video 5000 RTP/AVP 31\r");
      break;
    case 6:  // rtpmap variants, inserted anywhere
      lines.insert(lines.begin() + static_cast<long>(pick(lines.size() + 1)),
                   kRtpmaps[pick(std::size(kRtpmaps))]);
      break;
    case 7:  // port 0 (or another port) on the first m=
      if (const auto m = m_line()) {
        const size_t space = lines[*m].find(' ');
        const size_t end = lines[*m].find(' ', space + 1);
        if (space != std::string::npos && end != std::string::npos) {
          lines[*m].replace(space + 1, end - space - 1,
                            rng.NextBernoulli(0.7) ? "0" : "65536");
        }
      }
      break;
    default: {  // payload type list edits on the first m=
      if (const auto m = m_line()) {
        static const char* kFmts[] = {" 0", " 8 18", " x", "", " 96"};
        lines[*m] += kFmts[pick(std::size(kFmts))];
      }
      break;
    }
  }
  return Join(lines);
}

// Seed bodies: this file's fixtures and every SDP the pcap corpus carries.
std::vector<std::string> SeedBodies() {
  std::vector<std::string> bodies = {
      kTypical,
      "v=0\r\no=- 1 1 IN IP4 10.0.0.1\r\ns=-\r\nc=IN IP4 10.0.0.1\r\n"
      "m=audio 4000 RTP/AVP 0\r\nc=IN IP4 10.0.0.99\r\n",
      "v=0\r\nc=IN IP4 10.0.0.1\r\nm=video 5000 RTP/AVP 31\r\n",
      "v=0\r\nc=IN IP4 10.0.0.1\r\nm=audio 0 RTP/AVP 18\r\n",
      "v=0\no=- 1 1 IN IP4 10.0.0.1\ns=-\nb=AS:64\nz=x\nc=IN IP4 10.0.0.1\n"
      "m=audio 4000 RTP/AVP 18\n",
      MakeAudioOffer(net::Endpoint{net::IpAddress(10, 2, 0, 11), 22334})
          .Serialize(),
  };
  size_t from_corpus = 0;
  for (const auto& file : capture::corpus::BuildAll()) {
    capture::PcapFileSource source(file.bytes);
    std::vector<capture::TimedPacket> batch;
    while (source.PullBatch(batch, 64) > 0) {
      for (const auto& packet : batch) {
        sip::LazyMessage lazy;
        if (!lazy.Index(packet.dgram.payload) || lazy.body().empty()) continue;
        bodies.emplace_back(lazy.body());
        ++from_corpus;
      }
    }
  }
  EXPECT_GT(from_corpus, 0u) << "the corpus carries no SDP";
  return bodies;
}

TEST(SdpProbe, AgreesWithParseOnEveryFixtureAndCorpusBody) {
  for (const auto& body : SeedBodies()) {
    EXPECT_EQ(ProbeDisagreement(body), "") << body;
  }
}

TEST(SdpProbe, AgreesWithParseUnderSeededMutations) {
  const auto seeds = SeedBodies();
  common::Stream rng(19, "sdp-probe");
  size_t accepted = 0;
  size_t rejected = 0;
  size_t with_endpoint = 0;
  size_t disagreements = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string body = seeds[static_cast<size_t>(
        rng.NextInRange(0, seeds.size() - 1))];
    const auto rounds = rng.NextInRange(1, 3);
    for (uint64_t r = 0; r < rounds; ++r) body = Mutate(body, rng);
    const std::string diff = ProbeDisagreement(body);
    if (!diff.empty() && ++disagreements <= 5) {
      ADD_FAILURE() << diff << " on:\n" << body;
    }
    const auto parsed = SessionDescription::Parse(body);
    (parsed ? accepted : rejected) += 1;
    if (parsed && parsed->AudioEndpoint()) ++with_endpoint;
  }
  EXPECT_EQ(disagreements, 0u);
  // Vacuity guards: the mutations reach both verdicts and both endpoint
  // outcomes, so agreement is not agreement on one easy case.
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(with_endpoint, 500u);
  EXPECT_GT(accepted - with_endpoint, 500u);
}

}  // namespace
}  // namespace vids::sdp
