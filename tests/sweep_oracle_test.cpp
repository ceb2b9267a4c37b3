// Sweep oracle: the fact-base and behavior sweeps visit only state that is
// due (age lists + retirement candidates), so after every sweep an
// exhaustive O(live) scan (DueSurvivors) must find nothing a sweep at that
// instant should have reclaimed. The oracle rides the Vids sweep hook and
// runs over unit lifecycles, a 20k-call soak with attack and behavioral
// bursts, and every corpus capture inline and at 4 shards.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "capture/corpus.h"
#include "capture/pcap.h"
#include "capture/replay.h"
#include "load/soak.h"
#include "rtp/packet.h"
#include "sdp/sdp.h"
#include "sip/message.h"
#include "vids/ids.h"
#include "vids/sharded_ids.h"

namespace vids::ids {
namespace {

/// Audits one Vids after each of its sweeps. Touched only from the thread
/// that runs that Vids; read it after the engine stopped.
class SweepOracle {
 public:
  void Attach(Vids& vids) {
    vids.set_sweep_hook([this, &vids](sim::Time now) {
      ++audits_;
      for (auto& line : vids.fact_base().DueSurvivors(now)) Note(now, line);
      for (auto& line : vids.behavior().DueSurvivors(now)) Note(now, line);
    });
  }
  uint64_t audits() const { return audits_; }
  const std::vector<std::string>& findings() const { return findings_; }

 private:
  void Note(sim::Time now, const std::string& line) {
    if (findings_.size() < 20) {
      findings_.push_back(std::to_string(now.nanos()) + "ns: " + line);
    }
  }
  uint64_t audits_ = 0;
  std::vector<std::string> findings_;
};

std::string Join(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

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

sip::Message Request(sip::Method method, const std::string& call_id,
                     uint32_t cseq, bool to_tag) {
  auto request = sip::Message::MakeRequest(
      method, *sip::SipUri::Parse("sip:bob@b.example.com"));
  sip::Via via;
  via.sent_by = kProxyA;
  via.branch = "z9hG4bK" + std::to_string(cseq) + call_id;
  request.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
  from.SetTag("tag-alice");
  request.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
  if (to_tag) to.SetTag("tag-bob");
  request.SetTo(to);
  request.SetCallId(call_id);
  request.SetCseq(sip::CSeq{cseq, method});
  if (method == sip::Method::kInvite) {
    request.SetBody(sdp::MakeAudioOffer(kCallerMedia).Serialize(),
                    "application/sdp");
  }
  return request;
}

sip::Message Response(const sip::Message& request, int status, bool sdp) {
  auto response = sip::Message::MakeResponse(status);
  for (const auto via : request.Headers("Via")) response.AddHeader("Via", via);
  response.SetFrom(*request.From());
  auto to = *request.To();
  to.SetTag("tag-bob");
  response.SetTo(to);
  response.SetCallId(std::string(*request.CallId()));
  response.SetCseq(*request.Cseq());
  if (sdp) {
    response.SetBody(sdp::MakeAudioOffer(kCalleeMedia).Serialize(),
                     "application/sdp");
  }
  return response;
}

class LifecycleFixture : public ::testing::Test {
 protected:
  void Start(DetectionConfig detection = {}) {
    vids_ = std::make_unique<Vids>(scheduler_, detection);
    oracle_.Attach(*vids_);
  }
  void Sip(const sip::Message& message, bool from_caller) {
    vids_->Inspect(from_caller ? SipDgram(message, kProxyA, kProxyB)
                               : SipDgram(message, kProxyB, kProxyA),
                   from_caller);
  }
  // INVITE / 200 / ACK, then one RTP packet so the RTP machine is active.
  void Establish(const std::string& call_id) {
    const auto invite = Request(sip::Method::kInvite, call_id, 1, false);
    Sip(invite, true);
    Sip(Response(invite, 200, true), false);
    Sip(Request(sip::Method::kAck, call_id, 1, true), true);
    rtp::RtpHeader header;
    header.ssrc = 0x77;
    header.sequence_number = 1;
    header.timestamp = 160;
    header.payload_type = 18;
    net::Datagram media;
    media.src = kCallerMedia;
    media.dst = kCalleeMedia;
    media.payload = header.Serialize();
    media.kind = net::PayloadKind::kRtp;
    vids_->Inspect(media, true);
  }
  // BYE / 200: the SIP machine retires, the RTP machine enters close_wait.
  void Hangup(const std::string& call_id) {
    const auto bye = Request(sip::Method::kBye, call_id, 2, true);
    Sip(bye, true);
    Sip(Response(bye, 200, false), false);
  }
  void Advance(sim::Duration d) { scheduler_.RunUntil(scheduler_.Now() + d); }
  const efsm::MachineGroup& Call(const std::string& call_id) {
    return *vids_->fact_base().FindCall(call_id);
  }
  void TearDown() override {
    EXPECT_GT(oracle_.audits(), 0u);
    EXPECT_TRUE(oracle_.findings().empty()) << Join(oracle_.findings());
  }

  sim::Scheduler scheduler_;
  std::unique_ptr<Vids> vids_;
  SweepOracle oracle_;
};

TEST_F(LifecycleFixture, SipRetiresFirstAndRtpLaterRetiresOnLinger) {
  Start();
  Establish("c-linger");
  Hangup("c-linger");
  const auto& group = Call("c-linger");
  ASSERT_TRUE(group.machine(call_machine::kSip).retired());
  ASSERT_FALSE(group.machine(call_machine::kRtp).retired());

  // The SIP retirement made the call a candidate; the sweep finds it
  // incomplete (RTP in close_wait, then RTP Close) and keeps it.
  Advance(sim::Duration::Seconds(3));
  EXPECT_NE(vids_->fact_base().FindCall("c-linger"), nullptr);
  EXPECT_EQ(Call("c-linger").machine(call_machine::kRtp).StateName(),
            "RTP Close");

  // The RTP linger timer retires the second machine: the next sweep
  // reclaims the call without any packet arriving.
  Advance(vids_->detection().rtp_close_linger);
  EXPECT_EQ(vids_->fact_base().FindCall("c-linger"), nullptr);
  EXPECT_TRUE(vids_->fact_base().IsTombstoned("c-linger"));
  EXPECT_EQ(vids_->fact_base().calls_deleted(), 1u);
}

TEST_F(LifecycleFixture, RejectedCandidateStillGoesIdle) {
  DetectionConfig detection;
  detection.call_idle_timeout = sim::Duration::Seconds(5);
  detection.rtp_close_linger = sim::Duration::Seconds(60);
  Start(detection);
  Establish("c-idle");
  Hangup("c-idle");
  Advance(sim::Duration::Seconds(2));  // candidate checked, not complete
  ASSERT_NE(vids_->fact_base().FindCall("c-idle"), nullptr);
  // Long before the linger retires RTP, the call idles out.
  Advance(detection.call_idle_timeout);
  EXPECT_EQ(vids_->fact_base().FindCall("c-idle"), nullptr);
  EXPECT_TRUE(vids_->fact_base().IsTombstoned("c-idle"));
  // The retirement that follows after the reclaim finds no call.
  Advance(detection.rtp_close_linger);
  EXPECT_EQ(vids_->fact_base().call_count(), 0u);
}

TEST_F(LifecycleFixture, DropMediaKeyedGroupUnlinksListedGroups) {
  Start();
  CallStateFactBase& fact_base = vids_->fact_base();
  std::vector<net::Endpoint> endpoints;
  for (uint16_t i = 0; i < 4; ++i) {
    endpoints.push_back(
        net::Endpoint{net::IpAddress(10, 2, 0, 20), static_cast<uint16_t>(
                                                        40000 + 2 * i)});
    fact_base.GetOrCreateMediaGroup(endpoints.back());
    Advance(sim::Duration::Seconds(1));
  }
  ASSERT_EQ(fact_base.keyed_count(), 4u);
  // Drop the middle, the oldest and the newest of the age order.
  fact_base.DropMediaKeyedGroup(endpoints[1]);
  fact_base.DropMediaKeyedGroup(endpoints[0]);
  fact_base.DropMediaKeyedGroup(endpoints[3]);
  EXPECT_EQ(fact_base.keyed_count(), 1u);
  // A re-created group is linked afresh; both age out on the idle path.
  fact_base.GetOrCreateMediaGroup(endpoints[1]);
  EXPECT_EQ(fact_base.keyed_count(), 2u);
  Advance(vids_->detection().keyed_idle_timeout + sim::Duration::Seconds(2));
  EXPECT_EQ(fact_base.keyed_count(), 0u);
}

TEST_F(LifecycleFixture, PooledGroupReusedForNewCallIdCompletes) {
  Start();
  Establish("c-first");
  Hangup("c-first");
  Advance(vids_->detection().rtp_close_linger + sim::Duration::Seconds(2));
  ASSERT_EQ(vids_->fact_base().call_count(), 0u);  // group parked in pool

  // The next call draws the parked group; its retirements must be
  // reported under the new Call-ID.
  Establish("c-second");
  Hangup("c-second");
  Advance(vids_->detection().rtp_close_linger + sim::Duration::Seconds(2));
  EXPECT_EQ(vids_->fact_base().call_count(), 0u);
  EXPECT_EQ(vids_->fact_base().calls_deleted(), 2u);
  EXPECT_TRUE(vids_->fact_base().IsTombstoned("c-second"));
  // Tombstones expire off the TTL queue.
  Advance(vids_->detection().tombstone_ttl + sim::Duration::Seconds(2));
  EXPECT_EQ(vids_->fact_base().tombstone_count(), 0u);
}

TEST(SweepOracleSoak, TwentyThousandCallsWithAttackAndBehaviorBursts) {
  load::SoakConfig config;
  config.total_calls = 20'000;
  config.spit_bursts = 2;
  config.reg_crack_bursts = 2;
  config.toll_fraud_bursts = 2;
  load::SoakDriver driver(config);
  SweepOracle oracle;
  oracle.Attach(driver.vids());
  const load::SoakReport report = driver.Run();
  EXPECT_TRUE(report.bounded);
  EXPECT_GT(report.alerts_total, 0u);
  EXPECT_GT(oracle.audits(), 100u);
  EXPECT_TRUE(oracle.findings().empty()) << Join(oracle.findings());
  // The drain empties everything, so every sweep path ran to completion.
  EXPECT_EQ(driver.vids().fact_base().call_count(), 0u);
  EXPECT_EQ(driver.vids().fact_base().tombstone_count(), 0u);
  EXPECT_EQ(driver.vids().behavior().profile_count(), 0u);
}

TEST(SweepOracleCorpus, EveryCaptureInlineAndAtFourShards) {
  for (const auto& file : capture::corpus::BuildAll()) {
    capture::PcapReadOptions read;
    read.inside = capture::corpus::InsideSubnet();
    {
      capture::PcapFileSource source(file.bytes, read);
      sim::Scheduler scheduler;
      Vids vids(scheduler);
      SweepOracle oracle;
      oracle.Attach(vids);
      EXPECT_TRUE(capture::RunSource(source, vids, scheduler).ok);
      // Run past every lifecycle timeout so the tail state is swept too.
      scheduler.RunUntil(scheduler.Now() + sim::Duration::Seconds(600));
      EXPECT_GT(oracle.audits(), 0u) << file.name;
      EXPECT_TRUE(oracle.findings().empty())
          << file.name << " inline\n" << Join(oracle.findings());
      EXPECT_EQ(vids.fact_base().call_count(), 0u) << file.name;
    }
    {
      capture::PcapFileSource source(file.bytes, read);
      ShardedConfig config;
      config.shards = 4;
      ShardedIds engine(config);
      std::vector<SweepOracle> oracles(4);
      for (int i = 0; i < 4; ++i) oracles[static_cast<size_t>(i)].Attach(
          engine.shard_vids(i));
      EXPECT_TRUE(capture::RunSource(source, engine).ok);
      const sim::Time end = source.clock() + sim::Duration::Seconds(600);
      engine.Flush(end);
      engine.Stop();
      uint64_t audits = 0;
      for (const SweepOracle& oracle : oracles) {
        audits += oracle.audits();
        EXPECT_TRUE(oracle.findings().empty())
            << file.name << " 4 shards\n" << Join(oracle.findings());
      }
      EXPECT_GT(audits, 0u) << file.name;
      // The coordinator sweeps its behavior profiles at every flush.
      EXPECT_TRUE(engine.behavior().DueSurvivors(end).empty()) << file.name;
    }
  }
}

}  // namespace
}  // namespace vids::ids
