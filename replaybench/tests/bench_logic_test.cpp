// Tests of the replay benchmark's own logic: the percentile rule, the
// steal-aware median, the open-loop schedule and its lateness accounting,
// detection-latency attribution, the canonical alert diff, the pass shift
// of a pcap and the benchmark's packet buckets.
#include <gtest/gtest.h>

#include "bench_logic.h"
#include "capture/pcap.h"

namespace replaybench {
namespace {

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  // Nearest rank ceil(p * n): n - rank samples lie beyond it.
  EXPECT_EQ(TailPercentile(10'000), 99.9);  // 10 beyond rank 9990
  EXPECT_EQ(TailPercentile(9'999), 99.0);   // p99.9 leaves only 9
  EXPECT_EQ(TailPercentile(1'000), 99.0);   // exactly 10 beyond
  EXPECT_EQ(TailPercentile(999), 95.0);
  EXPECT_EQ(TailPercentile(200), 95.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(40), 75.0);
  EXPECT_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(19), 0.0);  // not even the median qualifies
  EXPECT_EQ(TailPercentile(0), 0.0);
}

TEST(PercentileRule, SummaryUsesNearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const Summary s = Summarize(v);
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.p50, 50.0);
  EXPECT_EQ(s.tail_pct, 90.0);
  EXPECT_EQ(s.tail, 90.0);
}

TEST(PercentileRule, TooFewSamplesFallBackToMedian) {
  const Summary s = Summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(s.p50, 2.0);
  EXPECT_EQ(s.tail_pct, 0.0);
  EXPECT_EQ(s.tail, s.p50);
  EXPECT_EQ(Summarize({}).n, 0u);
}

TEST(CleanMedian, KeepsTheHalfWithTheLeastStolenCpu) {
  // Samples 2 and 4 ran while the host took CPU away.
  const std::vector<double> values = {10, 11, 3, 12, 2};
  const std::vector<double> steal = {0.0, 0.1, 0.9, 0.0, 0.7};
  // Kept: 10, 12, 11 (ceil(5/2) = 3 least stolen) -> median 11.
  EXPECT_EQ(CleanMedian(values, steal), 11.0);
  // No steal reported: ties keep every sample's order, so the first half.
  EXPECT_EQ(CleanMedian({5, 9, 1}, {0, 0, 0}), 5.0);
  EXPECT_EQ(CleanMedian({4}, {3.0}), 4.0);
}

TEST(OpenLoopSchedule, DueTimesFollowTheRateNotTheSends) {
  OpenLoopSchedule schedule(1000.0, 5'000);  // one packet per ms
  EXPECT_EQ(schedule.DueNs(0), 5'000);
  EXPECT_EQ(schedule.DueNs(1), 1'005'000);
  EXPECT_EQ(schedule.DueNs(1000), 1'000'005'000);
  // A stall on packet 1 does not move packet 2's due time.
  EXPECT_EQ(schedule.RecordSend(0, 5'000), 0);
  EXPECT_EQ(schedule.RecordSend(1, 4'005'000), 3'000'000);
  EXPECT_EQ(schedule.RecordSend(2, 4'005'100), 2'000'100);
  // Early sends count as on time.
  EXPECT_EQ(schedule.RecordSend(3, 1'000), 0);
  ASSERT_EQ(schedule.late_us().size(), 4u);
  EXPECT_DOUBLE_EQ(schedule.late_us()[1], 3000.0);
  EXPECT_DOUBLE_EQ(schedule.late_us()[2], 2000.1);
  EXPECT_DOUBLE_EQ(schedule.late_us()[3], 0.0);
}

TEST(OpenLoopSchedule, LatencyRunsFromTheFirstPacketAtOrAfterTheAlert) {
  OpenLoopSchedule schedule(1000.0, 0);
  // Capture timestamps with a tie at 20.
  const std::vector<int64_t> when = {10, 20, 20, 30};
  const std::vector<ObservedAlert> alerts = {
      {20, 5'000'000},  // first packet with when >= 20 is #1, due at 1 ms
      {15, 3'000'000},  // #1 again: no packet at 15 exactly
      {0, 500'000},     // #0, due at 0
      {31, 9'000'000},  // after the last packet: unattributed
  };
  const DetectionLatency d = AttributeLatency(when, schedule, alerts);
  ASSERT_EQ(d.latency_ms.size(), 3u);
  EXPECT_DOUBLE_EQ(d.latency_ms[0], 4.0);
  EXPECT_DOUBLE_EQ(d.latency_ms[1], 2.0);
  EXPECT_DOUBLE_EQ(d.latency_ms[2], 0.5);
  EXPECT_EQ(d.unattributed, 1u);
}

vids::ids::Alert MakeAlert(int64_t when_ns, const std::string& what,
                           vids::ids::AlertKind kind =
                               vids::ids::AlertKind::kAttackPattern) {
  // Provenance and trigger are not part of the canonical form.
  return vids::ids::Alert{.when = vids::sim::Time::FromNanos(when_ns),
                          .kind = kind,
                          .classification = what,
                          .machine = "m",
                          .group = "g",
                          .state = "s",
                          .detail = {},
                          .trigger = "differs per engine",
                          .provenance = {}};
}

TEST(CanonicalDiff, OrderInsensitiveAndIgnoresEngineHealth) {
  const std::vector<vids::ids::Alert> inline_alerts = {
      MakeAlert(2, "b"), MakeAlert(1, "z"), MakeAlert(2, "a")};
  std::vector<vids::ids::Alert> sharded = {
      MakeAlert(1, "z"), MakeAlert(2, "a"), MakeAlert(2, "b"),
      MakeAlert(3, "stall", vids::ids::AlertKind::kEngineHealth)};
  sharded[0].trigger = "coordinator replay";
  const auto a = Canonicalize(inline_alerts);
  const auto b = Canonicalize(sharded);
  EXPECT_EQ(a, b);
  EXPECT_EQ(SymmetricDifference(a, b), 0u);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].when_ns, 1);
  EXPECT_LT(a[1].text, a[2].text);
}

TEST(CanonicalDiff, CountsBothSidesAsAMultiset) {
  const auto a = Canonicalize(
      {MakeAlert(1, "x"), MakeAlert(1, "x"), MakeAlert(2, "y")});
  const auto b = Canonicalize({MakeAlert(1, "x"), MakeAlert(3, "w")});
  // a has one extra "x" and "y"; b has "w".
  EXPECT_EQ(OnlyIn(a, b).size(), 2u);
  EXPECT_EQ(OnlyIn(b, a).size(), 1u);
  EXPECT_EQ(SymmetricDifference(a, b), 3u);
  // The same text at another time is another alert.
  EXPECT_EQ(SymmetricDifference(Canonicalize({MakeAlert(1, "x")}),
                                Canonicalize({MakeAlert(2, "x")})),
            2u);
}

TEST(CanonicalDiff, PassFilterKeepsOnlyThePassAndShiftsItBack) {
  // A pass shifted 100 ns later: the alert at 95 belongs to the previous
  // pass (a leftover timer), the ones at or after 100 to this one.
  const auto pass = Canonicalize(
      {MakeAlert(95, "old"), MakeAlert(101, "x"), MakeAlert(100, "y")}, 100,
      100);
  EXPECT_EQ(pass, Canonicalize({MakeAlert(1, "x"), MakeAlert(0, "y")}));
}

TEST(ShiftPcap, MovesEveryRecordAndKeepsTheRest) {
  vids::capture::PcapWriter writer;
  vids::net::Datagram d;
  d.src = {vids::net::IpAddress(10, 1, 0, 1), 5060};
  d.dst = {vids::net::IpAddress(10, 2, 0, 1), 5060};
  d.payload = "INVITE sip:a@b SIP/2.0\r\n\r\n";
  writer.Add(vids::sim::Time::FromNanos(1'500'000'000), d);
  d.payload = "SIP/2.0 200 OK\r\n\r\n";
  writer.Add(vids::sim::Time::FromNanos(2'000'000'007), d);
  std::string bytes = writer.bytes();
  ASSERT_TRUE(ShiftPcapSeconds(bytes, 3600));
  vids::capture::PcapReadOptions options;
  options.rebase_to_first = false;
  vids::capture::PcapFileSource source(bytes, options);
  std::vector<vids::capture::TimedPacket> out;
  ASSERT_EQ(source.PullBatch(out, 8), 2u);
  const int64_t epoch_ns =
      vids::capture::PcapWriteOptions{}.epoch_base_s * 1'000'000'000;
  EXPECT_EQ(out[0].when.nanos(), epoch_ns + 3601'500'000'000);
  EXPECT_EQ(out[1].when.nanos(), epoch_ns + 3602'000'000'007);
  EXPECT_EQ(out[1].dgram.payload, d.payload);
  EXPECT_TRUE(source.ok());
  // Torn framing and foreign byte orders are refused.
  std::string torn = writer.bytes();
  torn.pop_back();
  EXPECT_FALSE(ShiftPcapSeconds(torn, 1));
  vids::capture::PcapWriteOptions big;
  big.big_endian = true;
  std::string other = vids::capture::PcapWriter(big).bytes();
  EXPECT_FALSE(ShiftPcapSeconds(other, 1));
}

TEST(Buckets, ClassifyByTheBenchmarksOwnLook) {
  EXPECT_EQ(BucketOf("INVITE sip:bob@b SIP/2.0\r\n"), Bucket::kSipReq);
  EXPECT_EQ(BucketOf("SIP/2.0 200 OK\r\n"), Bucket::kSipResp);
  EXPECT_EQ(BucketOf(std::string("\x80\x00\x00\x01", 4)), Bucket::kRtp);
  EXPECT_EQ(BucketOf(std::string("\x80\x80\x00\x01", 4)), Bucket::kRtp);
  EXPECT_EQ(BucketOf(std::string("\x81\xc8\x00\x06", 4)), Bucket::kRtcp);
  EXPECT_EQ(BucketOf(""), Bucket::kOther);
  EXPECT_EQ(BucketOf("\x01garbage"), Bucket::kOther);
  EXPECT_STREQ(BucketName(Bucket::kSipResp), "sip_resp");
}

}  // namespace
}  // namespace replaybench
