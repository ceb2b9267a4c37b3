#include "vids/patterns.h"

#include <variant>

#include "rtp/packet.h"
#include "vids/classifier.h"

namespace vids::ids {

namespace {

using efsm::ArgKey;
using efsm::Context;
using efsm::MachineDef;
using efsm::StateKind;

// Interned keys for the pattern machines' local variables — one integer
// scan per access on the per-packet path.
const ArgKey kVSsrc = ArgKey::Intern("v_ssrc");
const ArgKey kVSeq = ArgKey::Intern("v_seq");
const ArgKey kVTs = ArgKey::Intern("v_ts");
const ArgKey kVRegress = ArgKey::Intern("v_regress");
const ArgKey kVSrcIp = ArgKey::Intern("v_src_ip");
const ArgKey kVCallerTag = ArgKey::Intern("v_caller_tag");
const ArgKey kVCalleeTag = ArgKey::Intern("v_callee_tag");
const ArgKey kPckCounter = ArgKey::Intern("pck_counter");
// Timer names, interned once so re-arming never hashes a string.
const ArgKey kTimerT1 = ArgKey::Intern("T1");
const ArgKey kTimerT = ArgKey::Intern("T");
const ArgKey kTimerLinger = ArgKey::Intern("linger");

bool IsRequest(const Context& c, std::string_view method) {
  const std::string* kind = c.event().ArgStr(argkey::kKind);
  if (kind == nullptr || *kind != "request") return false;
  const std::string* m = c.event().ArgStr(argkey::kMethod);
  return m != nullptr && *m == method;
}

bool IsFinalResponse(const Context& c, std::string_view method) {
  const std::string* kind = c.event().ArgStr(argkey::kKind);
  if (kind == nullptr || *kind != "response") return false;
  if (c.event().ArgInt(argkey::kStatus).value_or(0) < 200) return false;
  const std::string* m = c.event().ArgStr(argkey::kMethod);
  return m != nullptr && *m == method;
}

// Wrap-aware gaps between the stored stream position and the new packet.
int64_t SeqGap(const Context& c) {
  const auto prev = c.local().GetInt(kVSeq);
  const auto next = c.event().ArgInt(argkey::kSeq);
  if (!prev || !next) return 0;
  return rtp::SeqDistance(static_cast<uint16_t>(*prev),
                          static_cast<uint16_t>(*next));
}

int64_t TsGap(const Context& c) {
  const auto prev = c.local().GetInt(kVTs);
  const auto next = c.event().ArgInt(argkey::kTs);
  if (!prev || !next) return 0;
  return rtp::TimestampDistance(static_cast<uint32_t>(*prev),
                                static_cast<uint32_t>(*next));
}

bool SameSsrc(const Context& c) {
  return c.local().GetInt(kVSsrc) == c.event().ArgInt(argkey::kSsrc);
}

// A(v̄): v_i := x_i — lock onto the packet's stream position (Fig. 6).
void LockStream(Context& c) {
  auto& l = c.mutable_local();
  l.Set(kVSsrc, c.event().Arg(argkey::kSsrc));
  l.Set(kVSeq, c.event().Arg(argkey::kSeq));
  l.Set(kVTs, c.event().Arg(argkey::kTs));
}

// Generic window counter used by the flood-style patterns: the first event
// arms timer T1 and sets pck_counter = 1; each further event within the
// window increments it. Crossing `threshold` is the attack transition.
void BuildWindowCounter(MachineDef& def, const std::string& event_name,
                        std::string_view attack_label, int threshold,
                        sim::Duration window) {
  const auto init = def.AddState("INIT", StateKind::kInitial);
  const auto counting = def.AddState("Packet Rcvd");
  const auto attack =
      def.AddState(std::string(attack_label), StateKind::kAttack);
  const auto timer_event = efsm::TimerEventName("T1");
  def.DeclareVariables({kPckCounter});

  def.On(init, event_name)
      .Do([window](Context& c) {
        c.mutable_local().Set(kPckCounter, int64_t{1});
        c.StartTimer(kTimerT1, window);
      })
      .To(counting, "first packet: counter started, timer T1 armed");

  def.On(counting, event_name)
      .When([threshold](const Context& c) {
        return c.local().GetInt(kPckCounter).value_or(0) + 1 <= threshold;
      })
      .Do([](Context& c) {
        c.mutable_local().Set(
            kPckCounter, c.local().GetInt(kPckCounter).value_or(0) + 1);
      })
      .To(counting, "within threshold N");
  def.On(counting, event_name)
      .When([threshold](const Context& c) {
        return c.local().GetInt(kPckCounter).value_or(0) + 1 > threshold;
      })
      .Do([](Context& c) {
        c.mutable_local().Set(
            kPckCounter, c.local().GetInt(kPckCounter).value_or(0) + 1);
      })
      .To(attack, "surge beyond threshold N within T1");
  def.On(counting, timer_event)
      .Do([](Context& c) { c.mutable_local().Set(kPckCounter, int64_t{0}); })
      .To(init, "window over: reset");

  def.On(attack, event_name).To(attack, "flood continues");
  def.On(attack, timer_event)
      .Do([](Context& c) { c.mutable_local().Set(kPckCounter, int64_t{0}); })
      .To(init, "window over: re-arm");
}

}  // namespace

MachineDef BuildInviteFloodMachine(const DetectionConfig& config) {
  MachineDef def("invite-flood");
  def.set_report_deviations(false);
  // The distributor feeds this machine only INVITE requests for one
  // destination, so the plain SIP event drives the counter (Fig. 4).
  BuildWindowCounter(def, std::string(kSipEvent), kAttackInviteFlood,
                     config.invite_flood_threshold,
                     config.invite_flood_window);
  return def;
}

MachineDef BuildRtpFloodMachine(const DetectionConfig& config) {
  MachineDef def("rtp-flood");
  def.set_report_deviations(false);
  BuildWindowCounter(def, std::string(kRtpEvent), kAttackRtpFlood,
                     config.rtp_flood_threshold, config.rtp_flood_window);
  return def;
}

MachineDef BuildDrdosMachine(const DetectionConfig& config) {
  MachineDef def("drdos");
  def.set_report_deviations(false);
  BuildWindowCounter(def, std::string(kUnsolicitedEvent), kAttackDrdos,
                     config.drdos_threshold, config.drdos_window);
  return def;
}

MachineDef BuildMediaSpamMachine(const DetectionConfig& config) {
  MachineDef def("media-spam");
  def.set_report_deviations(false);
  const auto init = def.AddState("INIT", StateKind::kInitial);
  const auto rcvd = def.AddState("Packet Rcvd");
  const auto attack =
      def.AddState(std::string(kAttackMediaSpam), StateKind::kAttack);
  const std::string rtp(kRtpEvent);
  const int64_t seq_gap = config.spam_seq_gap;
  const int64_t ts_gap = config.spam_ts_gap;
  const int64_t regress_limit = config.spam_regress_threshold;
  def.DeclareVariables({kVSsrc, kVSeq, kVTs, kVRegress});

  // Fig. 6 rule, hardened against two legitimate phenomena:
  //  * VAD talkspurts jump the timestamp with the marker bit set
  //    (RFC 3550 §5.1) while the sequence number stays contiguous, so the
  //    Δt rule only applies to unmarked packets;
  //  * losing the talkspurt-opening packet (p ≈ link loss per spurt)
  //    yields an unmarked jump with a sequence gap of 2–3, which is
  //    excused — a fabricated stream that hides in that window is still
  //    caught by the regression rule below.
  const auto is_spam_jump = [seq_gap, ts_gap](const Context& c) {
    if (!SameSsrc(c)) return false;
    const int64_t sgap = SeqGap(c);
    if (sgap > seq_gap) return true;
    // get_if, not `== efsm::Value{true}`: the temporary variant's string
    // alternative trips GCC 12's -Wmaybe-uninitialized at -O2 and above.
    const bool* marker = std::get_if<bool>(&c.event().Arg(argkey::kMarker));
    const bool marked = marker != nullptr && *marker;
    const bool lost_marker_window = sgap >= 2 && sgap <= 3;
    return !marked && !lost_marker_window && TsGap(c) > ts_gap;
  };
  // The genuine stream trailing an injected clone shows up as persistent
  // sequence regression (replays of numbers the clone already used).
  const auto is_regress = [](const Context& c) {
    return SameSsrc(c) && SeqGap(c) <= 0;
  };
  const auto regress_exceeded = [is_regress, regress_limit](const Context& c) {
    return is_regress(c) &&
           c.local().GetInt(kVRegress).value_or(0) + 1 >= regress_limit;
  };
  const auto count_regress = [](Context& c) {
    c.mutable_local().Set(kVRegress,
                          c.local().GetInt(kVRegress).value_or(0) + 1);
  };
  const auto lock_and_reset = [](Context& c) {
    LockStream(c);
    c.mutable_local().Set(kVRegress, int64_t{0});
  };

  def.On(init, rtp).Do(lock_and_reset).To(rcvd, "first packet: v̄ := x̄");
  def.On(rcvd, rtp)
      .When(is_spam_jump)
      .Do(LockStream)
      .To(attack, "seq/timestamp gap beyond Δn/Δt");
  def.On(rcvd, rtp)
      .When(regress_exceeded)
      .Do(count_regress)
      .To(attack, "persistent sequence regression: stream raced ahead");
  def.On(rcvd, rtp)
      .When(is_regress)
      .Do(count_regress)  // keep the (higher) locked position
      .To(rcvd, "replayed/old sequence number");
  def.On(rcvd, rtp)
      .Do(lock_and_reset)  // follow the stream (or re-lock on a new SSRC)
      .To(rcvd, "stream position updated");
  def.On(attack, rtp)
      .When([is_spam_jump, is_regress](const Context& c) {
        return !is_spam_jump(c) && !is_regress(c);
      })
      .Do(lock_and_reset)
      .To(rcvd, "stream back to normal");
  def.On(attack, rtp)
      .When(is_regress)  // genuine stream still trailing: hold the position
      .To(attack, "trailing genuine stream");
  def.On(attack, rtp).Do(LockStream).To(attack, "spam continues");
  return def;
}

MachineDef BuildRtcpByeMachine(const DetectionConfig& config) {
  // The RTCP analog of the paper's Fig. 5: the control protocol announced
  // end-of-stream; after the in-flight grace T, media with the BYE'd SSRC
  // is ghost media. One instance per media endpoint (same keyed group as
  // the spam/flood patterns).
  MachineDef def("rtcp-bye");
  def.set_report_deviations(false);
  const auto init = def.AddState("INIT", StateKind::kInitial);
  const auto drain = def.AddState("draining after RTCP BYE");
  const auto watch = def.AddState("stream closed by RTCP");
  const auto attack =
      def.AddState(std::string(kAttackGhostMedia), StateKind::kAttack);
  const auto done = def.AddState("Done", StateKind::kFinal);
  const std::string rtcp(kRtcpEvent);
  const std::string rtp(kRtpEvent);
  const sim::Duration grace = config.bye_inflight_grace;
  const sim::Duration linger = config.rtp_close_linger;
  def.DeclareVariables({kVSsrc});

  const auto is_bye = [](const Context& c) {
    const std::string* kind = c.event().ArgStr(argkey::kKind);
    return kind != nullptr && *kind == "BYE";
  };
  const auto bye_ssrc = [](const Context& c) {
    return c.local().GetInt(kVSsrc) == c.event().ArgInt(argkey::kSsrc);
  };

  def.On(init, rtp).To(init, "media flowing");
  def.On(init, rtcp)
      .When(is_bye)
      .Do([grace](Context& c) {
        c.mutable_local().Set(kVSsrc, c.event().Arg(argkey::kSsrc));
        c.StartTimer(kTimerT, grace);
      })
      .To(drain, "RTCP BYE: stream declared over, timer T started");
  def.On(init, rtcp).To(init, "SR/RR bookkeeping");

  def.On(drain, rtp).To(drain, "in-flight RTP within T");
  def.On(drain, rtcp).To(drain);
  def.On(drain, efsm::TimerEventName("T"))
      .Do([linger](Context& c) { c.StartTimer(kTimerLinger, linger); })
      .To(watch, "grace over");

  def.On(watch, rtp)
      .When(bye_ssrc)
      .To(attack, "RTP continues after its own RTCP BYE");
  def.On(watch, rtp).To(watch, "other stream (endpoint reuse)");
  def.On(watch, rtcp).To(watch);
  def.On(watch, efsm::TimerEventName("linger")).To(done, "stream retired");

  def.On(attack, rtp).To(attack, "ghost media continues");
  def.On(attack, rtcp).To(attack);
  def.On(attack, efsm::TimerEventName("linger")).To(done);
  return def;
}

MachineDef BuildCancelDosMachine(const DetectionConfig&) {
  MachineDef def("cancel-dos");
  def.set_report_deviations(false);
  const auto init = def.AddState("INIT", StateKind::kInitial);
  const auto pending = def.AddState("INVITE pending");
  const auto attack =
      def.AddState(std::string(kAttackCancelDos), StateKind::kAttack);
  const auto done = def.AddState("Done", StateKind::kFinal);
  const std::string sip(kSipEvent);
  def.DeclareVariables({kVSrcIp});

  def.On(init, sip)
      .When([](const Context& c) { return IsRequest(c, "INVITE"); })
      .Do([](Context& c) {
        c.mutable_local().Set(kVSrcIp, c.event().Arg(argkey::kSrcIp));
      })
      .To(pending, "INVITE outstanding");
  // A CANCEL is only legitimate from the same source that sent the INVITE
  // (or its proxy); anything else is the spoofed-CANCEL DoS of §3.1.
  def.On(pending, sip)
      .When([](const Context& c) {
        return IsRequest(c, "CANCEL") &&
               c.local().Equals(kVSrcIp, c.event().Arg(argkey::kSrcIp));
      })
      .To(done, "caller cancelled its own INVITE");
  def.On(pending, sip)
      .When([](const Context& c) {
        return IsRequest(c, "CANCEL") &&
               !c.local().Equals(kVSrcIp, c.event().Arg(argkey::kSrcIp));
      })
      .To(attack, "CANCEL from a source other than the caller");
  def.On(pending, sip)
      .When([](const Context& c) { return IsFinalResponse(c, "INVITE"); })
      .To(done, "INVITE completed: CANCEL window closed");
  def.On(attack, sip).To(attack, "post-attack traffic");
  return def;
}

MachineDef BuildHijackMachine(const DetectionConfig&) {
  MachineDef def("call-hijack");
  def.set_report_deviations(false);
  const auto init = def.AddState("INIT", StateKind::kInitial);
  const auto watching = def.AddState("Dialog active");
  const auto attack =
      def.AddState(std::string(kAttackHijack), StateKind::kAttack);
  const auto done = def.AddState("Done", StateKind::kFinal);
  const std::string sip(kSipEvent);
  def.DeclareVariables({kVCallerTag, kVCalleeTag});

  const auto known_tag = [](const Context& c) {
    const std::string* tag = c.event().ArgStr(argkey::kFromTag);
    if (tag == nullptr) return false;
    const auto caller = c.local().GetStringView(kVCallerTag);
    if (caller && *caller == *tag) return true;
    const auto callee = c.local().GetStringView(kVCalleeTag);
    return callee && *callee == *tag;
  };

  def.On(init, sip)
      .When([](const Context& c) { return IsRequest(c, "INVITE"); })
      .Do([](Context& c) {
        c.mutable_local().Set(kVCallerTag, c.event().Arg(argkey::kFromTag));
      })
      .To(watching, "dialog opened");
  def.On(watching, sip)
      .When([](const Context& c) {
        const std::string* kind = c.event().ArgStr(argkey::kKind);
        if (kind == nullptr || *kind != "response") return false;
        if (c.event().ArgInt(argkey::kStatus).value_or(0) / 100 != 2) {
          return false;
        }
        const std::string* m = c.event().ArgStr(argkey::kMethod);
        return m != nullptr && *m == "INVITE";
      })
      .Do([](Context& c) {
        // Learn the callee's dialog tag from the 2xx.
        c.mutable_local().Set(kVCalleeTag, c.event().Arg(argkey::kToTag));
      })
      .To(watching, "dialog confirmed");
  def.On(watching, sip)
      .When([known_tag](const Context& c) {
        return IsRequest(c, "INVITE") && known_tag(c);
      })
      .To(watching, "re-INVITE by a dialog participant");
  def.On(watching, sip)
      .When([known_tag](const Context& c) {
        return IsRequest(c, "INVITE") && !known_tag(c);
      })
      .To(attack, "in-dialog INVITE with a tag foreign to the dialog");
  def.On(watching, sip)
      .When([](const Context& c) { return IsFinalResponse(c, "BYE"); })
      .To(done, "dialog closed");
  def.On(attack, sip).To(attack, "post-attack traffic");
  return def;
}

}  // namespace vids::ids
