#include "vids/spec_machines.h"

#include "vids/classifier.h"

namespace vids::ids {

namespace {

using efsm::ArgKey;
using efsm::Context;
using efsm::Event;
using efsm::MachineDef;
using efsm::StateKind;
using efsm::Value;
using efsm::VariableStore;

// Interned keys for the local variables the spec machines maintain. All
// predicate helpers below run once per inspected packet, so every name
// lookup is a pre-interned integer scan — no string hashing, no temporary
// "g_" + prefix concatenations.
namespace lkey {
const ArgKey kCallId = ArgKey::Intern("l_call_id");
const ArgKey kFromTag = ArgKey::Intern("l_from_tag");
const ArgKey kToTag = ArgKey::Intern("l_to_tag");
const ArgKey kBranch = ArgKey::Intern("l_branch");
const ArgKey kFwdSsrc = ArgKey::Intern("l_fwd_ssrc");
const ArgKey kFwdSeq = ArgKey::Intern("l_fwd_seq");
const ArgKey kFwdTs = ArgKey::Intern("l_fwd_ts");
const ArgKey kRevSsrc = ArgKey::Intern("l_rev_ssrc");
const ArgKey kRevSeq = ArgKey::Intern("l_rev_seq");
const ArgKey kRevTs = ArgKey::Intern("l_rev_ts");
}  // namespace lkey

const ArgKey kGCallerIp = ArgKey::Intern("g_caller_ip");
const ArgKey kGCalleeIp = ArgKey::Intern("g_callee_ip");

// Timer names, interned once so re-arming never hashes a string.
const ArgKey kTimerT = ArgKey::Intern("T");
const ArgKey kTimerLinger = ArgKey::Intern("linger");

// ---- Predicate helpers over the classifier's event argument vector x̄ ----

bool IsRequest(const Context& c, std::string_view method) {
  const std::string* kind = c.event().ArgStr(argkey::kKind);
  if (kind == nullptr || *kind != "request") return false;
  const std::string* m = c.event().ArgStr(argkey::kMethod);
  return m != nullptr && *m == method;
}

// Response with status in [lo, hi] whose CSeq method is `method`.
bool IsResponse(const Context& c, int lo, int hi, std::string_view method) {
  const std::string* kind = c.event().ArgStr(argkey::kKind);
  if (kind == nullptr || *kind != "response") return false;
  const auto status = c.event().ArgInt(argkey::kStatus).value_or(0);
  if (status < lo || status > hi) return false;
  if (method.empty()) return true;
  const std::string* m = c.event().ArgStr(argkey::kMethod);
  return m != nullptr && *m == method;
}

// The per-direction media parameter keys ExportMedia writes.
struct MediaKeys {
  ArgKey ip, port, pt, codec;
};
const MediaKeys kOfferMedia{gkey::kOfferIp, gkey::kOfferPort, gkey::kOfferPt,
                            gkey::kOfferCodec};
const MediaKeys kAnswerMedia{gkey::kAnswerIp, gkey::kAnswerPort,
                             gkey::kAnswerPt, gkey::kAnswerCodec};

// Copies SDP media parameters from the event into the global variables
// behind `keys` and emits the δ sync event carrying the same values.
void ExportMedia(Context& c, const MediaKeys& keys,
                 std::string_view sync_name) {
  const Event& e = c.event();
  // Monostate-aware: the classifier's reused event writes every SDP slot on
  // every packet, with monostate meaning "no SDP in this message".
  if (e.ArgStr(argkey::kSdpIp) == nullptr) return;
  c.mutable_global().Set(keys.ip, e.Arg(argkey::kSdpIp));
  c.mutable_global().Set(keys.port, e.Arg(argkey::kSdpPort));
  c.mutable_global().Set(keys.pt, e.Arg(argkey::kSdpPt));
  c.mutable_global().Set(keys.codec, e.Arg(argkey::kSdpCodec));
  Event sync;
  sync.name = std::string(sync_name);
  sync.args[argkey::kIp] = e.Arg(argkey::kSdpIp);
  sync.args[argkey::kPort] = e.Arg(argkey::kSdpPort);
  sync.args[argkey::kPt] = e.Arg(argkey::kSdpPt);
  c.Emit(kSipToRtpChannel, sync);
}

// Records who initiated teardown (for the BYE DoS vs toll fraud split) and
// tells the RTP machine the session is closing.
void ExportClose(Context& c) {
  c.mutable_global().Set(gkey::kCloseSrcIp, c.event().Arg(argkey::kSrcIp));
  Event sync;
  sync.name = std::string(kSyncBye);
  c.Emit(kSipToRtpChannel, sync);
}

// RTP event's destination equals the media endpoint stored under the
// given ip/port global variables. A missing event argument never matches,
// not even an unset variable.
bool DstIsMediaEndpoint(const Context& c, ArgKey ip_key, ArgKey port_key) {
  const Value& dst_ip = c.event().Arg(argkey::kDstIp);
  const Value& dst_port = c.event().Arg(argkey::kDstPort);
  if (std::holds_alternative<std::monostate>(dst_ip) ||
      std::holds_alternative<std::monostate>(dst_port)) {
    return false;
  }
  const VariableStore& g = c.global();
  return g.Equals(ip_key, dst_ip) && g.Equals(port_key, dst_port);
}

bool MatchesSession(const Context& c) {
  return DstIsMediaEndpoint(c, gkey::kOfferIp, gkey::kOfferPort) ||
         DstIsMediaEndpoint(c, gkey::kAnswerIp, gkey::kAnswerPort);
}

bool PayloadTypeOk(const Context& c) {
  const auto pt = c.event().ArgInt(argkey::kPt);
  const auto offer_pt = c.global().GetInt(gkey::kOfferPt);
  const auto answer_pt = c.global().GetInt(gkey::kAnswerPt);
  if (!pt) return false;
  if (offer_pt && *pt == *offer_pt) return true;
  if (answer_pt && *pt == *answer_pt) return true;
  // Nothing negotiated (no SDP seen): do not judge the payload type.
  return !offer_pt && !answer_pt;
}

// Updates the per-direction stream bookkeeping (SSRC, seq, timestamp) —
// the ≈40 bytes of RTP state the paper prices per call (§7.3).
void NoteStream(Context& c) {
  const bool toward_answer =
      DstIsMediaEndpoint(c, gkey::kAnswerIp, gkey::kAnswerPort);
  auto& l = c.mutable_local();
  const Event& e = c.event();
  l.Set(toward_answer ? lkey::kFwdSsrc : lkey::kRevSsrc,
        e.Arg(argkey::kSsrc));
  l.Set(toward_answer ? lkey::kFwdSeq : lkey::kRevSeq, e.Arg(argkey::kSeq));
  l.Set(toward_answer ? lkey::kFwdTs : lkey::kRevTs, e.Arg(argkey::kTs));
}

bool FromCloseInitiator(const Context& c) {
  const auto closer = c.global().GetStringView(gkey::kCloseSrcIp);
  if (!closer) return false;
  const std::string* src = c.event().ArgStr(argkey::kSrcIp);
  return src != nullptr && *src == *closer;
}

}  // namespace

MachineDef BuildSipSpecMachine(const DetectionConfig&) {
  MachineDef def("sip-spec");
  const auto init = def.AddState("INIT", StateKind::kInitial);
  const auto invite_rcvd = def.AddState("INVITE Rcvd");
  const auto proceeding = def.AddState("Proceeding");
  const auto answered = def.AddState("Answered");
  const auto established = def.AddState("Call Established");
  const auto teardown = def.AddState("Call tear-down begins");
  const auto closed = def.AddState("Closed", StateKind::kFinal);
  const auto cancelling = def.AddState("Cancelling");
  const auto cancelled = def.AddState("Cancelled", StateKind::kFinal);
  const auto failed = def.AddState("Failed");
  const auto failed_done = def.AddState("Failed-Closed", StateKind::kFinal);
  const auto registering = def.AddState("Registering");
  const auto reg_done = def.AddState("Registered", StateKind::kFinal);
  const auto querying = def.AddState("Querying");
  const auto query_done = def.AddState("Query-Closed", StateKind::kFinal);
  def.DeclareVariables(
      {lkey::kCallId, lkey::kFromTag, lkey::kBranch, lkey::kToTag},
      {kGCallerIp, kGCalleeIp, gkey::kOfferIp, gkey::kOfferPort,
       gkey::kOfferPt, gkey::kOfferCodec, gkey::kAnswerIp, gkey::kAnswerPort,
       gkey::kAnswerPt, gkey::kAnswerCodec, gkey::kCloseSrcIp});

  const std::string sip(kSipEvent);

  // --- Call setup (Fig. 2(a)) ---
  def.On(init, sip)
      .When([](const Context& c) { return IsRequest(c, "INVITE"); })
      .Do([](Context& c) {
        const Event& e = c.event();
        auto& l = c.mutable_local();
        l.Set(lkey::kCallId, e.Arg(argkey::kCallId));
        l.Set(lkey::kFromTag, e.Arg(argkey::kFromTag));
        l.Set(lkey::kBranch, e.Arg(argkey::kBranch));
        auto& g = c.mutable_global();
        g.Set(kGCallerIp, e.Arg(argkey::kSrcIp));
        g.Set(kGCalleeIp, e.Arg(argkey::kDstIp));
        ExportMedia(c, kOfferMedia, kSyncOffer);
      })
      .To(invite_rcvd, "INVITE received; media offer exported");

  def.On(init, sip)
      .When([](const Context& c) { return IsRequest(c, "REGISTER"); })
      .To(registering);
  def.On(init, sip)
      .When([](const Context& c) { return IsRequest(c, "OPTIONS"); })
      .To(querying);

  for (const auto state : {invite_rcvd, proceeding}) {
    def.On(state, sip)  // INVITE retransmission
        .When([](const Context& c) { return IsRequest(c, "INVITE"); })
        .To(state, "INVITE retransmission");
    def.On(state, sip)
        .When([](const Context& c) { return IsResponse(c, 200, 299, "INVITE"); })
        .Do([](Context& c) {
          c.mutable_local().Set(lkey::kToTag, c.event().Arg(argkey::kToTag));
          ExportMedia(c, kAnswerMedia, kSyncAnswer);
        })
        .To(answered, "call answered; media answer exported");
    def.On(state, sip)
        .When([](const Context& c) { return IsResponse(c, 300, 699, "INVITE"); })
        .To(failed);
    def.On(state, sip)
        .When([](const Context& c) { return IsRequest(c, "CANCEL"); })
        .To(cancelling);
  }
  def.On(invite_rcvd, sip)
      .When([](const Context& c) { return IsResponse(c, 100, 179, "INVITE"); })
      .To(invite_rcvd, "still trying");
  def.On(invite_rcvd, sip)
      .When([](const Context& c) { return IsResponse(c, 180, 199, "INVITE"); })
      .To(proceeding, "ringing");
  def.On(proceeding, sip)
      .When([](const Context& c) { return IsResponse(c, 100, 199, "INVITE"); })
      .To(proceeding, "provisional");

  // --- Established dialog ---
  def.On(answered, sip)
      .When([](const Context& c) { return IsRequest(c, "ACK"); })
      .To(established, "three-way handshake complete");
  def.On(answered, sip)
      .When([](const Context& c) { return IsResponse(c, 200, 299, "INVITE"); })
      .To(answered, "200 retransmission");
  def.On(answered, sip)
      .When([](const Context& c) { return IsRequest(c, "BYE"); })
      .Do(ExportClose)
      .To(teardown, "BYE before ACK");

  def.On(established, sip)
      .When([](const Context& c) { return IsRequest(c, "INVITE"); })
      .To(established, "re-INVITE");
  def.On(established, sip)
      .When([](const Context& c) { return IsResponse(c, 100, 299, "INVITE"); })
      .To(established, "re-INVITE progress");
  def.On(established, sip)
      .When([](const Context& c) { return IsRequest(c, "ACK"); })
      .To(established, "ACK");
  def.On(established, sip)
      .When([](const Context& c) { return IsRequest(c, "BYE"); })
      .Do(ExportClose)
      .To(teardown, "BYE received; δ sent to RTP machine");

  // --- Teardown (Fig. 5 upper half) ---
  def.On(teardown, sip)
      .When([](const Context& c) { return IsRequest(c, "BYE"); })
      .To(teardown, "BYE retransmission");
  def.On(teardown, sip)
      .When([](const Context& c) { return IsResponse(c, 200, 299, "BYE"); })
      .To(closed, "call closed");
  def.On(teardown, sip)
      .When([](const Context& c) { return IsResponse(c, 400, 499, "BYE"); })
      .To(closed, "teardown refused; call considered over");

  // --- Cancellation ---
  def.On(cancelling, sip)
      .When([](const Context& c) { return IsResponse(c, 200, 299, "CANCEL"); })
      .To(cancelling, "CANCEL accepted");
  def.On(cancelling, sip)
      .When([](const Context& c) { return IsResponse(c, 100, 199, "INVITE"); })
      .To(cancelling);
  def.On(cancelling, sip)
      .When([](const Context& c) { return IsResponse(c, 300, 699, "INVITE"); })
      .To(cancelling, "INVITE terminated");
  def.On(cancelling, sip)
      .When([](const Context& c) { return IsRequest(c, "CANCEL"); })
      .To(cancelling, "CANCEL retransmission");
  def.On(cancelling, sip)
      .When([](const Context& c) { return IsRequest(c, "ACK"); })
      .Do(ExportClose)
      .To(cancelled, "cancelled call closed");
  def.On(cancelling, sip)  // CANCEL lost the race with the answer
      .When([](const Context& c) { return IsResponse(c, 200, 299, "INVITE"); })
      .Do([](Context& c) { ExportMedia(c, kAnswerMedia, kSyncAnswer); })
      .To(answered, "answered despite CANCEL");

  // --- Failed setup ---
  def.On(failed, sip)
      .When([](const Context& c) { return IsResponse(c, 300, 699, "INVITE"); })
      .To(failed, "final response retransmission");
  def.On(failed, sip)
      .When([](const Context& c) { return IsRequest(c, "ACK"); })
      .Do(ExportClose)
      .To(failed_done, "failed call closed");

  // --- Registration / capability query ---
  def.On(registering, sip)
      .When([](const Context& c) { return IsRequest(c, "REGISTER"); })
      .To(registering, "REGISTER retransmission");
  def.On(registering, sip)
      .When([](const Context& c) { return IsResponse(c, 100, 199, "REGISTER"); })
      .To(registering);
  def.On(registering, sip)
      .When([](const Context& c) { return IsResponse(c, 200, 699, "REGISTER"); })
      .To(reg_done, "registration concluded");
  def.On(querying, sip)
      .When([](const Context& c) { return IsRequest(c, "OPTIONS"); })
      .To(querying, "OPTIONS retransmission");
  def.On(querying, sip)
      .When([](const Context& c) { return IsResponse(c, 100, 199, "OPTIONS"); })
      .To(querying);
  def.On(querying, sip)
      .When([](const Context& c) { return IsResponse(c, 200, 699, "OPTIONS"); })
      .To(query_done, "query concluded");

  return def;
}

MachineDef BuildRtpSpecMachine(const DetectionConfig& config) {
  MachineDef def("rtp-spec");
  const auto init = def.AddState("INIT", StateKind::kInitial);
  const auto open = def.AddState("RTP Open");
  const auto ready = def.AddState("RTP Ready");
  const auto active = def.AddState("RTP Rcvd");
  const auto encoding =
      def.AddState(std::string(kAttackEncoding), StateKind::kAttack);
  const auto close_wait = def.AddState("RTP rcvd after BYE");
  const auto closing = def.AddState("RTP Close");
  const auto bye_dos = def.AddState(std::string(kAttackByeDos),
                                    StateKind::kAttack);
  const auto toll_fraud = def.AddState(std::string(kAttackTollFraud),
                                       StateKind::kAttack);
  const auto done = def.AddState("Done", StateKind::kFinal);

  const std::string rtp(kRtpEvent);
  const std::string offer(kSyncOffer);
  const std::string answer(kSyncAnswer);
  const std::string bye(kSyncBye);
  const sim::Duration grace = config.bye_inflight_grace;
  const sim::Duration linger = config.rtp_close_linger;

  struct MediaLocals {
    ArgKey ip, port, pt;
  };
  const auto media_locals = [](std::string_view prefix) {
    return MediaLocals{ArgKey::Intern("l_" + std::string(prefix) + "_ip"),
                       ArgKey::Intern("l_" + std::string(prefix) + "_port"),
                       ArgKey::Intern("l_" + std::string(prefix) + "_pt")};
  };
  const MediaLocals offer_locals = media_locals("offer");
  const MediaLocals answer_locals = media_locals("answer");
  def.DeclareVariables({offer_locals.ip, offer_locals.port, offer_locals.pt,
                        answer_locals.ip, answer_locals.port, answer_locals.pt,
                        lkey::kFwdSsrc, lkey::kFwdSeq, lkey::kFwdTs,
                        lkey::kRevSsrc, lkey::kRevSeq, lkey::kRevTs});
  const auto store_media = [](const MediaLocals& keys) {
    return [keys](Context& c) {
      auto& l = c.mutable_local();
      l.Set(keys.ip, c.event().Arg(argkey::kIp));
      l.Set(keys.port, c.event().Arg(argkey::kPort));
      l.Set(keys.pt, c.event().Arg(argkey::kPt));
    };
  };

  // INIT: only the δ from the SIP machine opens the RTP context (Fig. 2(a)).
  def.On(init, offer)
      .Do(store_media(offer_locals))
      .To(open, "δ(SIP→RTP): media offer; RTP state initialized");

  def.On(open, answer)
      .Do(store_media(answer_locals))
      .To(ready, "δ(SIP→RTP): media answer");
  def.On(open, rtp)
      .When([](const Context& c) {
        return DstIsMediaEndpoint(c, gkey::kOfferIp, gkey::kOfferPort) &&
               PayloadTypeOk(c);
      })
      .Do(NoteStream)
      .To(active, "early media toward caller");
  def.On(open, bye).To(done, "closed before any media");

  def.On(ready, rtp)
      .When([](const Context& c) {
        return MatchesSession(c) && PayloadTypeOk(c);
      })
      .Do(NoteStream)
      .To(active, "media flowing");
  def.On(ready, bye)
      .Do([grace](Context& c) { c.StartTimer(kTimerT, grace); })
      .To(close_wait, "closed before media started");

  def.On(active, rtp)
      .When([](const Context& c) {
        return MatchesSession(c) && PayloadTypeOk(c);
      })
      .Do(NoteStream)
      .To(active, "in-session media");
  def.On(active, rtp)
      .When([](const Context& c) {
        return MatchesSession(c) && !PayloadTypeOk(c);
      })
      .To(encoding, "media with non-negotiated encoding");
  def.On(active, bye)
      .Do([grace](Context& c) { c.StartTimer(kTimerT, grace); })
      .To(close_wait, "δ(SIP→RTP): BYE seen; timer T started");
  // Early media: the direct RTP path can beat the proxied 200 OK to the
  // monitoring point, so the answer δ may arrive after media started.
  def.On(active, answer)
      .Do(store_media(answer_locals))
      .To(active, "late media answer (early media raced the 200)");
  // Session-mismatched RTP falls through → specification deviation
  // ("unauthorized media"), reported by the engine.

  def.On(encoding, rtp)
      .When([](const Context& c) {
        return MatchesSession(c) && PayloadTypeOk(c);
      })
      .Do(NoteStream)
      .To(active, "encoding restored");
  def.On(encoding, rtp)
      .When([](const Context& c) { return MatchesSession(c); })
      .To(encoding, "encoding still wrong");
  def.On(encoding, bye)
      .Do([grace](Context& c) { c.StartTimer(kTimerT, grace); })
      .To(close_wait);
  def.On(encoding, answer).Do(store_media(answer_locals)).To(encoding);
  def.On(close_wait, answer).To(close_wait, "late answer during teardown");

  // Fig. 5: in-flight packets tolerated until T expires...
  def.On(close_wait, rtp)
      .When([](const Context& c) { return MatchesSession(c); })
      .To(close_wait, "in-flight RTP within T");
  def.On(close_wait, efsm::TimerEventName("T"))
      .Do([linger](Context& c) { c.StartTimer(kTimerLinger, linger); })
      .To(closing, "T expired: RTP Close");

  // ...then any media is an attack, split by who tore the call down.
  def.On(closing, rtp)
      .When(FromCloseInitiator)
      .To(toll_fraud, "RTP continues from the BYE sender");
  def.On(closing, rtp)
      .When([](const Context& c) { return !FromCloseInitiator(c); })
      .To(bye_dos, "RTP continues after BYE from a third party");
  def.On(closing, efsm::TimerEventName("linger")).To(done, "call retired");

  for (const auto attack_state : {bye_dos, toll_fraud}) {
    def.On(attack_state, rtp).To(attack_state, "attack media continues");
    def.On(attack_state, efsm::TimerEventName("linger")).To(done);
  }

  return def;
}

}  // namespace vids::ids
