#include "sip/proxy.h"

#include "common/log.h"

namespace vids::sip {

Proxy::Proxy(sim::Scheduler& scheduler, net::Host& host, Config config)
    : scheduler_(scheduler),
      config_(std::move(config)),
      transport_(host, config_.sip_port),
      layer_(scheduler, transport_, config_.timers) {
  layer_.SetCore(TransactionLayer::Core{
      .on_request = [this](ServerTransaction& tx) { OnRequest(tx); },
      .on_ack = [this](const Message& ack,
                       const net::Datagram& dgram) { OnAck(ack, dgram); },
      .on_stray_response =
          [this](const Message& response, const net::Datagram&) {
            // Retransmitted 2xx after both transactions terminated: forward
            // statelessly along the Via chain (§16.7).
            Message copy = response;
            copy.PopVia();
            if (const auto via = copy.TopVia()) {
              layer_.SendStateless(copy, via->sent_by);
            }
          },
  });
}

void Proxy::AddBinding(const std::string& aor, net::Endpoint contact) {
  location_[aor] = contact;
}

std::optional<net::Endpoint> Proxy::Resolve(const SipUri& uri) const {
  if (uri.host == config_.domain) {
    const auto it = location_.find(uri.UserAtHost());
    if (it == location_.end()) return std::nullopt;
    return it->second;
  }
  // Numeric host: the request-URI already names a device (e.g. a Contact).
  if (const auto ip = net::IpAddress::Parse(uri.host)) {
    return net::Endpoint{*ip, uri.port != 0 ? uri.port : kDefaultSipPort};
  }
  // Foreign domain: hand to its inbound proxy (the paper's DNS step).
  const auto it = config_.directory.find(uri.host);
  if (it == config_.directory.end()) return std::nullopt;
  return it->second;
}

void Proxy::OnRegister(ServerTransaction& tx) {
  const auto to = tx.request().To();
  const auto contact = tx.request().ContactHeader();
  if (!to || !contact) {
    tx.Respond(tx.MakeResponse(400));
    return;
  }
  if (to->uri.host != config_.domain) {
    ++requests_rejected_;
    tx.Respond(tx.MakeResponse(403));
    return;
  }
  if (config_.require_registration_auth) {
    const std::string aor = to->uri.UserAtHost();
    const auto authorization = tx.request().Header("Authorization");
    const auto credentials =
        authorization ? DigestCredentials::Parse(*authorization)
                      : std::nullopt;
    const auto nonce = issued_nonces_.find(aor);
    bool authentic = false;
    if (credentials && nonce != issued_nonces_.end() &&
        credentials->nonce == nonce->second) {
      const auto password = config_.user_passwords.find(credentials->username);
      if (password != config_.user_passwords.end()) {
        const std::string expected = ComputeDigestResponse(
            credentials->username, config_.domain, password->second,
            credentials->nonce, "REGISTER",
            tx.request().request_uri().ToString());
        authentic = credentials->response == expected &&
                    credentials->username == to->uri.user;
      }
    }
    if (!authentic) {
      if (credentials) {
        // Wrong password / stale nonce / foreign user: refuse outright.
        ++auth_failures_;
        tx.Respond(tx.MakeResponse(403));
        return;
      }
      // No credentials yet: challenge (§22.2).
      DigestChallenge challenge;
      challenge.realm = config_.domain;
      // Built by fill + append: GCC 12 flags both `"n" + std::to_string()`
      // and a C-string assign (one memcpy path) with a false -Wrestrict.
      challenge.nonce.assign(1, 'n');
      challenge.nonce += std::to_string(next_nonce_++);
      issued_nonces_[aor] = challenge.nonce;
      ++auth_challenges_sent_;
      Message reject = tx.MakeResponse(401);
      reject.SetHeader("WWW-Authenticate", challenge.ToString());
      tx.Respond(reject);
      return;
    }
    issued_nonces_.erase(aor);  // nonces are single-use
  }
  const auto ip = net::IpAddress::Parse(contact->uri.host);
  if (!ip) {
    tx.Respond(tx.MakeResponse(400));
    return;
  }
  location_[to->uri.UserAtHost()] = net::Endpoint{
      *ip, contact->uri.port != 0 ? contact->uri.port : kDefaultSipPort};
  Message ok = tx.MakeResponse(200);
  ok.SetContact(*contact);
  tx.Respond(ok);
}

void Proxy::OnRequest(ServerTransaction& tx) {
  const Method method = tx.method();
  if (method == Method::kRegister) {
    OnRegister(tx);
    return;
  }
  if (method == Method::kCancel) {
    // §9.2: answer the CANCEL, then cancel the matching downstream INVITE.
    ServerTransaction* invite_tx = layer_.FindInviteServer(tx.request());
    tx.Respond(tx.MakeResponse(200));
    if (invite_tx == nullptr) return;
    // Rebuild a CANCEL for the downstream leg: same target as the forwarded
    // INVITE, our Via branch for that leg.
    // The downstream INVITE client transaction is identified through the
    // pending-forward bookkeeping below.
    const auto pending = pending_cancels_.find(invite_tx->branch());
    if (pending != pending_cancels_.end()) {
      Message cancel =
          Message::MakeRequest(Method::kCancel, pending->second.request_uri);
      cancel.PushVia(pending->second.via);
      const Message& fwd = pending->second.invite;
      if (const auto from = fwd.From()) cancel.SetFrom(*from);
      if (const auto to = fwd.To()) cancel.SetTo(*to);
      if (const auto id = fwd.CallId()) cancel.SetCallId(*id);
      if (const auto cseq = fwd.Cseq()) {
        cancel.SetCseq(CSeq{cseq->number, Method::kCancel});
      }
      layer_.StartClient(std::move(cancel), pending->second.next_hop,
                         [](const Message&) {}, [] {});
    }
    return;
  }

  const auto next_hop = Resolve(tx.request().request_uri());
  if (!next_hop) {
    ++requests_rejected_;
    tx.Respond(tx.MakeResponse(404));
    return;
  }
  ForwardRequest(tx, *next_hop);
}

void Proxy::ForwardRequest(ServerTransaction& tx, net::Endpoint next_hop) {
  Message forwarded = tx.request();
  const int max_forwards = forwarded.MaxForwards().value_or(70);
  if (max_forwards <= 0) {
    ++requests_rejected_;
    tx.Respond(tx.MakeResponse(483, "Too Many Hops"));
    return;
  }
  forwarded.SetMaxForwards(max_forwards - 1);
  Via via;
  via.sent_by = transport_.local();
  via.branch = layer_.NewBranch();
  forwarded.PushVia(via);
  ++requests_proxied_;

  if (tx.method() == Method::kInvite) {
    pending_cancels_.insert_or_assign(
        tx.branch(),
        PendingForward{forwarded.request_uri(), via, forwarded, next_hop});
  }

  ServerTransaction* upstream = &tx;
  const std::string upstream_branch = tx.branch();
  layer_.StartClient(
      std::move(forwarded), next_hop,
      [this, upstream, upstream_branch](const Message& response) {
        Message copy = response;
        copy.PopVia();  // shed our Via
        upstream->Respond(copy);
        if (response.status() >= 200) pending_cancels_.erase(upstream_branch);
      },
      [this, upstream, upstream_branch] {
        upstream->Respond(upstream->MakeResponse(408));
        pending_cancels_.erase(upstream_branch);
      });
}

void Proxy::OnAck(const Message& ack, const net::Datagram&) {
  // An ACK routed through the proxy (unusual without Record-Route, but
  // harmless): forward statelessly toward the request-URI.
  const auto next_hop = Resolve(ack.request_uri());
  if (!next_hop) return;
  Message copy = ack;
  const int max_forwards = copy.MaxForwards().value_or(70);
  if (max_forwards <= 0) return;
  copy.SetMaxForwards(max_forwards - 1);
  layer_.SendStateless(copy, *next_hop);
}

}  // namespace vids::sip
