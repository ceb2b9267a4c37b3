#include "vids/behavior/behavior.h"

#include <algorithm>
#include <utility>

namespace vids::ids::behavior {

namespace {

int64_t Over(int64_t value, int threshold) {
  return value > threshold ? value - threshold : 0;
}

void AppendFeature(std::string& out, std::string_view name, int64_t value,
                   int64_t contribution_milli, bool first) {
  if (!first) out += ", ";
  out += name;
  out += '=';
  out += std::to_string(value);
  out += ":+";
  out += std::to_string(contribution_milli);
}

}  // namespace

sim::Duration BehaviorConfig::IdleHorizon() const {
  sim::Duration horizon = call_rate_window;
  for (const sim::Duration d :
       {short_call_window, fanout_window, ua_window, reg_failure_window,
        alert_cooldown, open_call_ttl}) {
    if (d.nanos() > horizon.nanos()) horizon = d;
  }
  return horizon;
}

BehaviorEngine::BehaviorEngine(const BehaviorConfig& config)
    : config_(config) {}

template <typename Profile>
Profile* BehaviorEngine::Find(ProfileTable<Profile>& table,
                              std::string_view key, int64_t t) {
  const auto it = table.map.find(key);
  if (it == table.map.end()) return nullptr;
  it->second->last_event_ns = t;
  table.ages.Touch(*it);
  return it->second.get();
}

template <typename Profile>
Profile& BehaviorEngine::GetOrCreate(ProfileTable<Profile>& table,
                                     std::string_view key, int64_t t) {
  if (Profile* existing = Find(table, key, t)) return *existing;
  std::unique_ptr<Profile> profile;
  if (!table.pool.empty()) {
    profile = std::move(table.pool.back());
    table.pool.pop_back();
  } else {
    profile = std::make_unique<Profile>();
  }
  profile->last_event_ns = t;
  ProfileNode<Profile>& node =
      *table.map.emplace(std::string(key), std::move(profile)).first;
  table.ages.Insert(node);
  return *node.second;
}

void BehaviorEngine::OnCallStart(sim::Time now, std::string_view caller,
                                 std::string_view dest,
                                 std::string_view user_agent,
                                 uint64_t call_hash) {
  if (!config_.enabled || caller.empty()) return;
  const int64_t t = now.nanos();
  CallerProfile& p = GetOrCreate(callers_, caller, t);
  p.call_rate.Touch(t, config_.call_rate_window.nanos());
  if (!dest.empty()) p.fanout.Touch(common::Fnv1a64(dest), t);
  if (!user_agent.empty()) {
    p.user_agents.Touch(common::Fnv1a64(user_agent), t);
  }

  // Open-call slot: a repeated initial INVITE (retransmission) refreshes
  // its start; otherwise take the stalest slot — empty and TTL-expired
  // slots are stalest by construction, and when none exist the oldest open
  // call is evicted (its BYE will simply record nothing).
  size_t stalest = 0;
  bool placed = false;
  for (size_t i = 0; i < p.open_calls.size(); ++i) {
    OpenCall& slot = p.open_calls[i];
    if (slot.start_ns != INT64_MIN && slot.hash == call_hash) {
      slot.start_ns = t;
      placed = true;
      break;
    }
    if (slot.start_ns < p.open_calls[stalest].start_ns) stalest = i;
  }
  if (!placed) {
    p.open_calls[stalest].hash = call_hash;
    p.open_calls[stalest].start_ns = t;
  }

  ScoreCaller(p, caller, t);
}

void BehaviorEngine::OnCallEnd(sim::Time now, std::string_view caller,
                               uint64_t call_hash) {
  if (!config_.enabled || caller.empty()) return;
  const int64_t t = now.nanos();
  CallerProfile* p = Find(callers_, caller, t);
  if (p == nullptr) return;  // callee-sent BYE or long-idle caller
  const int64_t ttl = config_.open_call_ttl.nanos();
  for (OpenCall& slot : p->open_calls) {
    if (slot.start_ns == INT64_MIN || slot.hash != call_hash) continue;
    if (t - slot.start_ns <= ttl) {
      const int64_t duration_ns = t - slot.start_ns;
      durations_.Record(duration_ns / 1'000'000);  // ms
      if (duration_ns <= config_.short_call_max.nanos()) {
        p->short_calls.Touch(t, config_.short_call_window.nanos());
      }
    }
    slot = OpenCall{};
    break;
  }
  ScoreCaller(*p, caller, t);
}

void BehaviorEngine::OnRegFailure(sim::Time now, std::string_view target,
                                  uint64_t source_hash) {
  if (!config_.enabled || target.empty()) return;
  const int64_t t = now.nanos();
  TargetProfile& p = GetOrCreate(targets_, target, t);
  p.reg_failures.Touch(t, config_.reg_failure_window.nanos());
  p.reg_sources.Touch(source_hash, t);
  ScoreTarget(p, target, t);
}

void BehaviorEngine::OnRegSuccess(sim::Time now, std::string_view target) {
  if (!config_.enabled || target.empty()) return;
  // A successful registration breaks the cracking streak. Only an existing
  // profile matters — success with no failure history builds no state.
  TargetProfile* p = Find(targets_, target, now.nanos());
  if (p == nullptr) return;
  p->reg_failures.Reset();
  p->reg_sources.Reset();
}

void BehaviorEngine::ScoreCaller(CallerProfile& p, std::string_view caller,
                                 int64_t t) {
  const int64_t rate = p.call_rate.Count(t);
  const int64_t shorts = p.short_calls.Count(t);
  const int64_t fanout = p.fanout.Count(t, config_.fanout_window.nanos());
  const int64_t uas = p.user_agents.Count(t, config_.ua_window.nanos());

  const int64_t c_rate =
      config_.weight_call_rate * Over(rate, config_.call_rate_threshold);
  const int64_t c_short =
      config_.weight_short_call * Over(shorts, config_.short_call_threshold);
  const int64_t c_fanout =
      config_.weight_fanout * Over(fanout, config_.fanout_threshold);
  const int64_t c_ua = config_.weight_ua * Over(uas, config_.ua_threshold);
  const int64_t score = c_rate + c_short + c_fanout + c_ua;
  if (score < config_.alert_score) return;
  if (p.last_alert_ns != INT64_MIN &&
      t - p.last_alert_ns < config_.alert_cooldown.nanos()) {
    ++cooldown_suppressed_;
    return;
  }

  // Classification by dominant evidence: burst-shaped features (rate,
  // short-call mass, UA rotation) read as SPIT; a fan-out-led score with a
  // quiet rate is the low-and-slow toll-fraud shape.
  const std::string_view classification =
      c_fanout > c_rate + c_short + c_ua ? kBehaviorTollFraud : kBehaviorSpit;

  std::string detail = "score=";
  detail += std::to_string(score);
  detail += " (";
  AppendFeature(detail, "calls", rate, c_rate, true);
  AppendFeature(detail, "short", shorts, c_short, false);
  AppendFeature(detail, "fanout", fanout, c_fanout, false);
  AppendFeature(detail, "ua", uas, c_ua, false);
  detail += ')';
  Emit(p.last_alert_ns, "caller|", caller, classification, t, score,
       std::move(detail));
}

void BehaviorEngine::ScoreTarget(TargetProfile& p, std::string_view target,
                                 int64_t t) {
  const int64_t failures = p.reg_failures.Count(t);
  const int64_t sources =
      p.reg_sources.Count(t, config_.reg_failure_window.nanos());
  const int64_t c_fail =
      config_.weight_reg_failure * Over(failures, config_.reg_failure_threshold);
  const int64_t c_src =
      config_.weight_reg_source * Over(sources, config_.reg_source_threshold);
  const int64_t score = c_fail + c_src;
  if (score < config_.alert_score) return;
  if (p.last_alert_ns != INT64_MIN &&
      t - p.last_alert_ns < config_.alert_cooldown.nanos()) {
    ++cooldown_suppressed_;
    return;
  }

  std::string detail = "score=";
  detail += std::to_string(score);
  detail += " (";
  AppendFeature(detail, "reg_failures", failures, c_fail, true);
  AppendFeature(detail, "reg_sources", sources, c_src, false);
  detail += ')';
  Emit(p.last_alert_ns, "reg|", target, kBehaviorRegCracking, t, score,
       std::move(detail));
}

void BehaviorEngine::Emit(int64_t& last_alert_ns,
                          std::string_view group_prefix,
                          std::string_view entity,
                          std::string_view classification, int64_t t,
                          int64_t score, std::string detail) {
  last_alert_ns = t;
  ++alerts_emitted_;
  Alert alert;
  alert.when = sim::Time::FromNanos(t);
  alert.kind = AlertKind::kBehavior;
  alert.classification = std::string(classification);
  alert.machine = std::string(kBehaviorMachine);
  alert.group = std::string(group_prefix);
  alert.group += entity;
  alert.state = score >= config_.critical_score ? "critical" : "elevated";
  alert.detail = std::move(detail);
  alert.trigger = std::string(kBehaviorMachine) +
                  ": weighted profile score crossed the alert threshold";
  if (sink_) sink_(std::move(alert));
}

template <typename Profile>
void BehaviorEngine::Reclaim(ProfileTable<Profile>& table, int64_t t,
                             int64_t horizon) {
  while (ProfileNode<Profile>* oldest = table.ages.oldest()) {
    if (t - oldest->second->last_event_ns <= horizon) break;
    table.ages.Unlink(*oldest);
    const auto it = table.map.find(oldest->first);
    if (table.pool.size() < config_.profile_pool_cap) {
      *it->second = Profile{};
      table.pool.push_back(std::move(it->second));
    }
    table.map.erase(it);
  }
}

void BehaviorEngine::Sweep(sim::Time now) {
  const int64_t horizon = config_.IdleHorizon().nanos();
  Reclaim(callers_, now.nanos(), horizon);
  Reclaim(targets_, now.nanos(), horizon);
}

std::vector<std::string> BehaviorEngine::DueSurvivors(sim::Time now) const {
  const int64_t horizon = config_.IdleHorizon().nanos();
  std::vector<std::string> due;
  const auto audit = [&](const auto& table) {
    for (const auto& [key, profile] : table.map) {
      if (now.nanos() - profile->last_event_ns > horizon) {
        due.push_back("idle behavior profile " + key);
      }
    }
  };
  audit(callers_);
  audit(targets_);
  return due;
}

size_t BehaviorEngine::MemoryBytes() const {
  return sizeof(*this) + callers_.MemoryBytes() + targets_.MemoryBytes();
}

}  // namespace vids::ids::behavior
