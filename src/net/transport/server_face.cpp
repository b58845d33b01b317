#include "net/transport/server_face.h"

#include <algorithm>

#include "net/transport/session.h"
#include "tensor/check.h"

namespace adafl::net::transport {

ServerFace::ServerFace(ServerFaceConfig cfg, ClockFn clock)
    : range_{cfg.base, cfg.count, true},
      retransmit_nudge_(cfg.retransmit_nudge),
      clock_(std::move(clock)) {
  ADAFL_CHECK_MSG(cfg.base >= 0 && cfg.count > 0,
                  "ServerFace: invalid leaf range: base "
                      << cfg.base << ", count " << cfg.count);
  ADAFL_CHECK_MSG(clock_ != nullptr, "ServerFace: null clock");
  leaves_.resize(static_cast<std::size_t>(cfg.count));
  scored_.assign(static_cast<std::size_t>(cfg.count), false);
}

ServerFace::Claim ServerFace::check_hello(const Frame& f,
                                          int agg_group) const {
  const std::int64_t end =
      static_cast<std::int64_t>(range_.base) + range_.count;
  if (f.type == MsgType::kHello) {
    ADAFL_CHECK_MSG(parse_hello(f.payload) == kProtocolVersion,
                    "hello: protocol version mismatch");
    ADAFL_CHECK_MSG(contains(f.client_id),
                    "hello: leaf id " << f.client_id << " outside ["
                                      << range_.base << ", " << end << ")");
    return Claim{static_cast<int>(f.client_id), 1, false};
  }
  ADAFL_CHECK_MSG(f.type == MsgType::kRelayHello,
                  "expected HELLO or RELAY_HELLO, got " << to_string(f.type));
  const RelayHelloPayload h = parse_relay_hello(f.payload);
  ADAFL_CHECK_MSG(h.version == kProtocolVersion,
                  "relay_hello: protocol version mismatch");
  ADAFL_CHECK_MSG(agg_group > 0,
                  "relay_hello: a relay joined but the run has agg_group == 0");
  const auto lo = static_cast<std::int64_t>(h.base);
  const auto hi = lo + h.count;
  ADAFL_CHECK_MSG(lo >= range_.base && hi <= end && lo % agg_group == 0 &&
                      h.count % static_cast<std::uint32_t>(agg_group) == 0,
                  "relay_hello: range [" << lo << ", " << hi
                                         << ") invalid for leaves ["
                                         << range_.base << ", " << end
                                         << ") with agg_group " << agg_group);
  return Claim{static_cast<int>(lo), static_cast<int>(h.count), true};
}

std::vector<ConnId> ServerFace::bind(ConnId conn, const Claim& claim) {
  std::vector<ConnId> superseded;
  Binding& b = bindings_[conn] = Binding{claim, 0};
  sends_.push_back(Send{conn, Kind::kWelcome, claim.base, false});
  if (!claim.range) {
    Leaf& l = at(claim.base);
    if (l.direct != kNoConn) superseded.push_back(l.direct);
    l.direct = conn;
    if (round_ == 0) return superseded;
    if (phase_ == Phase::kScore && !scored(claim.base))
      queue_model(conn, claim.base, l.model_sent);
    else if (owes(l))
      queue_select(claim.base);
    return superseded;
  }
  for (int id = claim.base; id < claim.base + claim.count; ++id) {
    Leaf& l = at(id);
    if (l.range != kNoConn &&
        std::find(superseded.begin(), superseded.end(), l.range) ==
            superseded.end())
      superseded.push_back(l.range);
    l.range = conn;
    l.alive = false;  // until the range announces it
  }
  if (round_ == 0) return superseded;
  queue_model(conn, claim.base, b.model_sent);
  for (int id = claim.base; id < claim.base + claim.count; ++id)
    if (owes(at(id))) queue_select(id);
  return superseded;
}

std::vector<int> ServerFace::unbind(ConnId conn) {
  std::vector<int> lost;
  const auto it = bindings_.find(conn);
  if (it == bindings_.end()) return lost;
  const Claim c = it->second.claim;
  bindings_.erase(it);
  for (int id = c.base; id < c.base + c.count; ++id) {
    Leaf& l = at(id);
    ConnId& route = c.range ? l.range : l.direct;
    if (route != conn) continue;  // superseded: a newer binding holds it
    const bool was_live = l.live();
    route = kNoConn;
    if (c.range) l.alive = false;
    if (was_live && !l.live()) lost.push_back(id);
  }
  return lost;
}

const ServerFace::Claim* ServerFace::binding(ConnId conn) const {
  const auto it = bindings_.find(conn);
  return it == bindings_.end() ? nullptr : &it->second.claim;
}

void ServerFace::announce(int leaf) {
  set_alive(leaf, true);
  if (owes(at(leaf))) queue_select(leaf);
}

std::vector<ConnId> ServerFace::conns() const {
  std::vector<ConnId> out;
  for (const Leaf& l : leaves_)
    if (l.direct != kNoConn) out.push_back(l.direct);
  for (const auto& [conn, b] : bindings_)
    if (b.claim.range) out.push_back(conn);
  return out;
}

void ServerFace::begin_round(int round) {
  round_ = round;
  phase_ = Phase::kScore;
  delivered_count_ = 0;
  std::fill(scored_.begin(), scored_.end(), false);
  for (int id = range_.base; id < range_.base + range_.count; ++id) {
    Leaf& l = at(id);
    l.model_sent = 0;
    l.selected = l.delivered = false;
    if (l.direct != kNoConn) queue_model(l.direct, id, l.model_sent);
  }
  for (auto& [conn, b] : bindings_) {
    b.model_sent = 0;
    if (b.claim.range) queue_model(conn, b.claim.base, b.model_sent);
  }
  restart_nudges();
}

void ServerFace::close_scores() {
  if (phase_ == Phase::kUpdate) return;
  phase_ = Phase::kUpdate;
  restart_nudges();
}

void ServerFace::select(int leaf, double ratio) {
  at(leaf).selected = true;
  at(leaf).ratio = ratio;
}

void ServerFace::deliver(int leaf) {
  if (at(leaf).delivered) return;
  at(leaf).delivered = true;
  ++delivered_count_;
}

void ServerFace::resend_models() {
  if (round_ == 0 || phase_ != Phase::kScore) return;
  for (int id = range_.base; id < range_.base + range_.count; ++id)
    if (at(id).direct != kNoConn && !scored(id))
      queue_model(at(id).direct, id, at(id).model_sent);
  // One MODEL per range: the relay re-serves it to exactly the children
  // that still owe a score.
  for (auto& [conn, b] : bindings_) {
    if (!b.claim.range) continue;
    for (int id = b.claim.base; id < b.claim.base + b.claim.count; ++id)
      if (at(id).range == conn && at(id).alive && !scored(id)) {
        queue_model(conn, b.claim.base, b.model_sent);
        break;
      }
  }
}

void ServerFace::poll() {
  if (round_ == 0 || retransmit_nudge_.count() <= 0) return;
  const Clock::time_point now = clock_();
  if (now < next_nudge_) return;
  // The gap does not reset on progress (a trickle of PINGs would starve
  // the nudge) but backs off: a fleet that is only slow, not lossy, must
  // not be spammed into a resend storm, while a frame lost in flight is
  // still recovered after at most the time already waited. A redundant
  // MODEL or SELECT costs bytes only: a client never retrains a round or
  // recompresses an update.
  resend_models();
  for (int id = range_.base; id < range_.base + range_.count; ++id)
    if (owes(at(id)) && at(id).live()) queue_select(id);
  nudge_gap_ *= 2;
  next_nudge_ = now + nudge_gap_;
}

std::vector<ServerFace::Send> ServerFace::take_sends() {
  std::vector<Send> out;
  out.swap(sends_);
  return out;
}

void ServerFace::queue_model(ConnId conn, int leaf, char& sent) {
  sends_.push_back(Send{conn, Kind::kModel, leaf, sent != 0});
  sent = 1;
}

void ServerFace::queue_select(int leaf) {
  sends_.push_back(Send{route(leaf), Kind::kSelect, leaf, true});
}

void ServerFace::restart_nudges() {
  nudge_gap_ = retransmit_nudge_;
  next_nudge_ = clock_() + nudge_gap_;
}

}  // namespace adafl::net::transport
