#include "net/relay/relay.h"

#include <algorithm>
#include <thread>

#include "metrics/trace.h"
#include "tensor/check.h"

namespace adafl::net::relay {

namespace {

using Clock = std::chrono::steady_clock;
using transport::Frame;
using transport::MsgType;
using transport::kProtocolVersion;
using transport::kServerId;

}  // namespace

RelaySession::RelaySession(RelayConfig cfg, IndexedDialFn dial,
                           std::size_t endpoint_count)
    : cfg_(std::move(cfg)),
      dial_(std::move(dial)),
      endpoint_count_(endpoint_count) {
  ADAFL_CHECK_MSG(cfg_.base >= 0 && cfg_.count > 0,
                  "RelaySession: invalid leaf range");
  ADAFL_CHECK_MSG(dial_ != nullptr, "RelaySession: null dial callback");
  ADAFL_CHECK_MSG(endpoint_count_ >= 1, "RelaySession: empty endpoint list");
}

void RelaySession::add_child_transport(
    std::unique_ptr<transport::Transport> t) {
  if (!t) return;
  std::lock_guard<std::mutex> lock(pending_mu_);
  pending_.push_back(std::move(t));
}

void RelaySession::trace_child(metrics::TraceEventType type, const Frame& f) {
  if (cfg_.tracer == nullptr || !cfg_.tracer->enabled()) return;
  cfg_.tracer->record(metrics::ev_frame(
      type, static_cast<int>(f.round), transport::trace_client(f.client_id),
      to_string(f.type), static_cast<std::int64_t>(f.wire_size()),
      parent_->trace_now()));
}

void RelaySession::child_send(Child& c, const Frame& f) {
  if (!c.conn) return;
  if (!c.conn->send(f)) {
    c.conn->close();  // the poll pass reaps it
    return;
  }
  trace_child(metrics::TraceEventType::kFrameTx, f);
}

bool RelaySession::leaf_live(int id) const {
  const auto it = leaf_child_.find(id);
  if (it == leaf_child_.end()) return false;
  const Child& c = children_[it->second];
  return c.conn != nullptr && !c.conn->closed();
}

void RelaySession::catch_up_child(Child& c) {
  child_send(c, Frame{MsgType::kWelcome, 0, kServerId, welcome_payload_});
  if (!have_model_) return;
  if (c.is_relay) {
    // The sub-relay filters duplicates against its own round state.
    child_send(c, model_frame_);
    for (int id = c.sub_base; id < c.sub_base + c.sub_count; ++id) {
      if (ratio_of_.count(id) == 0 ||
          agg_frames_.count((id / agg_group_) * agg_group_) != 0)
        continue;
      child_send(c, select_frame(id));
    }
    return;
  }
  const int id = c.leaf_id;
  if (scored_.count(id) == 0) {
    child_send(c, model_frame_);
  } else if (ratio_of_.count(id) != 0 && delivered_.count(id) == 0) {
    // Selected but undelivered — even when its group already shipped: a
    // rejoined straggler's update rebuilds the group as a superset AGG
    // that supersedes the committed one at the root.
    child_send(c, select_frame(id));
  }
}

void RelaySession::bind_child(Child& c, const Frame& f) {
  if (f.type == MsgType::kHello) {
    ADAFL_CHECK_MSG(transport::parse_hello(f.payload) == kProtocolVersion,
                    "relay: child protocol version mismatch");
    ADAFL_CHECK_MSG(
        f.client_id >= static_cast<std::uint32_t>(cfg_.base) &&
            f.client_id < static_cast<std::uint32_t>(cfg_.base) +
                              static_cast<std::uint32_t>(cfg_.count),
        "relay: leaf id " << f.client_id << " outside range");
    const int id = static_cast<int>(f.client_id);
    // A redialing leaf supersedes its stale connection.
    const auto old = leaf_child_.find(id);
    if (old != leaf_child_.end() && &children_[old->second] != &c)
      children_[old->second].conn->close();
    c.bound = true;
    c.is_relay = false;
    c.leaf_id = id;
    live_.insert(id);
    // Announce the leaf up so the root counts it live; the root replies
    // with in-round catch-up through this route if needed.
    parent_->send(f);
    catch_up_child(c);
    return;
  }
  if (f.type == MsgType::kRelayHello) {
    const transport::RelayHelloPayload h =
        transport::parse_relay_hello(f.payload);
    ADAFL_CHECK_MSG(h.version == kProtocolVersion,
                    "relay: sub-relay protocol version mismatch");
    const auto lo = static_cast<std::int64_t>(h.base);
    const auto hi = lo + h.count;
    ADAFL_CHECK_MSG(lo >= cfg_.base &&
                        hi <= static_cast<std::int64_t>(cfg_.base) +
                                  cfg_.count,
                    "relay: sub-relay range outside this relay's range");
    ADAFL_CHECK_MSG(agg_group_ > 0 && lo % agg_group_ == 0 &&
                        h.count % static_cast<std::uint32_t>(agg_group_) == 0,
                    "relay: sub-relay range not group-aligned");
    // A rebinding sub-relay (redial or promoted standby) supersedes any
    // overlapping predecessor.
    for (Child& other : children_) {
      if (&other == &c || !other.bound || !other.is_relay) continue;
      if (lo < other.sub_base + other.sub_count && other.sub_base < hi)
        other.conn->close();
    }
    c.bound = true;
    c.is_relay = true;
    c.sub_base = static_cast<int>(lo);
    c.sub_count = static_cast<int>(h.count);
    catch_up_child(c);
    return;
  }
  ADAFL_CHECK_MSG(false, "relay: expected HELLO or RELAY_HELLO, got "
                             << to_string(f.type));
}

void RelaySession::handle_child_frame(Child& c, const Frame& f) {
  if (c.is_relay) {
    const auto in_sub = [&c](std::uint32_t cid) {
      return cid >= static_cast<std::uint32_t>(c.sub_base) &&
             cid < static_cast<std::uint32_t>(c.sub_base) +
                       static_cast<std::uint32_t>(c.sub_count);
    };
    switch (f.type) {
      case MsgType::kScore: {
        ADAFL_CHECK_MSG(in_sub(f.client_id),
                        "relay: sub-relay SCORE out of range");
        const double s = transport::parse_f64(f.payload);
        ADAFL_CHECK_MSG(s >= 0.0 && s <= 1.0,
                        "relay: utility score out of [0,1]");
        if (f.round == static_cast<std::uint32_t>(round_)) {
          scored_.insert(static_cast<int>(f.client_id));
          score_frames_[static_cast<int>(f.client_id)] = f;
        }
        live_.insert(static_cast<int>(f.client_id));
        parent_->send(f);
        return;
      }
      case MsgType::kHello:
        ADAFL_CHECK_MSG(in_sub(f.client_id),
                        "relay: sub-relay HELLO out of range");
        live_.insert(static_cast<int>(f.client_id));
        parent_->send(f);
        return;
      case MsgType::kChildGone:
        ADAFL_CHECK_MSG(in_sub(f.client_id),
                        "relay: CHILD_GONE out of range");
        live_.erase(static_cast<int>(f.client_id));
        parent_->send(f);
        return;
      case MsgType::kUpdateAgg: {
        // Validate the claim, then forward the original frame verbatim so
        // the root sees byte-identical partials regardless of tree depth.
        const transport::UpdateAggPayload a =
            transport::parse_update_agg(f.payload);
        transport::validate_update_agg(a, param_count_, agg_group_,
                                       c.sub_base, c.sub_count);
        if (f.round != static_cast<std::uint32_t>(round_)) return;  // stale
        agg_frames_[static_cast<int>(a.base)] = f;  // for nudge re-sends
        parent_->send(f);
        ++stats_.aggs_forwarded;
        return;
      }
      case MsgType::kPing:
        child_send(c, Frame{MsgType::kPong, f.round, kServerId, {}});
        return;
      default:
        return;  // PONG, unexpected types: ignore
    }
  }
  const int id = c.leaf_id;
  switch (f.type) {
    case MsgType::kScore: {
      ADAFL_CHECK_MSG(f.client_id == static_cast<std::uint32_t>(id),
                      "relay: SCORE with a foreign client id");
      const double s = transport::parse_f64(f.payload);
      ADAFL_CHECK_MSG(s >= 0.0 && s <= 1.0,
                      "relay: utility score out of [0,1]");
      if (f.round == static_cast<std::uint32_t>(round_)) {
        scored_.insert(id);
        score_frames_[id] = f;
      }
      parent_->send(f);
      return;
    }
    case MsgType::kUpdate: {
      if (f.round != static_cast<std::uint32_t>(round_) ||
          ratio_of_.count(id) == 0 || delivered_.count(id) != 0)
        return;  // stale or duplicate
      transport::UpdatePayload u = transport::parse_update(f.payload);
      ADAFL_CHECK_MSG(u.msg.kind == compress::CodecKind::kTopK,
                      "relay: UPDATE from leaf " << id
                                                 << " is not top-k");
      ADAFL_CHECK_MSG(u.msg.dense_size == param_count_,
                      "relay: UPDATE from leaf " << id
                                                 << " dimension mismatch");
      delivered_.emplace(id, std::move(u));
      // A straggler that rejoined after its group shipped (crashed leaf,
      // group flushed without it): rebuild and re-ship the superset AGG —
      // the root replaces the committed partial with it.
      agg_frames_.erase((id / agg_group_) * agg_group_);
      flush_groups();
      return;
    }
    case MsgType::kHello:
      // Duplicate HELLO on a live connection: serve catch-up again.
      catch_up_child(c);
      return;
    case MsgType::kPing:
      child_send(c, Frame{MsgType::kPong, f.round, kServerId, {}});
      return;
    default:
      return;
  }
}

Frame RelaySession::select_frame(int id) const {
  return Frame{MsgType::kSelect, static_cast<std::uint32_t>(round_),
               static_cast<std::uint32_t>(id),
               transport::encode_f64(ratio_of_.at(id))};
}

Frame RelaySession::build_agg(int gbase) const {
  transport::UpdateAggPayload a;
  a.base = static_cast<std::uint32_t>(gbase);
  a.count = static_cast<std::uint32_t>(agg_group_);
  // Mutable only for the reused accumulator; build order is the fixed
  // ascending-id order the root uses for locally-computed groups, so the
  // partial is the root's bitwise recomputation.
  auto& agg = const_cast<core::PartialAggregator&>(partial_agg_);
  agg.reset(static_cast<std::size_t>(param_count_));
  for (int id = gbase; id < gbase + agg_group_; ++id) {
    const auto it = delivered_.find(id);
    if (it == delivered_.end()) continue;
    const transport::UpdatePayload& u = it->second;
    transport::UpdateAggChild ch;
    ch.id = static_cast<std::uint32_t>(id);
    ch.num_examples = u.num_examples;
    ch.mean_loss = u.mean_loss;
    ch.raw_delta_norm = u.raw_delta_norm;
    ch.wire_bytes = u.msg.wire_bytes;
    a.children.push_back(ch);
    agg.add(u.msg, static_cast<float>(u.num_examples));
  }
  agg.finish(a.partial);
  return Frame{MsgType::kUpdateAgg, static_cast<std::uint32_t>(round_),
               kServerId, transport::encode_update_agg(a)};
}

void RelaySession::flush_groups() {
  if (!welcomed_ || agg_group_ <= 0 || delivered_.empty()) return;
  std::set<int> bases;
  for (const auto& [id, u] : delivered_)
    bases.insert((id / agg_group_) * agg_group_);
  for (const int b : bases) {
    if (agg_frames_.count(b) != 0) continue;  // already shipped
    bool blocked = false;
    for (int id = b; id < b + agg_group_ && !blocked; ++id)
      // A selected leaf that is still alive and owes its update blocks the
      // group; a crashed one must not — the survivors' updates ship and
      // the root's round deadline accounts for the loss, as in a flat run.
      blocked = ratio_of_.count(id) != 0 && delivered_.count(id) == 0 &&
                leaf_live(id);
    if (blocked) continue;
    const Frame af = build_agg(b);
    agg_frames_.emplace(b, af);  // cached for duplicate-SELECT re-sends
    parent_->send(af);
    ++stats_.aggs_sent;
  }
}

void RelaySession::drop_child(std::size_t idx) {
  Child c = std::move(children_[idx]);
  children_.erase(children_.begin() + static_cast<std::ptrdiff_t>(idx));
  for (auto& [leaf, ci] : leaf_child_)
    if (ci > idx) --ci;
  if (c.conn) c.conn->close();
  if (!c.bound) return;
  if (c.is_relay) {
    for (int id = c.sub_base; id < c.sub_base + c.sub_count; ++id) {
      if (live_.count(id) == 0) continue;
      // Superseded predecessor: a newer sub-relay has re-bound (part of)
      // the range and re-announced its leaves — those routes stay live.
      bool covered = false;
      for (const Child& other : children_) {
        if (!other.bound || !other.is_relay || !other.conn ||
            other.conn->closed())
          continue;
        if (id >= other.sub_base && id < other.sub_base + other.sub_count) {
          covered = true;
          break;
        }
      }
      if (covered) continue;
      live_.erase(id);
      parent_->send(Frame{MsgType::kChildGone,
                          static_cast<std::uint32_t>(round_),
                          static_cast<std::uint32_t>(id), {}});
    }
    return;
  }
  const auto it = leaf_child_.find(c.leaf_id);
  if (it != leaf_child_.end()) {
    // A redialing leaf superseded this connection before it was reaped:
    // the route in leaf_child_ already points at the fresh connection, so
    // the leaf is still live — do not tear the route down. A route that
    // named the dropped slot itself may now point one past the end.
    const Child* cur =
        it->second < children_.size() ? &children_[it->second] : nullptr;
    if (cur != nullptr && cur->bound && !cur->is_relay &&
        cur->leaf_id == c.leaf_id && cur->conn != nullptr &&
        !cur->conn->closed())
      return;
    leaf_child_.erase(it);
  }
  live_.erase(c.leaf_id);
  parent_->send(Frame{MsgType::kChildGone, static_cast<std::uint32_t>(round_),
                      static_cast<std::uint32_t>(c.leaf_id), {}});
  // The dead leaf no longer blocks its group.
  flush_groups();
}

void RelaySession::nudge_children() {
  if (!have_model_) return;
  for (Child& c : children_) {
    if (!c.bound || !c.conn || c.conn->closed()) continue;
    if (c.is_relay) {
      bool unscored = false, undelivered = false;
      for (int id = c.sub_base; id < c.sub_base + c.sub_count; ++id) {
        if (live_.count(id) != 0 && scored_.count(id) == 0) unscored = true;
        if (ratio_of_.count(id) != 0 &&
            agg_frames_.count((id / agg_group_) * agg_group_) == 0)
          undelivered = true;
      }
      if (unscored) child_send(c, model_frame_);
      if (undelivered)
        for (int id = c.sub_base; id < c.sub_base + c.sub_count; ++id) {
          if (ratio_of_.count(id) == 0 ||
              agg_frames_.count((id / agg_group_) * agg_group_) != 0)
            continue;
          child_send(c, select_frame(id));
        }
      continue;
    }
    const int id = c.leaf_id;
    if (scored_.count(id) == 0) {
      child_send(c, model_frame_);
    } else if (ratio_of_.count(id) != 0 && delivered_.count(id) == 0) {
      child_send(c, select_frame(id));
    }
  }
}

void RelaySession::route_down(int id, const Frame& f) {
  const auto lc = leaf_child_.find(id);
  if (lc != leaf_child_.end()) {
    child_send(children_[lc->second], f);
    return;
  }
  for (Child& c : children_)
    if (c.bound && c.is_relay && id >= c.sub_base &&
        id < c.sub_base + c.sub_count) {
      child_send(c, f);
      return;
    }
}

void RelaySession::handle_parent_frame(const Frame& f) {
  switch (f.type) {
    case MsgType::kWelcome: {
      const transport::WelcomeInfo w = transport::parse_welcome(f.payload);
      ADAFL_CHECK_MSG(w.params.agg_group > 0,
                      "relay: the run has agg_group == 0; a tiered "
                      "deployment needs --agg-group > 0 everywhere");
      ADAFL_CHECK_MSG(cfg_.base % w.params.agg_group == 0 &&
                          cfg_.count % w.params.agg_group == 0,
                      "relay: range [" << cfg_.base << ", "
                                       << cfg_.base + cfg_.count
                                       << ") not aligned to agg_group "
                                       << w.params.agg_group);
      agg_group_ = w.params.agg_group;
      param_count_ = static_cast<std::int64_t>(w.param_count);
      welcome_payload_ = f.payload;  // served to children verbatim
      welcomed_ = true;
      return;
    }
    case MsgType::kModel: {
      const int r = static_cast<int>(f.round);
      if (r != round_) {
        // New round: reset, cache, broadcast. Reaching a new parent round
        // is the relay's completed round: it refills the dial budget.
        round_ = r;
        ++stats_.rounds_seen;
        parent_->round_done(r);
        scored_.clear();
        score_frames_.clear();
        ratio_of_.clear();
        delivered_.clear();
        agg_frames_.clear();
        have_model_ = true;
        model_frame_ = f;
        for (Child& c : children_) {
          if (!c.bound) continue;
          child_send(c, model_frame_);
        }
        return;
      }
      // Duplicate MODEL = parent nudge: someone up there still misses a
      // score. Re-serve children that owe one, and re-send every cached
      // SCORE — a score forwarded while the parent link was down is lost,
      // and the leaf (already scored locally) will never repeat it.
      for (Child& c : children_) {
        if (!c.bound) continue;
        if (c.is_relay) {
          child_send(c, model_frame_);
          continue;
        }
        if (scored_.count(c.leaf_id) == 0) child_send(c, model_frame_);
      }
      for (const auto& [id, sf] : score_frames_) parent_->send(sf);
      return;
    }
    case MsgType::kSelect: {
      if (f.round != static_cast<std::uint32_t>(round_)) return;  // stale
      const int id = static_cast<int>(f.client_id);
      const double ratio = transport::parse_f64(f.payload);
      const int gbase = agg_group_ > 0 ? (id / agg_group_) * agg_group_ : 0;
      ratio_of_[id] = ratio;
      if (delivered_.count(id) != 0) {
        // Duplicate SELECT for a delivered leaf: the parent is nudging
        // because the shipped AGG was lost in flight — re-send it (or
        // flush, if the group never shipped).
        const auto cached = agg_frames_.find(gbase);
        if (cached != agg_frames_.end())
          parent_->send(cached->second);
        else
          flush_groups();
        return;
      }
      route_down(id, f);  // leaf offline: catch-up serves it on rejoin
      return;
    }
    case MsgType::kSkip: {
      if (f.round != static_cast<std::uint32_t>(round_)) return;
      route_down(static_cast<int>(f.client_id), f);
      return;
    }
    case MsgType::kPing:
      parent_->send(Frame{MsgType::kPong, f.round, kServerId, {}});
      return;
    case MsgType::kShutdown: {
      for (Child& c : children_) {
        if (!c.conn) continue;
        c.conn->send(Frame{MsgType::kShutdown, 0, kServerId, {}});
        c.conn->close();
      }
      children_.clear();
      leaf_child_.clear();
      stats_.completed = true;
      return;
    }
    default:
      return;  // WELCOME dupes handled above; PONG etc: ignore
  }
}

RelayRunStats RelaySession::run() {
  transport::UpstreamLinkConfig lcfg;
  lcfg.heartbeat_interval = cfg_.heartbeat_interval;
  lcfg.liveness_timeout = cfg_.liveness_timeout;
  lcfg.backoff = cfg_.backoff;
  lcfg.tracer = cfg_.tracer;
  parent_.emplace(lcfg, dial_, endpoint_count_);
  bool claimed = false;  // the parent link has been dialed
  auto nudge_gap = cfg_.retransmit_nudge;
  auto next_nudge = Clock::now() + nudge_gap;
  const bool nudge_on = cfg_.retransmit_nudge.count() > 0;
  int nudge_round = 0;

  for (;;) {
    if (stats_.completed || stop_.load(std::memory_order_acquire)) break;
    bool progress = false;

    // --- Parent frames.
    while (const std::optional<Frame> f =
               parent_->recv(std::chrono::milliseconds(0))) {
      progress = true;
      try {
        handle_parent_frame(*f);
      } catch (const CheckError&) {
        parent_->close();  // hostile/misconfigured parent: redial
        break;
      }
      if (stats_.completed) break;
    }
    if (stats_.completed) break;

    // --- Parent link upkeep (dial with backoff and rotation, heartbeat,
    // liveness) without ever blocking child service. A standby stays
    // dormant until a child shows up — the signal that the primary relay
    // died.
    bool wanted = claimed || !cfg_.standby || !children_.empty();
    if (!wanted) {
      std::lock_guard<std::mutex> lock(pending_mu_);
      wanted = !pending_.empty();
    }
    if (wanted) {
      const transport::UpstreamLink::Event ev = parent_->poll();
      if (ev == transport::UpstreamLink::Event::kGaveUp) break;
      if (ev == transport::UpstreamLink::Event::kConnected) {
        claimed = true;
        transport::RelayHelloPayload h;
        h.version = kProtocolVersion;
        h.base = static_cast<std::uint32_t>(cfg_.base);
        h.count = static_cast<std::uint32_t>(cfg_.count);
        parent_->send(Frame{MsgType::kRelayHello, 0, kServerId,
                            transport::encode_relay_hello(h)});
        // Re-announce every live leaf: the parent rebuilds its liveness
        // view of this range from scratch on a re-binding.
        for (const int id : live_)
          parent_->send(Frame{MsgType::kHello, 0,
                              static_cast<std::uint32_t>(id),
                              transport::encode_hello(kProtocolVersion)});
        progress = true;
      }
    }

    // --- Adopt pending child connections. Their first frame stays in the
    // socket until the parent's WELCOME is cached: a child bound earlier
    // could not be served the run configuration.
    if (welcomed_) {
      std::vector<std::unique_ptr<transport::Transport>> fresh;
      {
        std::lock_guard<std::mutex> lock(pending_mu_);
        fresh.swap(pending_);
      }
      for (auto& t : fresh) {
        Child c;
        c.conn = std::move(t);
        children_.push_back(std::move(c));
      }
    }

    // --- Child frames (bind on first frame, then dispatch).
    for (std::size_t i = 0; i < children_.size();) {
      Child& c = children_[i];
      bool dropped = false;
      while (c.conn && !c.conn->closed()) {
        std::optional<Frame> f;
        try {
          f = c.conn->recv(std::chrono::milliseconds(0));
        } catch (const CheckError&) {
          c.conn->close();
          break;
        }
        if (!f) break;
        progress = true;
        trace_child(metrics::TraceEventType::kFrameRx, *f);
        try {
          if (!c.bound) {
            bind_child(c, *f);
            if (c.bound && !c.is_relay)
              leaf_child_[c.leaf_id] = i;
          } else {
            handle_child_frame(c, *f);
          }
        } catch (const CheckError&) {
          c.conn->close();
          break;
        }
      }
      if (c.conn && c.conn->closed()) {
        drop_child(i);  // a bound one reports CHILD_GONE, re-checks flushes
        dropped = true;
      }
      if (!dropped) ++i;
    }

    // --- Relay-side retransmit nudge (exponential within a round).
    if (nudge_on) {
      if (round_ != nudge_round) {
        nudge_round = round_;
        nudge_gap = cfg_.retransmit_nudge;
        next_nudge = Clock::now() + nudge_gap;
      } else if (Clock::now() >= next_nudge) {
        nudge_children();
        nudge_gap *= 2;
        next_nudge = Clock::now() + nudge_gap;
      }
    }

    if (!progress) std::this_thread::sleep_for(cfg_.idle_poll);
  }

  // Stop path (request_stop or dial give-up): drop everything abruptly.
  if (!stats_.completed) {
    for (Child& c : children_)
      if (c.conn) c.conn->close();
    children_.clear();
    leaf_child_.clear();
  }
  parent_->close();
  stats_.parent_reconnects = parent_->reconnects();
  stats_.endpoint_rotations = parent_->rotations();
  if (cfg_.tracer != nullptr) cfg_.tracer->flush();
  return stats_;
}

}  // namespace adafl::net::relay
