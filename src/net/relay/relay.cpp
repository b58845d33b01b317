#include "net/relay/relay.h"

#include <set>

#include "metrics/trace.h"
#include "tensor/check.h"

namespace adafl::net::relay {

namespace {

using transport::ConnId;
using transport::Frame;
using transport::FrameImage;
using transport::kNoConn;
using transport::kProtocolVersion;
using transport::kServerId;
using transport::MsgType;

}  // namespace

RelaySession::RelaySession(RelayConfig cfg, IndexedDialFn dial,
                           std::size_t endpoint_count)
    : cfg_(std::move(cfg)),
      dial_(std::move(dial)),
      endpoint_count_(endpoint_count),
      face_(transport::ServerFaceConfig{cfg_.base, cfg_.count,
                                        cfg_.retransmit_nudge}) {
  ADAFL_CHECK_MSG(dial_ != nullptr, "RelaySession: null dial callback");
  ADAFL_CHECK_MSG(endpoint_count_ >= 1, "RelaySession: empty endpoint list");
  // A parent frame ends the idle wait, as a child's does.
  dial_ = [this, dial = std::move(dial_)](std::size_t endpoint) {
    std::unique_ptr<transport::Transport> t = dial(endpoint);
    if (t) t->set_wake([this] { carriers_.wake(); });
    return t;
  };
}

void RelaySession::trace_child(metrics::TraceEventType type, const Frame& f) {
  if (cfg_.tracer == nullptr || !cfg_.tracer->enabled()) return;
  cfg_.tracer->record(metrics::ev_frame(
      type, static_cast<int>(f.round), transport::trace_client(f.client_id),
      to_string(f.type), static_cast<std::int64_t>(f.wire_size()),
      parent_->trace_now()));
}

void RelaySession::child_send(ConnId conn, const Frame& f,
                              FrameImage* image) {
  if (!carriers_.send(conn, f, image)) {
    drop_child(conn);
    return;
  }
  trace_child(metrics::TraceEventType::kFrameTx, f);
}

void RelaySession::send_queued() {
  for (const ServerFace::Send& s : face_.take_sends()) {
    switch (s.kind) {
      case ServerFace::Kind::kWelcome:
        child_send(s.conn, welcome_, &welcome_image_);
        break;
      case ServerFace::Kind::kModel:
        child_send(s.conn, model_frame_, &model_image_);
        break;
      case ServerFace::Kind::kSelect:
        child_send(s.conn,
                   Frame{MsgType::kSelect,
                         static_cast<std::uint32_t>(face_.round()),
                         static_cast<std::uint32_t>(s.leaf),
                         transport::encode_f64(face_.ratio(s.leaf))});
        break;
    }
  }
}

void RelaySession::bind_child(ConnId conn, const Frame& f) {
  const ServerFace::Claim claim = face_.check_hello(f, agg_group_);
  // Announce a leaf up so the root counts it live; the root catches it up
  // through this route too. A sub-relay announces its own leaves.
  if (!claim.range) parent_->send(f);
  for (const ConnId old : face_.bind(conn, claim)) drop_child(old);
  send_queued();
}

void RelaySession::handle_child_frame(ConnId conn,
                                      const ServerFace::Claim& child,
                                      const Frame& f) {
  const auto round = static_cast<std::uint32_t>(face_.round());
  const int id = static_cast<int>(f.client_id);
  switch (f.type) {
    case MsgType::kScore:
      ADAFL_CHECK_MSG(child.range ? child.covers(f.client_id)
                                  : id == child.base,
                      "relay: SCORE for leaf " << f.client_id
                                               << " from a foreign child");
      transport::parse_score(f.payload);
      if (f.round == round) {
        face_.score(id);
        score_frames_[id] = f;
      }
      if (child.range) face_.set_alive(id, true);  // proof of life
      parent_->send(f);
      return;
    case MsgType::kHello:
    case MsgType::kChildGone:
      // A sub-relay's leaf joined or left. The parent sees the forwarded
      // HELLO and re-sends any SELECT the leaf owes through this relay. A
      // leaf's own repeat HELLO is ignored, as the root ignores it.
      if (!child.range) return;
      ADAFL_CHECK_MSG(child.covers(f.client_id),
                      "relay: sub-relay " << to_string(f.type) << " for leaf "
                                          << f.client_id << " out of range");
      face_.set_alive(id, f.type == MsgType::kHello);
      parent_->send(f);
      return;
    case MsgType::kUpdate: {
      if (child.range || f.round != round || !face_.owes_update(child.base))
        return;  // stale or duplicate
      transport::UpdatePayload u = transport::parse_update(f.payload);
      ADAFL_CHECK_MSG(u.msg.kind == compress::CodecKind::kTopK,
                      "relay: UPDATE from leaf " << child.base
                                                 << " is not top-k");
      ADAFL_CHECK_MSG(u.msg.dense_size == param_count_,
                      "relay: UPDATE from leaf " << child.base
                                                 << " dimension mismatch");
      updates_.emplace(child.base, std::move(u));
      face_.deliver(child.base);
      // A straggler that rejoined after its group shipped (crashed leaf,
      // group flushed without it): rebuild and re-ship the superset AGG —
      // the root replaces the committed partial with it.
      agg_frames_.erase((child.base / agg_group_) * agg_group_);
      flush_groups();
      return;
    }
    case MsgType::kUpdateAgg: {
      if (!child.range) return;
      // Validate the claim, then forward the original frame verbatim so
      // the root sees byte-identical partials regardless of tree depth.
      const transport::UpdateAggPayload a =
          transport::parse_update_agg(f.payload);
      transport::validate_update_agg(a, param_count_, agg_group_, child.base,
                                     child.count);
      if (f.round != round) return;  // stale
      for (const transport::UpdateAggChild& c : a.children)
        face_.deliver(static_cast<int>(c.id));
      agg_frames_[static_cast<int>(a.base)] = f;  // for nudge re-sends
      parent_->send(f);
      ++stats_.aggs_forwarded;
      return;
    }
    case MsgType::kPing:
      child_send(conn, Frame{MsgType::kPong, f.round, kServerId, {}});
      return;
    default:
      return;  // PONG, unexpected types: ignore
  }
}

Frame RelaySession::build_agg(int gbase) {
  transport::UpdateAggPayload a;
  a.base = static_cast<std::uint32_t>(gbase);
  a.count = static_cast<std::uint32_t>(agg_group_);
  // Build order is the fixed ascending-id order the root uses for
  // locally-computed groups, so the partial is the root's bitwise
  // recomputation.
  core::PartialAggregator& agg = partial_agg_;
  agg.reset(static_cast<std::size_t>(param_count_));
  for (int id = gbase; id < gbase + agg_group_; ++id) {
    const auto it = updates_.find(id);
    if (it == updates_.end()) continue;
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
  return Frame{MsgType::kUpdateAgg, static_cast<std::uint32_t>(face_.round()),
               kServerId, transport::encode_update_agg(a)};
}

void RelaySession::flush_groups() {
  if (agg_group_ <= 0 || updates_.empty()) return;
  std::set<int> bases;
  for (const auto& [id, u] : updates_)
    bases.insert((id / agg_group_) * agg_group_);
  for (const int b : bases) {
    if (agg_frames_.count(b) != 0) continue;  // already shipped
    bool blocked = false;
    for (int id = b; id < b + agg_group_ && !blocked; ++id)
      // A selected leaf that is still connected and owes its update blocks
      // the group; a crashed one must not — the survivors' updates ship and
      // the root's round deadline accounts for the loss, as in a flat run.
      blocked = face_.owes_update(id) && face_.direct(id) != kNoConn;
    if (blocked) continue;
    const Frame af = build_agg(b);
    agg_frames_.emplace(b, af);  // cached for duplicate-SELECT re-sends
    parent_->send(af);
    ++stats_.aggs_sent;
  }
}

void RelaySession::drop_child(ConnId conn) {
  carriers_.close(conn);
  const std::vector<int> lost = face_.unbind(conn);
  for (const int id : lost)
    parent_->send(Frame{MsgType::kChildGone,
                        static_cast<std::uint32_t>(face_.round()),
                        static_cast<std::uint32_t>(id), {}});
  if (!lost.empty()) flush_groups();  // a dead leaf no longer blocks
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
      // Served to children verbatim.
      welcome_ = Frame{MsgType::kWelcome, 0, kServerId, f.payload};
      welcome_image_ = {};
      return;
    }
    case MsgType::kModel: {
      const int r = static_cast<int>(f.round);
      if (r != face_.round()) {
        // New round: reset, cache, broadcast. Reaching a new parent round
        // is the relay's completed round: it refills the dial budget.
        ++stats_.rounds_seen;
        parent_->round_done(r);
        score_frames_.clear();
        updates_.clear();
        agg_frames_.clear();
        model_frame_ = f;
        model_image_ = {};
        face_.begin_round(r);
        send_queued();
        return;
      }
      // Duplicate MODEL = parent nudge: someone up there still misses a
      // score. Re-serve the MODELs children owe, and re-send every cached
      // SCORE — a score forwarded while the parent link was down is lost,
      // and the leaf (already scored locally) will never repeat it.
      face_.resend_models();
      send_queued();
      for (const auto& [id, sf] : score_frames_) parent_->send(sf);
      return;
    }
    case MsgType::kSelect:
    case MsgType::kSkip: {
      ADAFL_CHECK_MSG(face_.contains(f.client_id),
                      "relay: parent " << to_string(f.type) << " for leaf "
                                       << f.client_id << " outside ["
                                       << cfg_.base << ", "
                                       << cfg_.base + cfg_.count << ")");
      if (f.round != static_cast<std::uint32_t>(face_.round()))
        return;  // stale
      const int id = static_cast<int>(f.client_id);
      face_.close_scores();
      if (f.type == MsgType::kSelect) {
        face_.select(id, transport::parse_f64(f.payload));
        if (face_.delivered(id)) {
          // Duplicate SELECT for a delivered leaf: the parent is nudging
          // because the shipped AGG was lost in flight — re-send it (or
          // flush, if the group never shipped).
          const auto cached = agg_frames_.find((id / agg_group_) * agg_group_);
          if (cached != agg_frames_.end())
            parent_->send(cached->second);
          else
            flush_groups();
          return;
        }
      }
      child_send(face_.route(id), f);  // offline: catch-up serves it later
      return;
    }
    case MsgType::kPing:
      parent_->send(Frame{MsgType::kPong, f.round, kServerId, {}});
      return;
    case MsgType::kShutdown: {
      // Flushed before the children close (run()'s exit).
      const Frame sd{MsgType::kShutdown, 0, kServerId, {}};
      FrameImage image;
      for (const ConnId conn : face_.conns()) carriers_.send(conn, sd, &image);
      stats_.completed = true;
      return;
    }
    default:
      return;  // PONG etc: ignore
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
  carriers_.start();

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
    if (claimed || !cfg_.standby || carriers_.size() > 0) {
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
        for (int id = cfg_.base; id < cfg_.base + cfg_.count; ++id)
          if (face_.live(id))
            parent_->send(Frame{MsgType::kHello, 0,
                                static_cast<std::uint32_t>(id),
                                transport::encode_hello(kProtocolVersion)});
        progress = true;
      }
    }

    // --- Child frames (bind on first frame, then dispatch). They stay on
    // their carrier until the parent's WELCOME is cached: a child bound
    // earlier could not be served the run configuration.
    if (agg_group_ > 0) {
      carriers_.poll(batch_);
      progress = progress || !batch_.empty();
      for (const transport::InFrame& inf : batch_) {
        if (!carriers_.open(inf.conn)) continue;  // dropped earlier in it
        trace_child(metrics::TraceEventType::kFrameRx, inf.frame);
        try {
          if (const ServerFace::Claim* child = face_.binding(inf.conn))
            handle_child_frame(inf.conn, *child, inf.frame);
          else
            bind_child(inf.conn, inf.frame);
        } catch (const CheckError&) {
          drop_child(inf.conn);
        }
      }
      batch_.clear();
      for (const ConnId conn : carriers_.take_gone()) drop_child(conn);
    }

    // --- Child-side retransmit nudge.
    face_.poll();
    send_queued();

    if (!progress) carriers_.wait(cfg_.idle_poll);
  }

  // A parent SHUTDOWN was queued to every child: flush it, bounded as at
  // the root. Any other exit (request_stop, dial give-up) drops everything
  // abruptly.
  carriers_.close_all(std::chrono::milliseconds(stats_.completed ? 2000 : 0));
  parent_->close();
  stats_.parent_reconnects = parent_->reconnects();
  stats_.endpoint_rotations = parent_->rotations();
  if (cfg_.tracer != nullptr) cfg_.tracer->flush();
  return stats_;
}

}  // namespace adafl::net::relay
