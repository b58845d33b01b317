#include "net/transport/session.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>

#include "compress/bytes.h"
#include "compress/wire.h"
#include "core/parallel.h"
#include "core/server_checkpoint.h"
#include "core/utility.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "net/replication/replication.h"
#include "net/transport/client_protocol.h"
#include "net/transport/crc32.h"
#include "net/transport/upstream_link.h"
#include "tensor/check.h"
#include "tensor/tensor.h"

namespace adafl::net::transport {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

// --- Payload codecs. -----------------------------------------------------

std::vector<std::uint8_t> encode_hello(std::uint32_t protocol_version) {
  std::vector<std::uint8_t> out;
  bytes::put_u32(out, protocol_version);
  return out;
}

std::uint32_t parse_hello(std::span<const std::uint8_t> payload) {
  bytes::Reader r(payload);
  const std::uint32_t version = r.u32();
  ADAFL_CHECK_MSG(r.remaining() == 0, "hello: trailing bytes");
  return version;
}

std::vector<std::uint8_t> encode_welcome(const WelcomeInfo& w) {
  std::vector<std::uint8_t> out;
  bytes::put_u32(out, w.rounds);
  bytes::put_u64(out, w.param_count);
  const core::AdaFlParams& p = w.params;
  bytes::put_u8(out, static_cast<std::uint8_t>(p.utility.metric));
  bytes::put_f64(out, p.utility.w_sim);
  bytes::put_f64(out, p.utility.w_bw);
  bytes::put_f64(out, p.utility.bw_ref);
  bytes::put_f64(out, p.tau);
  bytes::put_u32(out, static_cast<std::uint32_t>(p.max_selected));
  bytes::put_f64(out, p.compression.ratio_min);
  bytes::put_f64(out, p.compression.ratio_max);
  bytes::put_u32(out, static_cast<std::uint32_t>(p.compression.warmup_rounds));
  bytes::put_f64(out, p.compression.shaping);
  bytes::put_f64(out, p.dgc.ratio);
  bytes::put_f32(out, p.dgc.momentum);
  bytes::put_f64(out, p.dgc.clip_norm);
  bytes::put_u8(out, p.dgc.momentum_correction ? 1 : 0);
  bytes::put_u8(out, p.dgc.warm_up_dense ? 1 : 0);
  bytes::put_u8(out, p.accumulate_unselected ? 1 : 0);
  bytes::put_u32(out, static_cast<std::uint32_t>(p.max_consecutive_skips));
  bytes::put_u8(out, p.server_trust_clip ? 1 : 0);
  bytes::put_u32(out, static_cast<std::uint32_t>(p.agg_group));
  bytes::put_u32(out, static_cast<std::uint32_t>(w.config.size()));
  for (const auto& [k, v] : w.config) {
    bytes::put_str(out, k);
    bytes::put_str(out, v);
  }
  return out;
}

WelcomeInfo parse_welcome(std::span<const std::uint8_t> payload) {
  bytes::Reader r(payload);
  WelcomeInfo w;
  w.rounds = r.u32();
  w.param_count = r.u64();
  const std::uint8_t metric = r.u8();
  ADAFL_CHECK_MSG(
      metric <= static_cast<std::uint8_t>(core::SimilarityMetric::kEuclideanKernel),
      "welcome: unknown similarity metric " << int(metric));
  core::AdaFlParams& p = w.params;
  p.utility.metric = static_cast<core::SimilarityMetric>(metric);
  p.utility.w_sim = r.f64();
  p.utility.w_bw = r.f64();
  p.utility.bw_ref = r.f64();
  p.tau = r.f64();
  p.max_selected = static_cast<int>(r.u32());
  p.compression.ratio_min = r.f64();
  p.compression.ratio_max = r.f64();
  p.compression.warmup_rounds = static_cast<int>(r.u32());
  p.compression.shaping = r.f64();
  p.dgc.ratio = r.f64();
  p.dgc.momentum = r.f32();
  p.dgc.clip_norm = r.f64();
  p.dgc.momentum_correction = r.u8() != 0;
  p.dgc.warm_up_dense = r.u8() != 0;
  p.accumulate_unselected = r.u8() != 0;
  p.max_consecutive_skips = static_cast<int>(r.u32());
  p.server_trust_clip = r.u8() != 0;
  p.agg_group = static_cast<int>(r.u32());
  ADAFL_CHECK_MSG(p.agg_group >= 0, "welcome: negative agg_group");
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string k = r.str();
    w.config[std::move(k)] = r.str();
  }
  ADAFL_CHECK_MSG(r.remaining() == 0, "welcome: trailing bytes");
  return w;
}

std::vector<std::uint8_t> encode_model(const ModelPayload& m) {
  ADAFL_CHECK_MSG(m.global.size() == m.g_hat.size(),
                  "model: global/g_hat size mismatch");
  std::vector<std::uint8_t> out;
  out.reserve(8 + m.global.size() * 8);
  bytes::put_u64(out, m.global.size());
  for (float v : m.global) bytes::put_f32(out, v);
  for (float v : m.g_hat) bytes::put_f32(out, v);
  return out;
}

ModelPayload parse_model(std::span<const std::uint8_t> payload) {
  bytes::Reader r(payload);
  const std::uint64_t d = r.u64();
  // Bound d before the multiply: a forged d ~ 2^61 would wrap d * 8 modulo
  // 2^64 and sneak a tiny payload past the size check into resize(d).
  ADAFL_CHECK_MSG(d <= kMaxFramePayload / 8,
                  "model: dimension " << d << " exceeds frame bound");
  ADAFL_CHECK_MSG(r.remaining() == d * 8, "model: payload size mismatch");
  ModelPayload m;
  m.global.resize(d);
  m.g_hat.resize(d);
  for (auto& v : m.global) v = r.f32();
  for (auto& v : m.g_hat) v = r.f32();
  return m;
}

std::vector<std::uint8_t> encode_f64(double v) {
  std::vector<std::uint8_t> out;
  bytes::put_f64(out, v);
  return out;
}

double parse_f64(std::span<const std::uint8_t> payload) {
  bytes::Reader r(payload);
  const double v = r.f64();
  ADAFL_CHECK_MSG(r.remaining() == 0, "f64 payload: trailing bytes");
  return v;
}

double parse_score(std::span<const std::uint8_t> payload) {
  const double s = parse_f64(payload);
  ADAFL_CHECK_MSG(s >= 0.0 && s <= 1.0,
                  "score: utility score " << s << " out of [0,1]");
  return s;
}

std::vector<std::uint8_t> encode_update(const UpdatePayload& u) {
  std::vector<std::uint8_t> out, wire_scratch;
  encode_update_into(u, out, wire_scratch);
  return out;
}

void encode_update_into(const UpdatePayload& u, std::vector<std::uint8_t>& out,
                        std::vector<std::uint8_t>& wire_scratch) {
  out.clear();
  bytes::put_u64(out, static_cast<std::uint64_t>(u.num_examples));
  bytes::put_f32(out, u.mean_loss);
  bytes::put_f64(out, u.raw_delta_norm);
  compress::serialize_into(u.msg, wire_scratch);
  bytes::put_u32(out, static_cast<std::uint32_t>(wire_scratch.size()));
  out.insert(out.end(), wire_scratch.begin(), wire_scratch.end());
}

namespace {

/// Shared parse body: UpdatePayload and core::AdaFlDelivery carry the same
/// fields, and the server decodes straight into its per-client delivery slot.
template <typename UpdateLike>
void parse_update_fields(std::span<const std::uint8_t> payload,
                         UpdateLike& u) {
  bytes::Reader r(payload);
  u.num_examples = static_cast<std::int64_t>(r.u64());
  ADAFL_CHECK_MSG(u.num_examples > 0, "update: non-positive example count");
  u.mean_loss = r.f32();
  u.raw_delta_norm = r.f64();
  const std::uint32_t len = r.u32();
  ADAFL_CHECK_MSG(r.remaining() == len, "update: payload size mismatch");
  compress::deserialize_into(r.raw(len), u.msg);
}

}  // namespace

UpdatePayload parse_update(std::span<const std::uint8_t> payload) {
  UpdatePayload u;
  parse_update_into(payload, u);
  return u;
}

void parse_update_into(std::span<const std::uint8_t> payload,
                       UpdatePayload& u) {
  parse_update_fields(payload, u);
}

// --- Hierarchical aggregation codecs. ------------------------------------

std::vector<std::uint8_t> encode_relay_hello(const RelayHelloPayload& h) {
  std::vector<std::uint8_t> out;
  bytes::put_u32(out, h.version);
  bytes::put_u32(out, h.base);
  bytes::put_u32(out, h.count);
  return out;
}

RelayHelloPayload parse_relay_hello(std::span<const std::uint8_t> payload) {
  bytes::Reader r(payload);
  RelayHelloPayload h;
  h.version = r.u32();
  h.base = r.u32();
  h.count = r.u32();
  ADAFL_CHECK_MSG(r.remaining() == 0, "relay_hello: trailing bytes");
  ADAFL_CHECK_MSG(h.count > 0, "relay_hello: empty leaf range");
  return h;
}

std::vector<std::uint8_t> encode_update_agg(const UpdateAggPayload& a) {
  std::vector<std::uint8_t> out;
  bytes::put_u32(out, a.base);
  bytes::put_u32(out, a.count);
  bytes::put_u32(out, static_cast<std::uint32_t>(a.children.size()));
  for (const UpdateAggChild& c : a.children) {
    bytes::put_u32(out, c.id);
    bytes::put_u64(out, static_cast<std::uint64_t>(c.num_examples));
    bytes::put_f32(out, c.mean_loss);
    bytes::put_f64(out, c.raw_delta_norm);
    bytes::put_u64(out, static_cast<std::uint64_t>(c.wire_bytes));
  }
  std::vector<std::uint8_t> wire;
  compress::serialize_into(a.partial, wire);
  bytes::put_u32(out, static_cast<std::uint32_t>(wire.size()));
  out.insert(out.end(), wire.begin(), wire.end());
  return out;
}

UpdateAggPayload parse_update_agg(std::span<const std::uint8_t> payload) {
  bytes::Reader r(payload);
  UpdateAggPayload a;
  a.base = r.u32();
  a.count = r.u32();
  ADAFL_CHECK_MSG(a.count > 0, "update_agg: empty group");
  const std::uint32_t nc = r.u32();
  ADAFL_CHECK_MSG(nc >= 1 && nc <= a.count,
                  "update_agg: child count " << nc << " outside [1, "
                                             << a.count << "]");
  const std::uint64_t end =
      static_cast<std::uint64_t>(a.base) + a.count;
  a.children.resize(nc);
  for (std::uint32_t i = 0; i < nc; ++i) {
    UpdateAggChild& c = a.children[i];
    c.id = r.u32();
    ADAFL_CHECK_MSG(c.id >= a.base && c.id < end,
                    "update_agg: child id " << c.id << " outside group");
    ADAFL_CHECK_MSG(i == 0 || a.children[i - 1].id < c.id,
                    "update_agg: child ids not strictly ascending");
    c.num_examples = static_cast<std::int64_t>(r.u64());
    ADAFL_CHECK_MSG(c.num_examples > 0,
                    "update_agg: non-positive example count");
    c.mean_loss = r.f32();
    ADAFL_CHECK_MSG(std::isfinite(c.mean_loss),
                    "update_agg: non-finite mean loss");
    c.raw_delta_norm = r.f64();
    ADAFL_CHECK_MSG(std::isfinite(c.raw_delta_norm) && c.raw_delta_norm >= 0,
                    "update_agg: invalid raw delta norm");
    c.wire_bytes = static_cast<std::int64_t>(r.u64());
    ADAFL_CHECK_MSG(
        c.wire_bytes >= 0 &&
            c.wire_bytes <= static_cast<std::int64_t>(kMaxFramePayload),
        "update_agg: child wire size out of range");
  }
  const std::uint32_t plen = r.u32();
  ADAFL_CHECK_MSG(r.remaining() == plen, "update_agg: payload size mismatch");
  compress::deserialize_into(r.raw(plen), a.partial);
  ADAFL_CHECK_MSG(a.partial.kind == compress::CodecKind::kTopK,
                  "update_agg: partial is not top-k");
  ADAFL_CHECK_MSG(a.partial.indices.size() == a.partial.values.size(),
                  "update_agg: partial index/value count mismatch");
  for (std::size_t j = 0; j < a.partial.indices.size(); ++j) {
    ADAFL_CHECK_MSG(
        static_cast<std::int64_t>(a.partial.indices[j]) <
            a.partial.dense_size,
        "update_agg: partial index out of range");
    ADAFL_CHECK_MSG(
        j == 0 || a.partial.indices[j - 1] < a.partial.indices[j],
        "update_agg: partial indices not strictly ascending");
    ADAFL_CHECK_MSG(std::isfinite(a.partial.values[j]),
                    "update_agg: non-finite partial value");
  }
  return a;
}

void validate_update_agg(const UpdateAggPayload& a, std::int64_t dense_size,
                         int agg_group, int relay_base, int relay_count) {
  ADAFL_CHECK_MSG(agg_group > 0,
                  "update_agg: server has no aggregation grouping");
  ADAFL_CHECK_MSG(a.count == static_cast<std::uint32_t>(agg_group),
                  "update_agg: group size " << a.count << " != agg_group "
                                            << agg_group);
  ADAFL_CHECK_MSG(a.base % static_cast<std::uint32_t>(agg_group) == 0,
                  "update_agg: group base " << a.base << " not aligned");
  const auto lo = static_cast<std::int64_t>(a.base);
  const auto hi = lo + a.count;
  ADAFL_CHECK_MSG(lo >= relay_base &&
                      hi <= static_cast<std::int64_t>(relay_base) +
                                relay_count,
                  "update_agg: group outside the relay's claimed range");
  ADAFL_CHECK_MSG(a.partial.dense_size == dense_size,
                  "update_agg: partial dimension " << a.partial.dense_size
                                                   << " != " << dense_size);
}

// --- ServerSession. ------------------------------------------------------

ServerSession::ServerSession(ServerSessionConfig cfg, nn::ModelFactory factory,
                             const data::Dataset* test)
    : cfg_(std::move(cfg)),
      factory_(std::move(factory)),
      eval_(factory_(), test),
      core_(cfg_.params, eval_.weights()),
      face_(ServerFaceConfig{0, cfg_.expected_clients,
                             cfg_.retransmit_nudge}) {
  ADAFL_CHECK_MSG(cfg_.rounds > 0, "ServerSession: rounds must be positive");
  ADAFL_CHECK_MSG(cfg_.quorum >= 0 && cfg_.quorum <= cfg_.expected_clients,
                  "ServerSession: quorum out of range");
  ADAFL_CHECK_MSG(cfg_.params.agg_group >= 0,
                  "ServerSession: negative agg_group");
  const auto n = static_cast<std::size_t>(cfg_.expected_clients);
  ever_joined_.assign(n, false);
  pending_decode_.assign(n, 0);
  welcome_ = Frame{MsgType::kWelcome, 0, kServerId,
                   welcome_payload(cfg_, core_.global().size())};
}

std::vector<std::uint8_t> welcome_payload(const ServerSessionConfig& cfg,
                                          std::size_t param_count) {
  WelcomeInfo w;
  w.rounds = static_cast<std::uint32_t>(cfg.rounds);
  w.param_count = param_count;
  w.params = cfg.params;
  w.config = cfg.client_config;
  return encode_welcome(w);
}

void ServerSession::request_stop(bool write_checkpoint) {
  // Only atomic stores: safe to call from a POSIX signal handler.
  if (write_checkpoint) stop_save_.store(true, std::memory_order_relaxed);
  stop_.store(true, std::memory_order_release);
}

core::ServerCheckpoint ServerSession::checkpoint(
    int next_round, core::AdaFlServerCore::State snap) const {
  core::ServerCheckpoint ck;
  ck.producer = "deployed";
  ck.next_round = static_cast<std::uint32_t>(next_round);
  ck.total_rounds = static_cast<std::uint32_t>(cfg_.rounds);
  ck.config_crc = crc32(welcome_.payload);
  core::save_core_state(std::move(snap), ck);
  return ck;
}

void ServerSession::write_checkpoint(int next_round,
                                     core::AdaFlServerCore::State snap) {
  const core::ServerCheckpoint ck = checkpoint(next_round, std::move(snap));
  // Encode once: the byte image written to disk is the byte image every
  // standby receives, so wire and disk validation are the same code path.
  std::vector<std::uint8_t> image =
      core::encode_checkpoint_file_bytes(core::encode_server_checkpoint(ck));
  core::write_checkpoint_bytes_atomic(
      core::checkpoint_path(cfg_.checkpoint_dir), image);
  replicate_image_bytes_ = static_cast<std::int64_t>(image.size());
  replicate_ = Frame{MsgType::kReplicate, ck.next_round, kServerId,
                     replication::encode_replicate(
                         {ck.next_round, std::move(image)})};
  replicate_image_ = FrameImage{};
  // A copy: a failed send closes the standby, which erases it.
  for (const auto& [conn, slot] : std::map<ConnId, int>(standbys_))
    replicate_to(conn, slot);
}

void ServerSession::replicate_to(ConnId conn, int slot) {
  if (send(conn, replicate_, &replicate_image_) == 0) return;
  ++replicated_;
  if (cfg_.tracer != nullptr)
    cfg_.tracer->record(metrics::ev_replicate(
        static_cast<int>(replicate_.round), slot, replicate_image_bytes_,
        trace_now()));
}

void ServerSession::drop_all_connections(std::chrono::milliseconds flush) {
  standbys_.clear();
  carriers_.close_all(flush);
}

double ServerSession::trace_now() const {
  return std::chrono::duration<double>(Clock::now() - trace_t0_).count();
}

std::size_t ServerSession::send(ConnId conn, const Frame& f,
                                FrameImage* image) {
  if (!carriers_.send(conn, f, image)) {
    close(conn);
    return 0;
  }
  if (cfg_.tracer != nullptr && cfg_.tracer->enabled() &&
      standbys_.count(conn) == 0) {
    const ServerFace::Claim* b = face_.binding(conn);
    cfg_.tracer->record(metrics::ev_frame(
        metrics::TraceEventType::kFrameTx, static_cast<int>(f.round),
        b != nullptr && !b->range ? b->base : trace_client(f.client_id),
        to_string(f.type), static_cast<std::int64_t>(f.wire_size()),
        trace_now()));
  }
  return f.wire_size();
}

void ServerSession::close(ConnId conn) {
  standbys_.erase(conn);
  // A client's or relay's routes go, but its leaves' round debts stay: a
  // promoted standby re-binding the range can still recover the round;
  // unrecovered loss falls to the round deadline exactly as a flat client
  // crash does.
  face_.unbind(conn);
  carriers_.close(conn);
}

std::size_t ServerSession::send_to(int id, const Frame& f) {
  const ConnId conn = face_.route(id);
  if (conn == kNoConn) return 0;
  if (conn == face_.direct(id)) return send(conn, f);
  // Relay-covered leaf: the frame is addressed to the leaf (client_id
  // rewritten); the relay forwards it down.
  Frame rf = f;
  rf.client_id = static_cast<std::uint32_t>(id);
  return send(conn, rf);
}

void ServerSession::send_model(RoundCtx& rc, ConnId conn, int book_id,
                               bool resend) {
  if (rc.model_frame.payload.empty()) {  // the round's first MODEL send
    ModelPayload m;
    m.global = core_.global();
    m.g_hat = core_.g_hat();
    rc.model_frame = Frame{MsgType::kModel,
                           static_cast<std::uint32_t>(rc.round), kServerId,
                           encode_model(m)};
  }
  const std::size_t bytes = send(conn, rc.model_frame, &rc.model_image);
  if (bytes == 0) return;
  rc.ledger->record_download(book_id, static_cast<std::int64_t>(bytes));
  if (resend) {
    rc.ledger->record_retransmit(book_id, static_cast<std::int64_t>(bytes));
    if (cfg_.tracer != nullptr && cfg_.tracer->enabled())
      cfg_.tracer->record(metrics::ev_retransmit(
          rc.round, book_id, static_cast<std::int64_t>(bytes), trace_now()));
  }
}

void ServerSession::send_select(RoundCtx& rc, int id, bool resend) {
  const std::size_t sent = send_to(
      id, Frame{MsgType::kSelect, static_cast<std::uint32_t>(rc.round),
                kServerId, encode_f64(face_.ratio(id))});
  if (sent == 0 || !resend) return;
  rc.ledger->record_retransmit(id, static_cast<std::int64_t>(sent));
  if (cfg_.tracer != nullptr && cfg_.tracer->enabled())
    cfg_.tracer->record(metrics::ev_retransmit(
        rc.round, id, static_cast<std::int64_t>(sent), trace_now()));
}

void ServerSession::send_queued(RoundCtx& rc) {
  for (const ServerFace::Send& s : face_.take_sends()) {
    switch (s.kind) {
      case ServerFace::Kind::kWelcome:
        send(s.conn, welcome_, &welcome_image_);
        break;
      case ServerFace::Kind::kModel:
        send_model(rc, s.conn, s.leaf, s.resend);
        break;
      case ServerFace::Kind::kSelect:
        send_select(rc, s.leaf, s.resend);
        break;
    }
  }
}

void ServerSession::handle_relay_frame(RoundCtx& rc, ConnId conn,
                                       const Frame& f) {
  const ServerFace::Claim relay = *face_.binding(conn);
  const int id = static_cast<int>(f.client_id);
  if (f.type == MsgType::kScore || f.type == MsgType::kHello ||
      f.type == MsgType::kChildGone) {
    ADAFL_CHECK_MSG(relay.covers(f.client_id),
                    "session: relayed " << to_string(f.type) << " for leaf "
                                        << f.client_id << " out of range");
  }
  switch (f.type) {
    case MsgType::kUpdateAgg:
      handle_update_agg(rc, relay, f);
      return;
    case MsgType::kScore:
      face_.set_alive(id, true);  // proof of life
      handle_frame(rc, id, f);
      return;
    case MsgType::kHello: {
      // A leaf joined (or rejoined) behind the relay. The relay serves
      // WELCOME/MODEL locally; the root tracks liveness and re-sends the
      // SELECT the leaf owes through the route.
      const bool rejoin = ever_joined_[static_cast<std::size_t>(id)];
      ever_joined_[static_cast<std::size_t>(id)] = true;
      if (rejoin) {
        rc.ledger->record_reconnect(id);
        if (cfg_.tracer != nullptr && cfg_.tracer->enabled())
          cfg_.tracer->record(
              metrics::ev_reconnect(rc.round, id, trace_now()));
      }
      face_.announce(id);
      send_queued(rc);
      return;
    }
    case MsgType::kChildGone:
      face_.set_alive(id, false);
      return;
    case MsgType::kPing:
      send(conn, Frame{MsgType::kPong, f.round, kServerId, {}});
      return;
    default:
      return;  // PONG, duplicates, unexpected types: ignore
  }
}

void ServerSession::handle_update_agg(RoundCtx& rc,
                                      const ServerFace::Claim& relay,
                                      const Frame& f) {
  if (face_.phase() != ServerFace::Phase::kUpdate ||
      f.round != static_cast<std::uint32_t>(rc.round))
    return;  // stale
  UpdateAggPayload a = parse_update_agg(f.payload);
  validate_update_agg(a, static_cast<std::int64_t>(core_.global().size()),
                      cfg_.params.agg_group, relay.base, relay.count);
  const int base = static_cast<int>(a.base);
  const bool upgrade = rc.wire_partials.count(base) != 0;
  if (upgrade) {
    // A group can be legitimately re-shipped with MORE children: the relay
    // flushed without a crashed leaf, the leaf rejoined in-round, and the
    // rebuilt AGG supersedes the committed one. The replacement must cover
    // every previously-committed child (the partial is the whole group's
    // sum) and strictly extend it; anything else is a nudge duplicate —
    // first one won.
    std::set<int> listed;
    for (const UpdateAggChild& c : a.children)
      listed.insert(static_cast<int>(c.id));
    int prev_children = 0;
    bool covers_prev = true;
    for (int id = base; id < base + cfg_.params.agg_group; ++id)
      if (face_.delivered(id)) {
        ++prev_children;
        covers_prev = covers_prev && listed.count(id) != 0;
      }
    if (!covers_prev ||
        static_cast<int>(a.children.size()) <= prev_children)
      return;
  }
  for (const UpdateAggChild& c : a.children) {
    const int id = static_cast<int>(c.id);
    ADAFL_CHECK_MSG(face_.selected(id),
                    "session: UPDATE-AGG lists unselected leaf " << id);
    if (upgrade && face_.delivered(id)) {
      // Re-listed child of the superseded AGG: only valid over a
      // metadata-only slot (a relay cannot claim a direct delivery).
      ADAFL_CHECK_MSG(
          delivery_slots_[static_cast<std::size_t>(id)].meta_only,
          "session: UPDATE-AGG re-lists directly-delivered leaf " << id);
      continue;
    }
    ADAFL_CHECK_MSG(!face_.delivered(id),
                    "session: UPDATE-AGG lists already-delivered leaf "
                        << id);
  }
  // Commit: a metadata-only delivery per listed leaf — the coordinates
  // travel pre-summed in the group partial, which apply_round merges in the
  // identical ascending-group order a flat run with the same agg_group uses.
  for (const UpdateAggChild& c : a.children) {
    const int id = static_cast<int>(c.id);
    const bool fresh = !face_.delivered(id);
    core::AdaFlDelivery& dl = delivery_slots_[static_cast<std::size_t>(id)];
    dl.msg.kind = compress::CodecKind::kTopK;
    dl.msg.dense_size = static_cast<std::int64_t>(core_.global().size());
    dl.msg.wire_bytes = c.wire_bytes;
    dl.msg.indices.clear();
    dl.msg.values.clear();
    dl.msg.levels.clear();
    dl.num_examples = c.num_examples;
    dl.mean_loss = c.mean_loss;
    dl.raw_delta_norm = c.raw_delta_norm;
    dl.meta_only = true;
    if (fresh) {
      face_.deliver(id);
      rc.ledger->record_upload(id, c.wire_bytes, true);
    }
    face_.set_alive(id, true);
  }
  rc.wire_partials[base] = std::move(a.partial);
}

void ServerSession::handle_frame(RoundCtx& rc, int id, const Frame& f) {
  switch (f.type) {
    case MsgType::kScore:
      if (face_.phase() != ServerFace::Phase::kScore ||
          f.round != static_cast<std::uint32_t>(rc.round) || face_.scored(id))
        return;  // stale or duplicate
      rc.scores[static_cast<std::size_t>(id)] = parse_score(f.payload);
      face_.score(id);
      return;
    case MsgType::kPing:
      send_to(id, Frame{MsgType::kPong, f.round, kServerId, {}});
      return;
    default:
      return;  // PONG, duplicate HELLO, unexpected types: ignore
  }
}

bool ServerSession::service(RoundCtx& rc) {
  carriers_.poll(frame_batch_);
  const bool progress = !frame_batch_.empty();
  if (progress) dispatch(rc);
  frame_batch_.clear();  // frees the payloads before the idle wait
  // Closed connections are reaped after their last frames were handled.
  for (const ConnId conn : carriers_.take_gone()) close(conn);
  return progress;
}

void ServerSession::dispatch(RoundCtx& rc) {
  const bool traced = cfg_.tracer != nullptr && cfg_.tracer->enabled();
  const auto trace_rx = [&](const Frame& f, int id) {
    cfg_.tracer->record(metrics::ev_frame(
        metrics::TraceEventType::kFrameRx, static_cast<int>(f.round), id,
        to_string(f.type), static_cast<std::int64_t>(f.wire_size()),
        trace_now()));
  };

  // Pass 1 (sequential, arrival order): dispatch-latency metric, standby
  // PINGs, handshakes, and every non-UPDATE frame. Aggregatable UPDATE
  // frames only get collected as decode jobs — one per client at most
  // (pending_decode_), so every job owns a disjoint delivery slot.
  decode_jobs_.clear();
  const auto drained_at = Clock::now();
  for (std::size_t i = 0; i < frame_batch_.size(); ++i) {
    InFrame& inf = frame_batch_[i];
    const Frame& f = inf.frame;
    if (dispatch_hist_ != nullptr && inf.conn < Carriers::kPumpedBase)
      dispatch_hist_->observe(
          std::chrono::duration<double, std::milli>(drained_at - inf.enqueued)
              .count());
    if (!carriers_.open(inf.conn)) continue;  // closed earlier in this pass
    if (standbys_.count(inf.conn) != 0) {
      // Replication is one-way; a PING renews the standby's lease.
      if (f.type == MsgType::kPing)
        send(inf.conn, Frame{MsgType::kPong, 0, kServerId, {}});
      continue;
    }
    const ServerFace::Claim* bound = face_.binding(inf.conn);
    if (bound == nullptr) {
      handshake(rc, inf.conn, f);
    } else if (bound->range) {
      if (traced) trace_rx(f, trace_client(f.client_id));
      try {
        handle_relay_frame(rc, inf.conn, f);
      } catch (const CheckError&) {
        close(inf.conn);  // hostile relay: drop the whole binding
      }
    } else {
      const int id = bound->base;
      if (traced) trace_rx(f, id);
      if (f.type != MsgType::kUpdate) {
        try {
          handle_frame(rc, id, f);
        } catch (const CheckError&) {
          close(inf.conn);  // bad payload: drop, round degrades
        }
      } else if (f.round == static_cast<std::uint32_t>(rc.round) &&
                 face_.owes_update(id) &&
                 !pending_decode_[static_cast<std::size_t>(id)]) {
        pending_decode_[static_cast<std::size_t>(id)] = 1;
        decode_jobs_.push_back(DecodeJob{i, id});
      }  // else a stale or duplicate UPDATE: ignored
    }
  }
  if (decode_jobs_.empty()) return;

  // Pass 2 (parallel): decode every collected UPDATE straight into its
  // client's private delivery slot. Jobs touch disjoint slots and no shared
  // state; CheckError is captured per job — never thrown across the worker
  // pool. A slot is only marked delivered in pass 3, so a partial decode
  // cannot be aggregated.
  decode_ok_.assign(decode_jobs_.size(), 0);
  const auto jn = static_cast<std::int64_t>(decode_jobs_.size());
  core::parallel_for_blocked(0, jn, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t j = lo; j < hi; ++j) {
      const DecodeJob& job = decode_jobs_[static_cast<std::size_t>(j)];
      core::AdaFlDelivery& dl =
          delivery_slots_[static_cast<std::size_t>(job.client)];
      try {
        parse_update_fields(frame_batch_[job.batch_index].frame.payload, dl);
        dl.meta_only = false;  // reused slot may hold stale relay metadata
        // Reject protocol-valid-but-wrong updates here: the offending peer
        // is dropped and the round degrades. deserialize() already bounds
        // top-k indices by dense_size, so past these two checks
        // apply_round cannot throw on this delivery.
        ADAFL_CHECK_MSG(dl.msg.kind == compress::CodecKind::kTopK,
                        "session: UPDATE from client "
                            << job.client << " carries a non-top-k message");
        ADAFL_CHECK_MSG(
            dl.msg.dense_size ==
                static_cast<std::int64_t>(core_.global().size()),
            "session: UPDATE from client " << job.client
                                           << " dimension mismatch");
        decode_ok_[static_cast<std::size_t>(j)] = 1;
      } catch (const CheckError&) {
        // leave decode_ok_ 0; the offender is dropped below
      }
    }
  });

  // Pass 3 (sequential, batch order): commit decode results.
  for (std::size_t j = 0; j < decode_jobs_.size(); ++j) {
    const DecodeJob& job = decode_jobs_[j];
    const InFrame& inf = frame_batch_[job.batch_index];
    pending_decode_[static_cast<std::size_t>(job.client)] = 0;
    if (!decode_ok_[j]) {
      close(inf.conn);
      continue;
    }
    face_.deliver(job.client);
    rc.ledger->record_upload(
        job.client, static_cast<std::int64_t>(inf.frame.wire_size()), true);
  }
}

void ServerSession::handshake(RoundCtx& rc, ConnId conn, const Frame& f) {
  ServerFace::Claim claim;
  try {
    if (f.type == MsgType::kStandbyHello) {
      ADAFL_CHECK_MSG(parse_hello(f.payload) == kProtocolVersion,
                      "session: standby protocol version mismatch");
    } else {
      claim = face_.check_hello(f, cfg_.params.agg_group);
    }
  } catch (const CheckError&) {
    close(conn);  // bad handshake or invalid claim: drop
    return;
  }

  if (f.type == MsgType::kStandbyHello) {
    // A replication peer, not a client. A late one is seeded with the
    // newest checkpoint at once, not blind until the next round boundary.
    const int slot = standbys_attached_++;
    standbys_.emplace(conn, slot);
    if (!replicate_.payload.empty()) replicate_to(conn, slot);
    return;
  }
  const int id = claim.range ? -1 : claim.base;
  const bool traced = cfg_.tracer != nullptr && cfg_.tracer->enabled();
  if (traced)
    cfg_.tracer->record(metrics::ev_frame(
        metrics::TraceEventType::kFrameRx, static_cast<int>(f.round), id,
        to_string(f.type), static_cast<std::int64_t>(f.wire_size()),
        trace_now()));
  if (!claim.range) {
    if (ever_joined_[static_cast<std::size_t>(id)]) {
      rc.ledger->record_reconnect(id);
      if (traced)
        cfg_.tracer->record(metrics::ev_reconnect(rc.round, id, trace_now()));
    }
    ever_joined_[static_cast<std::size_t>(id)] = true;
  }
  // A redialed client, relay or promoted standby relay replaces the
  // bindings it supersedes. A relay caches WELCOME verbatim for its
  // children and re-broadcasts the round's MODEL to its subtree.
  for (const ConnId old : face_.bind(conn, claim)) close(old);
  send_queued(rc);
}

fl::TrainLog ServerSession::run() {
  const int n = cfg_.expected_clients;
  const int quorum = cfg_.quorum > 0 ? cfg_.quorum : n;
  const std::size_t d = core_.global().size();
  const bool ckpt = !cfg_.checkpoint_dir.empty();

  fl::TrainLog log;
  log.dense_update_bytes = fl::dense_update_bytes(d);
  const auto t0 = Clock::now();
  trace_t0_ = t0;

  metrics::Tracer* const tracer = cfg_.tracer;
  const bool traced = tracer != nullptr && tracer->enabled();
  core_.set_tracer(traced ? tracer : nullptr);

  metrics::Histogram* const round_hist =
      cfg_.registry != nullptr
          ? &cfg_.registry->histogram("server.round_latency_ms")
          : nullptr;
  dispatch_hist_ = (cfg_.registry != nullptr && carriers_.has_loop())
                       ? &cfg_.registry->histogram("server.frame_dispatch_ms")
                       : nullptr;
  carriers_.start();

  int start_round = 1;
  if (cfg_.resume) {
    ADAFL_CHECK_MSG(ckpt, "ServerSession: resume requires a checkpoint dir");
    start_round = static_cast<int>(
        core::resume_checkpoint(core::checkpoint_path(cfg_.checkpoint_dir),
                                checkpoint(1, core_.state()),
                                [this](core::ServerCheckpoint& ck) {
                                  core_.restore(core::take_core_state(ck));
                                })
            .next_round);
    resumed_from_ = start_round;
    log.ledger.record_recovery();
    if (traced) {
      tracer->set_start_round(start_round);
      tracer->record(metrics::ev_resume(start_round, trace_now()));
    }
  }

  // Early-stop path (request_stop): persist the round boundary we stopped
  // at — the interrupted round replays on --resume — and drop every peer
  // abruptly, exactly as a crash would.
  auto stop_now = [&](int next_round,
                      const core::AdaFlServerCore::State& snap) {
    if (traced) tracer->flush();  // durable before the checkpoint exists
    if (ckpt && stop_save_.load(std::memory_order_relaxed))
      write_checkpoint(next_round, snap);
    log.interrupted = true;
    drop_all_connections(std::chrono::milliseconds(0));
    log.applied_updates = core_.stats().selected_updates;
    log.total_time = std::chrono::duration<double>(Clock::now() - t0).count();
  };

  for (int round = start_round; round <= cfg_.rounds; ++round) {
    if (stop_.load(std::memory_order_acquire)) {
      stop_now(round, core_.state());
      return log;
    }
    // Boundary snapshot: plan_round mutates selection stats before
    // apply_round commits the round, so a stop mid-round must persist the
    // state as of the round START, never a half-planned hybrid.
    const core::AdaFlServerCore::State round_start = core_.state();
    const auto round_t0 = Clock::now();

    if (traced) tracer->record(metrics::ev_round_start(round, trace_now()));

    RoundCtx rc;
    rc.round = round;
    rc.scores.assign(static_cast<std::size_t>(n), 0.0);
    rc.ledger = &log.ledger;
    delivery_slots_.resize(static_cast<std::size_t>(n));

    // Whole-round cap (both phases share it); disabled when 0. A client
    // that scores and then dies can otherwise pin the round to the full
    // per-phase deadline twice over.
    const auto round_deadline_at =
        cfg_.round_total_deadline.count() > 0
            ? Clock::now() + cfg_.round_total_deadline
            : Clock::time_point::max();

    // --- Broadcast the round's model to everyone attached: each direct
    // client gets its own MODEL; each relay gets one, which it re-serves to
    // its whole subtree.
    face_.begin_round(round);
    send_queued(rc);

    // --- Score phase: wait until every live client scored, or the deadline
    // passed with at least a quorum. Late joiners are serviced throughout.
    // A relay connection counts as its live leaves, never as one client.
    auto deadline = Clock::now() + cfg_.round_deadline;
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) break;
      const bool progress = service(rc);
      const int scored = static_cast<int>(std::count(
          face_.scored_flags().begin(), face_.scored_flags().end(), true));
      int live = 0;
      for (int id = 0; id < n; ++id)
        if (face_.live(id)) ++live;
      if (scored >= quorum &&
          (scored >= live || Clock::now() >= deadline ||
           Clock::now() >= round_deadline_at))
        break;
      face_.poll();  // the retransmit nudge, when due
      send_queued(rc);
      if (!progress) carriers_.wait(cfg_.idle_poll);
    }
    if (stop_.load(std::memory_order_acquire)) {
      stop_now(round, round_start);
      return log;
    }

    // --- Selection + ratio assignment (shared AdaFL server core).
    const core::AdaFlRoundPlan plan =
        core_.plan_round(rc.scores, face_.scored_flags(), round);

    face_.close_scores();
    for (std::size_t j = 0; j < plan.sel.selected.size(); ++j) {
      face_.select(plan.sel.selected[j], plan.ratios[j]);
      send_select(rc, plan.sel.selected[j], /*resend=*/false);
    }
    for (int id = 0; id < n; ++id) {
      if (!face_.scored(id) || face_.selected(id)) continue;
      send_to(id, Frame{MsgType::kSkip, static_cast<std::uint32_t>(round),
                        kServerId, {}});
    }

    // --- Update phase: aggregate what arrives by the deadline.
    deadline = Clock::now() + cfg_.round_deadline;
    const int owed = static_cast<int>(plan.sel.selected.size());
    while (face_.delivered_count() < owed && Clock::now() < deadline &&
           Clock::now() < round_deadline_at) {
      if (stop_.load(std::memory_order_acquire)) break;
      const bool progress = service(rc);
      face_.poll();
      send_queued(rc);
      if (!progress) carriers_.wait(cfg_.idle_poll);
    }
    if (stop_.load(std::memory_order_acquire)) {
      stop_now(round, round_start);  // the interrupted round replays
      return log;
    }

    core::AdaFlRoundOutcome out;
    {
      metrics::PhaseScope prof("aggregate");
      const auto find = [this](int id) -> const core::AdaFlDelivery* {
        return face_.delivered(id)
                   ? &delivery_slots_[static_cast<std::size_t>(id)]
                   : nullptr;
      };
      if (cfg_.params.agg_group > 0) {
        out = core_.apply_round(
            plan, find,
            [&rc](int gbase) -> const compress::EncodedGradient* {
              const auto it = rc.wire_partials.find(gbase);
              return it == rc.wire_partials.end() ? nullptr : &it->second;
            });
      } else {
        out = core_.apply_round(plan, find);
      }
    }

    // The trace is flushed BEFORE the checkpoint below: the stitched
    // crash-recovery trace relies on the file always covering at least the
    // rounds the checkpoint says are done.
    eval_.end_round(log, core_.global(), round, trace_now(), out.delivered,
                    out.loss_sum,
                    round % cfg_.eval_every == 0 || round == cfg_.rounds,
                    tracer);

    if (round_hist != nullptr)
      round_hist->observe(
          std::chrono::duration<double, std::milli>(Clock::now() - round_t0)
              .count());

    // --- Durable progress: the round is committed, persist it.
    if (ckpt &&
        (round % cfg_.checkpoint_every == 0 || round == cfg_.rounds)) {
      write_checkpoint(round + 1, core_.state());
      if (traced)
        tracer->record(metrics::ev_checkpoint(
            round, core::checkpoint_path(cfg_.checkpoint_dir), trace_now()));
    }
  }

  // --- Orderly shutdown: tell everyone training is over — one SHUTDOWN per
  // direct client and per relay, which broadcasts it to its subtree.
  // Standbys stand down on a completed run — SIGKILL never reaches this,
  // which is exactly when promotion is wanted.
  std::vector<ConnId> conns = face_.conns();
  for (const auto& [conn, slot] : standbys_) conns.push_back(conn);
  const Frame sd{MsgType::kShutdown, 0, kServerId, {}};
  FrameImage sd_image;
  for (const ConnId conn : conns) send(conn, sd, &sd_image);
  drop_all_connections(std::chrono::milliseconds(2000));

  if (traced) tracer->flush();
  core_.set_tracer(nullptr);
  log.applied_updates = core_.stats().selected_updates;
  log.total_time = std::chrono::duration<double>(Clock::now() - t0).count();
  return log;
}

// --- ClientSession. ------------------------------------------------------

namespace {

UpstreamLink::DialFn single_endpoint(ClientSession::DialFn dial) {
  if (dial == nullptr) return nullptr;
  return [d = std::move(dial)](std::size_t) { return d(); };
}

}  // namespace

ClientSession::ClientSession(ClientSessionConfig cfg, DialFn dial,
                             BootstrapFn bootstrap)
    : ClientSession(std::move(cfg), single_endpoint(std::move(dial)), 1,
                    std::move(bootstrap)) {}

ClientSession::ClientSession(ClientSessionConfig cfg, IndexedDialFn dial,
                             std::size_t endpoint_count,
                             BootstrapFn bootstrap)
    : cfg_(std::move(cfg)),
      dial_(std::move(dial)),
      endpoint_count_(endpoint_count),
      bootstrap_(std::move(bootstrap)) {
  ADAFL_CHECK_MSG(cfg_.client_id >= 0, "ClientSession: negative client id");
  ADAFL_CHECK_MSG(dial_ != nullptr && bootstrap_ != nullptr,
                  "ClientSession: null callback");
  ADAFL_CHECK_MSG(endpoint_count_ >= 1,
                  "ClientSession: empty endpoint list");
}

ClientRunStats ClientSession::run() {
  UpstreamLinkConfig lcfg;
  lcfg.heartbeat_interval = cfg_.heartbeat_interval;
  lcfg.liveness_timeout = cfg_.liveness_timeout;
  lcfg.backoff = cfg_.backoff;
  lcfg.self_id = static_cast<std::uint32_t>(cfg_.client_id);
  lcfg.tracer = cfg_.tracer;
  UpstreamLink link(lcfg, dial_, endpoint_count_);
  ClientProtocol proto(cfg_.client_id, bootstrap_);

  ClientRunStats st;
  for (;;) {
    if (link.connected()) {
      if (const std::optional<Frame> f = link.recv(cfg_.recv_poll)) {
        ClientProtocol::Step step;
        try {
          step = proto.handle(*f);
        } catch (const CheckError&) {
          // Malformed server payload: redial and resync. Training state
          // survives, so it costs a reconnect, not the session.
          link.close();
          continue;
        }
        if (step.reply) link.send(*step.reply);
        if (step.outcome == ClientProtocol::Outcome::kRoundDone) {
          link.round_done(static_cast<int>(f->round));
        } else if (step.outcome == ClientProtocol::Outcome::kShutdown) {
          st.completed = true;
          link.close();
          break;
        }
        continue;
      }
    }
    const UpstreamLink::Event ev = link.poll();
    if (ev == UpstreamLink::Event::kGaveUp) break;
    if (ev == UpstreamLink::Event::kConnected)
      link.send(proto.hello());
    else if (!link.connected())
      std::this_thread::sleep_until(link.next_poll());
  }
  st.reconnects = link.reconnects();
  st.endpoint_rotations = link.rotations();
  st.rounds_trained = proto.rounds_trained();
  st.updates_sent = proto.updates_sent();
  st.skips = proto.skips();
  if (cfg_.tracer != nullptr && cfg_.tracer->enabled()) cfg_.tracer->flush();
  return st;
}

}  // namespace adafl::net::transport
