// Deployed FL session protocol: the AdaFL round loop over a real transport.
//
// One server (ServerSession) drives AdaFL rounds against N remote clients
// (ClientSession), speaking framed messages (frame.h) whose payloads wrap
// the byte-exact compress::wire encoding. The server-side round logic is
// core::AdaFlServerCore — the same state machine the in-process simulator
// uses — so a deployed run with the same seed/config produces bitwise
// identical global weights to AdaFlSyncTrainer (asserted by
// tests/test_session.cpp and the CI loopback smoke job).
//
// Round protocol (round r):
//   server -> client  MODEL(r)    global weights + g_hat
//   client -> server  SCORE(r)    utility score (trained locally)
//   server -> client  SELECT(r)   compression ratio   (chosen clients)
//                     SKIP(r)                         (everyone else)
//   client -> server  UPDATE(r)   compressed sparse update
//
// Resilience: the server never blocks on a single peer — it polls all
// connections, finishes the score phase once a quorum has reported (waiting
// for stragglers only until the round deadline), and aggregates whatever
// updates arrive by the deadline. A client that vanishes mid-round degrades
// the round; when it redials (HELLO again) the server re-sends the in-round
// state (MODEL or SELECT) and books the overhead as retransmitted bytes.
// Routes, round debts, that catch-up and the retransmit nudge are
// ServerFace's (server_face.h), which relays run toward their children too.
//
// Client side: ClientSession only moves frames between two I/O-free parts,
// each the sole implementation of its job: ClientProtocol
// (client_protocol.h), the round handlers flswarm runs too, and
// UpstreamLink (upstream_link.h), the redial policy, heartbeat and liveness
// that relays and hot standbys dial their upstream with too.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/adafl_server.h"
#include "fl/client.h"
#include "fl/trainer_common.h"
#include "fl/types.h"
#include "net/transport/carriers.h"
#include "net/transport/server_face.h"
#include "net/transport/tcp.h"
#include "net/transport/transport.h"

namespace adafl::metrics {
class Registry;
class Histogram;
}

namespace adafl::net::transport {

/// Protocol version carried in HELLO; bumped on incompatible changes.
constexpr std::uint32_t kProtocolVersion = 1;

// --- Message payload codecs (exposed for tests and scripted peers). ------

/// WELCOME: run configuration a joining client needs.
struct WelcomeInfo {
  std::uint32_t rounds = 0;
  std::uint64_t param_count = 0;
  core::AdaFlParams params;  ///< must match the server's exactly
  /// Opaque key/value config (task spec, hyperparameters) interpreted by the
  /// client's bootstrap callback.
  std::map<std::string, std::string> config;
};

std::vector<std::uint8_t> encode_hello(std::uint32_t protocol_version);
std::uint32_t parse_hello(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_welcome(const WelcomeInfo& w);
WelcomeInfo parse_welcome(std::span<const std::uint8_t> payload);

/// MODEL: the global weights and the similarity reference g_hat.
struct ModelPayload {
  std::vector<float> global;
  std::vector<float> g_hat;
};

std::vector<std::uint8_t> encode_model(const ModelPayload& m);
ModelPayload parse_model(std::span<const std::uint8_t> payload);

/// SCORE and SELECT carry one f64 (utility score / compression ratio).
std::vector<std::uint8_t> encode_f64(double v);
double parse_f64(std::span<const std::uint8_t> payload);
/// A SCORE payload: parse_f64, then CheckError unless 0 <= score <= 1 (NaN
/// included).
double parse_score(std::span<const std::uint8_t> payload);

/// UPDATE: the compressed model update plus its aggregation metadata.
struct UpdatePayload {
  compress::EncodedGradient msg;
  std::int64_t num_examples = 0;
  float mean_loss = 0.0f;
  double raw_delta_norm = 0.0;  ///< trust-region input (L2 of the raw delta)
};

std::vector<std::uint8_t> encode_update(const UpdatePayload& u);
/// encode_update into a caller-owned buffer, staging the wire encoding in
/// `wire_scratch`; both reuse their capacity across rounds.
void encode_update_into(const UpdatePayload& u, std::vector<std::uint8_t>& out,
                        std::vector<std::uint8_t>& wire_scratch);
UpdatePayload parse_update(std::span<const std::uint8_t> payload);
/// parse_update into a reused payload (compress::deserialize_into
/// semantics: every field reset, vector capacity kept).
void parse_update_into(std::span<const std::uint8_t> payload, UpdatePayload& u);

// --- Hierarchical aggregation (mid-tier relays; src/net/relay/). ---------

/// RELAY_HELLO: a mid-tier aggregator joins its parent, claiming the leaf
/// client-id range [base, base + count). The range must be aligned to the
/// run's AdaFlParams::agg_group.
struct RelayHelloPayload {
  std::uint32_t version = 0;
  std::uint32_t base = 0;
  std::uint32_t count = 0;
};

std::vector<std::uint8_t> encode_relay_hello(const RelayHelloPayload& h);
RelayHelloPayload parse_relay_hello(std::span<const std::uint8_t> payload);

/// One leaf client's metadata inside an UPDATE-AGG (everything the root
/// needs to score, trust-clip, and trace the leaf as if it had uploaded
/// directly — the coordinates travel pre-summed in the group partial).
struct UpdateAggChild {
  std::uint32_t id = 0;
  std::int64_t num_examples = 0;
  float mean_loss = 0.0f;
  double raw_delta_norm = 0.0;
  /// Codec-level serialized size of the leaf's original update, so the
  /// root's update_delivered trace row matches a flat run byte for byte.
  std::int64_t wire_bytes = 0;
};

/// UPDATE-AGG: one aggregation group's pre-summed partial. `children` lists
/// the leaves whose updates are inside `partial`, strictly ascending, all
/// within [base, base + count).
struct UpdateAggPayload {
  std::uint32_t base = 0;
  std::uint32_t count = 0;
  std::vector<UpdateAggChild> children;
  compress::EncodedGradient partial;  ///< kTopK, lossless fp32 on the wire
};

std::vector<std::uint8_t> encode_update_agg(const UpdateAggPayload& a);
/// Structural parse + hostile-input validation (counts, ranges, ordering,
/// finiteness). Throws CheckError on anything malformed; the caller must
/// drop the sending connection.
UpdateAggPayload parse_update_agg(std::span<const std::uint8_t> payload);
/// Root-side semantic validation of a parsed UPDATE-AGG against the run
/// configuration and the sending relay's claimed range. Throws CheckError.
void validate_update_agg(const UpdateAggPayload& a, std::int64_t dense_size,
                         int agg_group, int relay_base, int relay_count);

// --- Server side. --------------------------------------------------------

struct ServerSessionConfig {
  core::AdaFlParams params;
  int rounds = 3;
  int eval_every = 1;
  /// Fleet size; client ids must be in [0, expected_clients).
  int expected_clients = 0;
  /// Scores needed before a round may proceed past its deadline
  /// (0 = expected_clients). Liveness bound: with fewer than `quorum`
  /// clients reachable the server waits for rejoins instead of training on
  /// too little data.
  int quorum = 0;
  /// Per-phase deadline: after it expires the score phase proceeds with a
  /// quorum and the update phase aggregates what has arrived.
  std::chrono::milliseconds round_deadline{60000};
  /// Whole-round cap (score + update phases combined); 0 disables. In the
  /// score phase it takes effect only once a quorum has scored (cutting
  /// below quorum would change selection semantics, not just timing). Guards
  /// against a quorum-selected client dying between the score and update
  /// phases pinning a round to the full per-phase deadline twice over: on
  /// expiry the server aggregates what arrived, emits update_lost for the
  /// rest, and moves on.
  std::chrono::milliseconds round_total_deadline{0};
  /// Longest idle wait (Carriers::wait). Frames on signalling transports,
  /// arrivals and loop activity end it at once; it bounds only the round
  /// timers (deadlines, nudges), peers that cannot signal (TCP transports
  /// handed to add_transport(), FaultyTransport) and a request_stop().
  std::chrono::milliseconds idle_poll{20};
  /// Anti-wedge retransmission: while a phase is stalled (no frame
  /// processed), periodically re-send the pending frame — MODEL to
  /// connected clients that have not scored, SELECT to selected clients
  /// that have not uploaded. Recovers from frames lost in flight without
  /// waiting for the round deadline. This is the FIRST gap only: each
  /// firing doubles the gap until the phase ends (reset at the next
  /// phase), so retransmission traffic grows logarithmically with phase
  /// length instead of linearly — a fleet that is merely slow is not
  /// spammed into a resend storm. <= 0 disables; pointless over TCP
  /// (reliable stream + rejoin catch-up), essential over lossy UDP.
  std::chrono::milliseconds retransmit_nudge{2000};
  /// Opaque config forwarded to every client in WELCOME.
  std::map<std::string, std::string> client_config;

  // --- Crash recovery (see docs/deployment.md, "Crash recovery"). ---------
  /// When non-empty, write a durable checkpoint (core::ServerCheckpoint)
  /// into this directory every `checkpoint_every` completed rounds and on a
  /// graceful request_stop().
  std::string checkpoint_dir;
  /// Checkpoint cadence in rounds. 1 (every round) makes a kill + --resume
  /// bitwise identical to an uninterrupted run; larger values trade
  /// checkpoint I/O for re-executing up to N-1 rounds after a crash.
  int checkpoint_every = 1;
  /// Resume from checkpoint_dir instead of starting at round 1. Throws if
  /// no checkpoint exists or it was written under a different config.
  bool resume = false;

  /// Optional structured tracer (metrics/trace.h). The session forwards it
  /// to the shared core::AdaFlServerCore (semantic selection/delivery
  /// events, identical to the simulator's) and additionally emits
  /// deployed-only transport events: frame_tx/frame_rx per frame,
  /// retransmit for re-sent MODEL/SELECT frames, reconnect on rejoin.
  /// `t` fields carry wall-clock seconds since run() started. Not owned;
  /// must outlive run().
  metrics::Tracer* tracer = nullptr;

  /// Optional metrics registry. When set, the session records the
  /// "server.round_latency_ms" histogram (wall time per committed round)
  /// and — with an event loop attached — "server.frame_dispatch_ms"
  /// (enqueue on the loop thread to drain on the session thread, the p99
  /// of which is the scaling health metric). Not owned; must outlive run().
  metrics::Registry* registry = nullptr;
};

/// The WELCOME payload a session configured by `cfg` sends for a model of
/// `param_count` weights. Its CRC-32 is the run-configuration fingerprint
/// the session stamps into every checkpoint (ServerCheckpoint::config_crc):
/// a resume and a standby (StandbyConfig::expected_config_crc) check it.
std::vector<std::uint8_t> welcome_payload(const ServerSessionConfig& cfg,
                                          std::size_t param_count);

/// Runs the AdaFL server over any mix of carriers.
///
/// Peer model: every connection is a ConnId on Carriers (carriers.h), which
/// holds the loop carrier (an attached EventLoop's sockets) and the pumped
/// carrier (add_transport() transports) and feeds one frame batch per pass.
/// From there on nothing depends on the carrier: one handshake binds a
/// connection as a client (HELLO), a relay range (RELAY_HELLO) or a
/// replication standby (STANDBY_HELLO); one three-pass dispatch handles
/// every frame (UPDATEs decode in parallel); one send and one close take a
/// ConnId. Clients and relays are bound in a ServerFace over
/// [0, expected_clients), which decides their catch-up and nudges and is
/// where a connection's role is read; the session builds, sends and books
/// those frames. Standbys are peers of the session too: dispatch answers
/// their PINGs, each checkpoint written goes to every standby as one shared
/// REPLICATE encoding (the newest one at once to a standby that attaches
/// later), and a completed run sends them SHUTDOWN with the clients'.
/// add_transport() may be called from another thread at any time before or
/// during run().
class ServerSession {
 public:
  /// `test` may be null (no evaluation; records carry accuracy 0).
  ServerSession(ServerSessionConfig cfg, nn::ModelFactory factory,
                const data::Dataset* test);

  /// Hands a freshly-connected (not yet handshaken) transport to the
  /// session, which pumps it from the next service pass on. Thread-safe.
  void add_transport(std::unique_ptr<Transport> t) {
    carriers_.add_transport(std::move(t));
  }

  /// Adds the loop carrier (Carriers::attach): run() starts and stops the
  /// loop, its activity ends an idle wait, and
  /// "server.frame_dispatch_ms" times its frames from enqueue to drain.
  /// Call before run().
  void attach_event_loop(EventLoop* loop) { carriers_.attach(loop); }

  /// Runs all configured rounds; returns the training log. Call once.
  fl::TrainLog run();

  /// Asks run() to stop at the next safe point (signal-safe: only atomic
  /// stores). With `write_checkpoint` (the SIGINT/SIGTERM path) a final
  /// checkpoint is written before returning, so --resume continues from the
  /// interrupted round; without it (SIGKILL-equivalent, used by crash
  /// tests) recovery relies on the last cadence checkpoint alone.
  void request_stop(bool write_checkpoint = true);

  /// Round the session resumed from (0 = fresh start).
  int resumed_from() const { return resumed_from_; }

  const std::vector<float>& global() const { return core_.global(); }
  const core::AdaFlStats& stats() const { return core_.stats(); }

  /// REPLICATE frames sent to standbys, late-attach seeds included.
  std::uint64_t checkpoints_replicated() const { return replicated_; }
  /// Standbys that said STANDBY_HELLO this run.
  int standbys_attached() const { return standbys_attached_; }

 private:
  /// Per-round mutable state shared by the service loop (the round's debts
  /// are face_'s).
  struct RoundCtx {
    int round = 0;
    std::vector<double> scores;
    metrics::CommLedger* ledger = nullptr;
    /// The round's MODEL frame, built lazily on first send and reused for
    /// every broadcast/nudge/rejoin (the global does not change within a
    /// round). Its encoded image is shared by every connection on both
    /// carriers, so a 10k-client broadcast encodes the model once.
    Frame model_frame;
    FrameImage model_image;
    /// Relay-delivered group partials of this round, keyed by group base
    /// (first accepted UPDATE-AGG per group wins; duplicates are ignored).
    std::map<int, compress::EncodedGradient> wire_partials;
  };

  /// Sends `f` on `conn`; `image` is f's encoded image shared across a
  /// broadcast (Carriers::send). Returns the wire size, or 0 when the peer
  /// is gone. A failed send closes the peer at once (quorum and live counts
  /// read it).
  std::size_t send(ConnId conn, const Frame& f,
                   FrameImage* image = nullptr);
  /// Forgets `conn`'s binding (client, relay range with its leaves' routes
  /// and liveness, or standby) and closes it on its carrier. Idempotent.
  void close(ConnId conn);
  /// Sends `f` to client `id` over its face route: its direct connection,
  /// or the relay covering it with the frame addressed to the leaf.
  std::size_t send_to(int id, const Frame& f);
  /// Sends the round's MODEL on `conn` (a client or a relay) and books it
  /// against `book_id`, as a retransmission when `resend`.
  void send_model(RoundCtx& rc, ConnId conn, int book_id, bool resend);
  /// Sends client `id` its SELECT at the face's ratio; a `resend` books as
  /// a retransmission.
  void send_select(RoundCtx& rc, int id, bool resend);
  /// Sends and books the frames face_ queued (WELCOME, MODEL, SELECT).
  void send_queued(RoundCtx& rc);
  /// One service pass: polls the carriers into frame_batch_, dispatches
  /// it, then reaps closed connections. Returns true if any frame arrived
  /// (progress).
  bool service(RoundCtx& rc);
  /// Handles frame_batch_ in three passes: (1) in arrival order, answers
  /// standby PINGs, runs handshakes and handles every non-UPDATE frame,
  /// collecting aggregatable UPDATEs as decode jobs; (2) decodes them in
  /// parallel, one disjoint delivery slot per client; (3) commits them in
  /// batch order.
  void dispatch(RoundCtx& rc);
  /// Handles the first frame of an unbound connection: HELLO binds a client
  /// and RELAY_HELLO a relay leaf range in face_ (closing what they
  /// supersede), which queues their WELCOME and catch-up; STANDBY_HELLO
  /// binds a standby and sends it the newest REPLICATE, if any. Anything
  /// else, or an invalid claim, closes the connection.
  void handshake(RoundCtx& rc, ConnId conn, const Frame& f);
  void handle_frame(RoundCtx& rc, int id, const Frame& f);
  /// Dispatches one frame arriving on relay connection `conn`. Frames
  /// carry the leaf id in frame.client_id; CheckError propagates to the
  /// caller, which must drop the relay.
  void handle_relay_frame(RoundCtx& rc, ConnId conn, const Frame& f);
  void handle_update_agg(RoundCtx& rc, const ServerFace::Claim& relay,
                         const Frame& f);
  /// The checkpoint of the run at `next_round`, with the AdaFL core
  /// snapshot `snap` taken at a round boundary.
  core::ServerCheckpoint checkpoint(int next_round,
                                    core::AdaFlServerCore::State snap) const;
  /// Writes checkpoint(next_round, snap) and sends its image to every
  /// standby as one REPLICATE frame.
  void write_checkpoint(int next_round, core::AdaFlServerCore::State snap);
  /// Sends the newest REPLICATE to the standby on `conn`, counts it and
  /// traces a replicate event for trace slot `slot`.
  void replicate_to(ConnId conn, int slot);
  /// Closes every connection on both carriers and stops the loop, after
  /// flushing loop sends for up to `flush` (0 = abruptly, as a crash would).
  void drop_all_connections(std::chrono::milliseconds flush);
  /// Wall-clock seconds since run() started (trace event timestamps).
  double trace_now() const;

  ServerSessionConfig cfg_;
  nn::ModelFactory factory_;
  fl::Evaluator eval_;
  core::AdaFlServerCore core_;
  /// WELCOME frame; its payload doubles as the checkpoint config stamp.
  Frame welcome_;
  FrameImage welcome_image_;
  /// Routes to clients and relays, the round's debts, catch-up and nudges.
  ServerFace face_;

  Carriers carriers_;
  /// Standby peers, each with its trace slot (attach order).
  std::map<ConnId, int> standbys_;
  int standbys_attached_ = 0;
  /// The newest checkpoint's REPLICATE frame, shared by every standby,
  /// and the size of the checkpoint image it carries.
  Frame replicate_;
  FrameImage replicate_image_;
  std::int64_t replicate_image_bytes_ = 0;
  std::uint64_t replicated_ = 0;
  std::vector<bool> ever_joined_;

  // --- Dispatch scratch, reused across passes. ----------------------------
  std::vector<InFrame> frame_batch_;
  struct DecodeJob {
    std::size_t batch_index = 0;
    int client = 0;
  };
  std::vector<DecodeJob> decode_jobs_;
  std::vector<char> decode_ok_;
  std::vector<char> pending_decode_;  ///< per-client in-batch dedupe
  metrics::Histogram* dispatch_hist_ = nullptr;

  /// Per-client delivery slots reused across rounds (frame decoding lands
  /// straight in the slot, so steady-state rounds reuse the same storage);
  /// face_.delivered() marks which slots hold the current round's update.
  std::vector<core::AdaFlDelivery> delivery_slots_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> stop_save_{false};
  int resumed_from_ = 0;
  std::chrono::steady_clock::time_point trace_t0_{};
};

// --- Client side. --------------------------------------------------------

struct ClientSessionConfig {
  int client_id = 0;
  /// Send a PING after this long without traffic in either direction.
  std::chrono::milliseconds heartbeat_interval{1000};
  /// Declare the connection dead and redial after this long without
  /// hearing from the server.
  std::chrono::milliseconds liveness_timeout{8000};
  /// recv() poll granularity.
  std::chrono::milliseconds recv_poll{100};
  BackoffPolicy backoff;
  /// Optional structured tracer: client-side frame_tx/frame_rx/reconnect
  /// transport events (wall-clock `t`). Not owned; must outlive run().
  metrics::Tracer* tracer = nullptr;
};

/// Outcome of one ClientSession::run().
struct ClientRunStats {
  int reconnects = 0;
  int rounds_trained = 0;
  int updates_sent = 0;
  int skips = 0;
  /// Times the session rotated to the next endpoint in its dial list
  /// (failover to a standby shows up here).
  int endpoint_rotations = 0;
  /// True if the server said SHUTDOWN; false if the session gave up
  /// redialing (backoff exhausted).
  bool completed = false;
};

/// Runs one deployed FL client: a ClientProtocol over an UpstreamLink,
/// blocking in recv(recv_poll) between link polls. It trains on MODEL,
/// scores, uploads when selected, and transparently reconnects (bounded
/// exponential backoff) when the connection drops. DGC residual state
/// survives reconnects, so a flaky network does not reset error feedback.
class ClientSession {
 public:
  /// Returns a connected transport or nullptr (attempt failed).
  using DialFn = std::function<std::unique_ptr<Transport>()>;
  /// Multi-endpoint dial: connects to endpoint `i` of a prioritized list
  /// (`--server=host:port,host:port`). The session dials endpoint 0 until
  /// its backoff budget is exhausted, then rotates to the next — the
  /// client-side half of hot-standby failover.
  using IndexedDialFn =
      std::function<std::unique_ptr<Transport>(std::size_t endpoint)>;
  /// Builds this client's FlClient from the server-sent config. Must derive
  /// the client seed with fl::client_seed_at(run_seed ^
  /// core::kAdaFlClientSeedSalt, id) — via fl::make_client — so the deployed
  /// client is the simulator's bitwise twin.
  using BootstrapFn = std::function<fl::FlClient(
      const std::map<std::string, std::string>& config, int client_id,
      const core::AdaFlParams& params)>;

  /// Single-endpoint session (a one-entry dial list).
  ClientSession(ClientSessionConfig cfg, DialFn dial, BootstrapFn bootstrap);

  /// Prioritized multi-endpoint session. `endpoint_count` must be >= 1;
  /// `dial` is only called with indices in [0, endpoint_count).
  ClientSession(ClientSessionConfig cfg, IndexedDialFn dial,
                std::size_t endpoint_count, BootstrapFn bootstrap);

  /// Runs until SHUTDOWN or until reconnecting is abandoned.
  ClientRunStats run();

 private:
  ClientSessionConfig cfg_;
  IndexedDialFn dial_;
  std::size_t endpoint_count_ = 1;
  BootstrapFn bootstrap_;
};

}  // namespace adafl::net::transport
