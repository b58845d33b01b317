// Mid-tier aggregation relay for hierarchical FL deployments.
//
// A RelaySession sits between the root server (or another relay) and a
// contiguous range of leaf clients [base, base + count), speaking the
// existing wire format both ways:
//
//   parent side  — one outbound UpstreamLink, the dialer ClientSession
//                  uses (a new parent MODEL round refills its budget):
//                  announces itself with RELAY_HELLO, re-broadcasts the
//                  parent's MODEL, forwards leaf HELLO/SCORE traffic up, and
//                  ships each aggregation group's updates as one UPDATE-AGG.
//                  These handlers forward rather than train, so they are
//                  not ClientProtocol's.
//   child side   — the root's serving shell: leaf ClientSessions (and
//                  sub-relays, for deeper trees) on Carriers (carriers.h),
//                  an attached EventLoop's sockets or transports handed to
//                  add_child_transport(), and the root's ServerFace for
//                  routes, catch-up and retransmit nudges, served from the
//                  cached WELCOME/MODEL so a leaf never needs to reach the
//                  root. The face's score phase closes at the parent's
//                  first SELECT or SKIP of a round.
//
// Aggregation is *lossless* and association-preserving: the relay sums each
// group's decoded top-k updates in ascending-id order with the exact
// PartialAggregator the root uses for local groups, and the kTopK wire
// codec carries raw fp32 bits. A tiered run is therefore bitwise identical
// to a flat run with the same AdaFlParams::agg_group (pinned by
// tests/test_tier.cpp).
//
// Resilience: a relay whose parent link drops redials (rotating through its
// endpoint list), re-announces its live leaves, and the round recovers via
// the server's retransmit nudges. A parent frame naming a leaf outside the
// relay's range is malformed: the relay drops the link and redials. A
// crashed leaf is reported up as CHILD_GONE and stops blocking its group's
// flush, so the surviving members' updates still commit. A standby relay
// (RelayConfig::standby) stays dormant until the first orphaned child dials
// it — the signal that the primary died — then claims the range from the
// parent, which drops the dead binding and catches the promoted relay up
// mid-round.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/partial_agg.h"
#include "metrics/trace.h"
#include "net/transport/carriers.h"
#include "net/transport/server_face.h"
#include "net/transport/session.h"
#include "net/transport/tcp.h"
#include "net/transport/transport.h"
#include "net/transport/upstream_link.h"

namespace adafl::net::relay {

struct RelayConfig {
  /// Leaf client-id range [base, base + count) this relay covers. Must be
  /// aligned to the run's agg_group (validated against WELCOME).
  int base = 0;
  int count = 0;
  /// Standby mode: do not dial the parent until a child connects (children
  /// only rotate here after their primary relay died).
  bool standby = false;
  /// Parent-link heartbeat / liveness (ClientSession semantics).
  std::chrono::milliseconds heartbeat_interval{1000};
  std::chrono::milliseconds liveness_timeout{8000};
  /// Longest idle wait. A child's frame, an arrival, loop activity or a
  /// frame from a parent transport that can signal ends it at once; it
  /// bounds only the heartbeat, redial and nudge timers, peers that cannot
  /// signal (a TCP parent, FaultyTransport) and a request_stop().
  std::chrono::milliseconds idle_poll{20};
  /// The child side's retransmit nudge (ServerFaceConfig::retransmit_nudge):
  /// first gap of a phase, doubling after each firing. <= 0 disables.
  std::chrono::milliseconds retransmit_nudge{2000};
  transport::BackoffPolicy backoff;
  /// Optional tracer: relay-side frame_tx/frame_rx/reconnect transport
  /// events. Not owned; must outlive run().
  metrics::Tracer* tracer = nullptr;
};

/// Outcome of one RelaySession::run().
struct RelayRunStats {
  int parent_reconnects = 0;
  int endpoint_rotations = 0;
  int rounds_seen = 0;      ///< distinct MODEL rounds observed
  int aggs_sent = 0;        ///< UPDATE-AGG frames built from direct leaves
  int aggs_forwarded = 0;   ///< sub-relay UPDATE-AGG frames passed through
  /// True when the parent said SHUTDOWN; false when redialing was abandoned.
  bool completed = false;
};

/// One mid-tier aggregator process. Construct, give it children (a loop or
/// transports), then run() until SHUTDOWN.
class RelaySession {
 public:
  using IndexedDialFn = std::function<std::unique_ptr<transport::Transport>(
      std::size_t endpoint)>;

  /// `dial` is only called with indices in [0, endpoint_count).
  RelaySession(RelayConfig cfg, IndexedDialFn dial,
               std::size_t endpoint_count);

  /// Hands a freshly-accepted (not yet handshaken) child transport to the
  /// session. Thread-safe; callable before and during run().
  void add_child_transport(std::unique_ptr<transport::Transport> t) {
    carriers_.add_transport(std::move(t));
  }
  /// ServerSession::attach_event_loop for the child side. Call before run().
  void attach_event_loop(transport::EventLoop* loop) {
    carriers_.attach(loop);
  }

  /// Runs until the parent sends SHUTDOWN or redialing is abandoned.
  RelayRunStats run();

  /// Asks run() to stop at the next poll (signal-safe).
  void request_stop() { stop_.store(true, std::memory_order_release); }

 private:
  using ConnId = transport::ConnId;
  using Frame = transport::Frame;
  using ServerFace = transport::ServerFace;

  /// Sends `f` to child `conn` (Carriers::send); a failed send drops it.
  void child_send(ConnId conn, const Frame& f,
                  transport::FrameImage* image = nullptr);
  /// Records a child-side frame event, timed on the parent link's clock.
  void trace_child(metrics::TraceEventType type, const Frame& f);
  /// Sends the WELCOME, MODEL and SELECT frames face_ queued.
  void send_queued();
  /// Binds a child's first frame (HELLO -> leaf, RELAY_HELLO -> sub-relay)
  /// in face_ and closes what it supersedes. Throws CheckError on an
  /// invalid claim; the caller drops the child.
  void bind_child(ConnId conn, const Frame& f);
  /// Handles a frame from a bound child. Throws CheckError on hostile
  /// input; the caller drops the child.
  void handle_child_frame(ConnId conn, const ServerFace::Claim& child,
                          const Frame& f);
  /// Handles a frame from the parent. Throws CheckError on a malformed one;
  /// the caller drops the parent link.
  void handle_parent_frame(const Frame& f);
  /// Closes child `conn` (safe twice): the leaves that lost their route are
  /// reported up (CHILD_GONE) and group flushes re-checked (a dead leaf
  /// stops blocking).
  void drop_child(ConnId conn);
  /// Sends every complete (or no-longer-blocked) group's UPDATE-AGG up.
  void flush_groups();
  /// Builds one group's UPDATE-AGG frame from the delivered direct leaves.
  Frame build_agg(int gbase);

  RelayConfig cfg_;
  IndexedDialFn dial_;
  std::size_t endpoint_count_ = 1;

  transport::Carriers carriers_;  ///< every child connection
  std::vector<transport::InFrame> batch_;
  /// Routes to children, the round's debts, catch-up and nudges.
  ServerFace face_;

  /// The parent face's connection; built when run() starts.
  std::optional<transport::UpstreamLink> parent_;
  Frame welcome_;  ///< the parent's, cached verbatim
  transport::FrameImage welcome_image_;
  int agg_group_ = 0;  ///< > 0 once the parent's WELCOME arrived
  std::int64_t param_count_ = 0;

  // --- Per-round state (reset when a new MODEL round arrives). ------------
  Frame model_frame_;
  transport::FrameImage model_image_;
  /// Cached SCORE frames: a score forwarded while the parent link was down
  /// is lost, and the leaf (already scored locally) never repeats it — the
  /// relay re-sends the cache when the parent nudges with a dup MODEL.
  std::map<int, Frame> score_frames_;
  /// Direct leaves' decoded updates this round (the AGG inputs).
  std::map<int, transport::UpdatePayload> updates_;
  std::map<int, Frame> agg_frames_;  ///< flushed groups, by base

  core::PartialAggregator partial_agg_;
  RelayRunStats stats_;
  std::atomic<bool> stop_{false};
};

}  // namespace adafl::net::relay
