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
//   child side   — accepts leaf ClientSessions (and sub-relays, for deeper
//                  trees) via add_child_transport(); serves them the cached
//                  WELCOME/MODEL so a leaf never needs to reach the root.
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
// the server's retransmit nudges. A crashed leaf is reported up as
// CHILD_GONE and stops blocking its group's flush, so the surviving
// members' updates still commit. A standby relay (RelayConfig::standby)
// stays dormant until the first orphaned child dials it — the signal that
// the primary died — then claims the range from the parent, which drops the
// dead binding and catches the promoted relay up mid-round.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "core/adafl_server.h"
#include "core/partial_agg.h"
#include "metrics/trace.h"
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
  /// Child/parent poll granularity when idle.
  std::chrono::milliseconds idle_poll{20};
  /// Re-send cadence toward stalled children (MODEL to unscored, SELECT to
  /// selected-but-undelivered); doubles after each firing within a round,
  /// like the server's retransmit nudge. <= 0 disables.
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

/// One mid-tier aggregator process. Construct, hand it child connections
/// (thread-safe, e.g. from a TCP accept loop), then run() until SHUTDOWN.
class RelaySession {
 public:
  using IndexedDialFn = std::function<std::unique_ptr<transport::Transport>(
      std::size_t endpoint)>;

  /// `dial` is only called with indices in [0, endpoint_count).
  RelaySession(RelayConfig cfg, IndexedDialFn dial,
               std::size_t endpoint_count);

  /// Hands a freshly-accepted (not yet handshaken) child transport to the
  /// session. Thread-safe; callable before and during run().
  void add_child_transport(std::unique_ptr<transport::Transport> t);

  /// Runs until the parent sends SHUTDOWN or redialing is abandoned.
  RelayRunStats run();

  /// Asks run() to stop at the next poll (signal-safe).
  void request_stop() { stop_.store(true, std::memory_order_release); }

 private:
  using Frame = transport::Frame;

  /// One child connection: a leaf client or a sub-relay (deeper tier).
  struct Child {
    std::unique_ptr<transport::Transport> conn;
    bool bound = false;
    bool is_relay = false;
    int leaf_id = -1;    ///< bound leaf
    int sub_base = 0;    ///< bound sub-relay range
    int sub_count = 0;
  };

  void child_send(Child& c, const Frame& f);
  /// Records a child-side frame event, timed on the parent link's clock.
  void trace_child(metrics::TraceEventType type, const Frame& f);
  /// SELECT for leaf `id` at this round's cached ratio.
  Frame select_frame(int id) const;
  /// Serves WELCOME + in-round catch-up to a just-bound child.
  void catch_up_child(Child& c);
  /// Binds a child's first frame (HELLO -> leaf, RELAY_HELLO -> sub-relay).
  /// Throws CheckError on an invalid claim; the caller drops the child.
  void bind_child(Child& c, const Frame& f);
  /// Handles a frame from a bound child. Throws CheckError on hostile
  /// input; the caller drops the child.
  void handle_child_frame(Child& c, const Frame& f);
  /// Handles a frame from the parent.
  void handle_parent_frame(const Frame& f);
  /// Forwards `f` to the child serving leaf `id`: its direct connection or
  /// the sub-relay covering it. Dropped when neither is bound.
  void route_down(int id, const Frame& f);
  /// Erases child `idx`, keeping leaf routes aligned; a bound child is
  /// reported up (CHILD_GONE) and group flushes re-checked (a dead leaf
  /// stops blocking).
  void drop_child(std::size_t idx);
  /// Sends every complete (or no-longer-blocked) group's UPDATE-AGG up.
  void flush_groups();
  /// Builds one group's UPDATE-AGG frame from the delivered direct leaves.
  Frame build_agg(int gbase) const;
  /// Re-sends stalled state to children (relay-side retransmit nudge).
  void nudge_children();
  /// True while a live direct child route for leaf `id` exists.
  bool leaf_live(int id) const;

  RelayConfig cfg_;
  IndexedDialFn dial_;
  std::size_t endpoint_count_ = 1;

  std::mutex pending_mu_;
  std::vector<std::unique_ptr<transport::Transport>> pending_;
  std::vector<Child> children_;
  std::map<int, std::size_t> leaf_child_;  ///< leaf id -> children_ index

  /// The parent face's connection; built when run() starts.
  std::optional<transport::UpstreamLink> parent_;
  bool welcomed_ = false;
  std::vector<std::uint8_t> welcome_payload_;  ///< cached verbatim
  int agg_group_ = 0;
  std::int64_t param_count_ = 0;

  // --- Per-round state (reset when a new MODEL round arrives). ------------
  int round_ = 0;
  bool have_model_ = false;
  Frame model_frame_;
  std::set<int> scored_;            ///< leaves that scored this round
  /// Cached SCORE frames: a score forwarded while the parent link was down
  /// is lost, and the leaf (already scored locally) never repeats it — the
  /// relay re-sends the cache when the parent nudges with a dup MODEL.
  std::map<int, Frame> score_frames_;
  std::map<int, double> ratio_of_;  ///< SELECTed leaf -> ratio
  /// Direct leaves' decoded updates this round (the AGG inputs).
  std::map<int, transport::UpdatePayload> delivered_;
  std::map<int, Frame> agg_frames_;  ///< flushed groups, by base
  std::set<int> live_;  ///< leaves announced alive (direct + sub-relay)

  core::PartialAggregator partial_agg_;
  RelayRunStats stats_;
  std::atomic<bool> stop_{false};
};

}  // namespace adafl::net::relay
