// Hot-standby server replication over the framed transport.
//
// Topology: one primary `flserver` trains; a standby `flserver` dials it as
// a *replication peer* (kStandbyHello instead of kHello) and receives every
// durable checkpoint the primary writes as a kReplicate frame. The frame
// carries the exact byte image the primary rename()d into place, so the
// standby validates it through the same code path as a disk read
// (core::decode_checkpoint_file_bytes) before atomically installing it in
// its own --checkpoint-dir. A standby therefore only ever holds *complete*
// checkpoints: a torn or corrupt image is rejected wholesale and the
// previous one stays resumable.
//
// The primary's half is ServerSession's (session.h), which serves a
// standby as one more peer: it binds it on kStandbyHello, answers its
// PINGs from dispatch and sends each checkpoint it writes as one REPLICATE
// encoding shared by every standby. This file holds the REPLICATE codec
// and the standby's half.
//
// Liveness: the standby holds a heartbeat lease. Any frame from the primary
// (REPLICATE, PONG, PING) renews it; while the link is quiet the standby
// PINGs at ~lease/3. If the lease expires — the primary died, or the
// network to it is gone — StandbyReplica::run() returns kPromote and the
// caller resumes a ServerSession from the newest installed checkpoint and
// starts accepting client HELLOs. A graceful primary shutdown sends
// kShutdown, which stands the standby down *without* promotion (operator
// intent: the run is over, not the primary).
//
// Split-brain note: a partition that isolates the primary from the standby
// but not from clients can yield two live servers. Clients dial endpoints
// in priority order and only rotate when the current endpoint is exhausted,
// so they stay with the primary while it is reachable; the PR 3 dedup
// machinery makes a client that does bounce between the two never
// double-count a round. See docs/deployment.md, "Hot standby & failover".
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/transport/tcp.h"
#include "net/transport/transport.h"

namespace adafl::metrics {
class Tracer;
}

namespace adafl::net::replication {

// --- REPLICATE payload codec (exposed for tests). ------------------------

struct ReplicatePayload {
  /// First round the checkpoint resumes at (mirrors the "meta" section;
  /// the standby cross-checks the two).
  std::uint32_t next_round = 0;
  /// Exact checkpoint file byte image (core::encode_checkpoint_file_bytes).
  std::vector<std::uint8_t> image;
};

std::vector<std::uint8_t> encode_replicate(const ReplicatePayload& p);
/// Throws CheckError on truncated or malformed payloads.
ReplicatePayload parse_replicate(std::span<const std::uint8_t> payload);

// --- Standby side. -------------------------------------------------------

struct StandbyConfig {
  /// Directory replicated checkpoints are installed into (and the
  /// ServerSession resumes from after promotion).
  std::string checkpoint_dir;
  /// Heartbeat lease: promote after this long without hearing anything
  /// from the primary. Must comfortably exceed one round's checkpoint
  /// cadence only if REPLICATE is the sole traffic — PING/PONG keeps the
  /// lease alive between rounds regardless of round length.
  std::chrono::milliseconds lease{5000};
  /// recv() poll granularity.
  std::chrono::milliseconds recv_poll{100};
  /// PING the primary after this long without any traffic; 0 = lease / 3.
  std::chrono::milliseconds ping_interval{0};
  /// Redial schedule while the primary is unreachable. max_attempts is
  /// ignored: the lease, not an attempt budget, decides when to give up
  /// (and promote).
  transport::BackoffPolicy backoff{std::chrono::milliseconds(100),
                                   std::chrono::milliseconds(1000), 2.0, 0};
  /// When nonzero, reject replicated checkpoints whose config_crc differs
  /// (configuration skew between primary and standby would make the
  /// promoted run refuse to resume anyway — fail at replication time).
  std::uint32_t expected_config_crc = 0;
  /// Optional tracer for replicate events. Not owned; may be unopened
  /// (events are then dropped, but counters still advance).
  metrics::Tracer* tracer = nullptr;
};

enum class StandbyOutcome {
  kPromote,    ///< lease expired — resume from the newest checkpoint
  kStandDown,  ///< primary finished gracefully (SHUTDOWN)
  kStopped,    ///< request_stop() was called
};

/// Tails a primary's checkpoints and decides when to take over.
class StandbyReplica {
 public:
  /// Returns a connected transport to the primary or nullptr.
  using DialFn = std::function<std::unique_ptr<transport::Transport>()>;

  StandbyReplica(StandbyConfig cfg, DialFn dial);

  /// Runs until promotion, stand-down, or request_stop(). Never throws on
  /// network or payload corruption — bad input is counted and dropped.
  StandbyOutcome run();

  /// Signal-safe stop (atomic store only).
  void request_stop() { stop_.store(true); }

  /// Complete checkpoints installed this run.
  std::uint64_t checkpoints_received() const { return received_; }
  /// REPLICATE payloads rejected (truncated / corrupt / version- or
  /// config-skewed). The previously installed checkpoint survives each.
  std::uint64_t rejected_payloads() const { return rejected_; }
  /// next_round of the newest installed checkpoint (0 = none yet).
  std::uint32_t last_next_round() const { return last_next_round_; }

 private:
  /// Validates one REPLICATE frame end-to-end and atomically installs the
  /// image. Returns false (and counts) on any defect.
  bool install(const transport::Frame& f, double t);

  StandbyConfig cfg_;
  DialFn dial_;
  std::atomic<bool> stop_{false};
  std::uint64_t received_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint32_t last_next_round_ = 0;
};

}  // namespace adafl::net::replication
