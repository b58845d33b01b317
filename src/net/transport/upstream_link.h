// The upstream connection of every dialing role, free of sleeps: the one
// implementation of the dial list, backoff budget, endpoint rotation,
// give-up, heartbeat PING, liveness timeout and transport trace events that
// ClientSession, RelaySession's parent face and StandbyReplica use. It runs
// on an injected clock and tells its caller when it next needs polling.
//
// Redial policy. The first dial is immediate; after n failed dials against
// the current endpoint the next waits backoff.delay(n), as does a redial
// after a connection that delivered frames dropped. A failed dial is a dial
// that returns null or a connection that closes before delivering any frame
// (a server that rejects the handshake, a dead UDP server). Failures
// persist across disconnect episodes and round_done() refills them. After
// backoff.max_attempts failures (kUnboundedRotateAttempts when it is 0) the
// link rotates to the next endpoint; a bounded budget gives up once every
// endpoint in turn is exhausted with no frame received in between.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "net/transport/tcp.h"
#include "net/transport/transport.h"

namespace adafl::metrics {
class Tracer;
}

namespace adafl::net::transport {

/// Failed dials per endpoint before rotating when backoff retries forever
/// (max_attempts == 0): a multi-endpoint dialer must still fail over to its
/// standby instead of pinning a dead primary indefinitely.
constexpr int kUnboundedRotateAttempts = 4;

struct UpstreamLinkConfig {
  /// Send a PING once upstream has been silent this long (then at most one
  /// per interval).
  std::chrono::milliseconds heartbeat_interval{1000};
  /// Close the connection once upstream has been silent this long.
  std::chrono::milliseconds liveness_timeout{8000};
  BackoffPolicy backoff;
  /// Wire id of this end (the client id; kServerId for a relay). Its PING
  /// frames carry it, and so does the `client` field of its reconnect events
  /// and of frames addressed kServerId (-1 for kServerId).
  std::uint32_t self_id = kServerId;
  /// Optional: frame_tx/frame_rx/reconnect events stamped with seconds since
  /// the link was built. Not owned.
  metrics::Tracer* tracer = nullptr;
};

class UpstreamLink {
 public:
  using Clock = std::chrono::steady_clock;
  using ClockFn = std::function<Clock::time_point()>;
  /// Connects to endpoint `i` of the list; nullptr when the attempt failed.
  using DialFn = std::function<std::unique_ptr<Transport>(std::size_t i)>;

  enum class Event {
    kIdle,       ///< nothing to do until next_poll()
    kConnected,  ///< a dial just succeeded: send the handshake now
    kGaveUp,     ///< every endpoint exhausted; the link is finished
  };

  /// `endpoint_count` >= 1; `dial` is only called with indices below it.
  UpstreamLink(UpstreamLinkConfig cfg, DialFn dial,
               std::size_t endpoint_count, ClockFn clock = &Clock::now);

  /// Housekeeping, to call whenever the caller has no frame to handle:
  /// accounts for a lost connection, dials when one is due, closes a
  /// connection silent past the liveness timeout and sends a PING after
  /// heartbeat_interval of silence.
  Event poll();

  /// When poll() next has work (a dial, a PING or the liveness deadline).
  Clock::time_point next_poll() const;

  bool connected() const { return conn_ != nullptr && !conn_->closed(); }

  /// Sends on the live connection; a failed send closes it. Returns false
  /// when nothing was sent.
  bool send(const Frame& f);

  /// Waits up to `timeout` for the next frame. A malformed stream closes
  /// the connection. Any frame proves the endpoint: it feeds liveness and
  /// clears the give-up count.
  std::optional<Frame> recv(std::chrono::milliseconds timeout);

  /// The caller finished round `round`: refills the dial budget. `round`
  /// also stamps later reconnect events.
  void round_done(int round);

  /// Closes the connection (a malformed payload, or the end of the
  /// session); a later poll() accounts for it and schedules the redial.
  void close();

  /// Seconds since the link was built, on its clock (trace timestamps).
  double trace_now() const;

  int reconnects() const { return reconnects_; }
  int rotations() const { return rotations_; }

 private:
  /// Books one failed dial at `now`: rotates or gives up when the endpoint's
  /// budget is spent, then schedules the next dial.
  void fail(Clock::time_point now);
  void trace_frame(bool tx, const Frame& f);

  UpstreamLinkConfig cfg_;
  DialFn dial_;
  std::size_t endpoint_count_;
  ClockFn clock_;
  Clock::time_point t0_;

  std::unique_ptr<Transport> conn_;
  bool got_frame_ = false;  ///< the current connection delivered a frame
  bool ever_connected_ = false;
  bool gave_up_ = false;
  std::size_t endpoint_ = 0;
  int ep_attempts_ = 0;            ///< failed dials against endpoint_
  std::size_t dead_endpoints_ = 0; ///< consecutive endpoints exhausted
  Clock::time_point next_dial_;
  Clock::time_point last_rx_;
  Clock::time_point last_ping_;
  int round_ = 0;
  int reconnects_ = 0;
  int rotations_ = 0;
};

}  // namespace adafl::net::transport
