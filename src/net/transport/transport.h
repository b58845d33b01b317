// Abstract frame transport: the seam between the FL session protocol and
// the medium carrying it. TcpTransport (tcp.h) runs the protocol over real
// POSIX sockets; LoopbackTransport (loopback.h) runs the *same encoded
// bytes* through in-process queues, so the protocol state machine is
// identical on the simulated and deployed paths and the two can be asserted
// bitwise-equivalent.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "net/transport/frame.h"

namespace adafl::net::transport {

/// Identifies one connection a serving role holds, for the connection's
/// lifetime. EventLoop assigns ids to its sockets (never reused; shard(conn)
/// == conn % shards); servers number the transports they pump themselves.
using ConnId = std::uint64_t;
/// No connection.
constexpr ConnId kNoConn = ~ConnId{0};

/// Readiness signal from a transport to whoever polls it. It runs on the
/// sending thread under the transport's own lock, the one close() takes to
/// unregister it, so no wake runs after close() returns. It may only mark
/// and notify, never call back into the transport.
using Wake = std::function<void()>;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one frame. Returns false if the connection is down (the frame
  /// was not delivered); the transport is then closed().
  virtual bool send(const Frame& f) = 0;

  /// send(f) for one peer of a broadcast: `image` is the broadcast's slot,
  /// filled from `f` on first use (encode_once, or UDP's FEC image) and
  /// shared after, so N peers cost one encode. Same bytes, same result as
  /// send(f). This default ignores the slot; a transport that can send
  /// from a shared encoding overrides it. (A distinct name, so a subclass overriding only send()
  /// neither hides it nor needs a using-declaration.)
  virtual bool send_shared(const Frame& f, FrameImage& /*image*/) {
    return send(f);
  }

  /// Waits up to `timeout` for the next frame. Returns nullopt on timeout
  /// or when the connection closed — distinguish via closed(). Throws
  /// CheckError if the peer sent a malformed byte stream; callers should
  /// drop the connection on that.
  virtual std::optional<Frame> recv(std::chrono::milliseconds timeout) = 0;

  /// Registers `wake`, called each time a frame or a close becomes
  /// receivable here, until close() returns; register once. Returns false
  /// (this default) when the transport cannot signal: its owner must poll
  /// it. A decorator forwards only if its recv() hands out what the inner
  /// transport signalled, as it arrives.
  virtual bool set_wake(Wake /*wake*/) { return false; }

  virtual bool closed() const = 0;

  /// Shuts the connection down; subsequent send/recv fail fast. Idempotent.
  virtual void close() = 0;

  /// Human-readable peer description for logs ("127.0.0.1:4242",
  /// "loopback").
  virtual std::string peer() const = 0;
};

}  // namespace adafl::net::transport
