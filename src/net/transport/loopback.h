// In-process Transport: a pair of endpoints joined by two queues of encoded
// frames.
//
// Frames are run through encode_frame()/FrameParser on every hop — the
// loopback path exercises the exact bytes a socket would carry, so a
// deployed run over loopback is the simulator-grade reference for the TCP
// path (and is what the equivalence tests drive). A broadcast's FrameBytes
// are queued to every peer as they are, and each receiver parses (and
// CRC-checks) them in place.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>

#include "net/transport/transport.h"

namespace adafl::net::transport {

class LoopbackTransport;

/// Creates a connected endpoint pair. Each endpoint is thread-safe against
/// its peer (one thread per endpoint, the usual client/server shape).
std::pair<std::unique_ptr<LoopbackTransport>,
          std::unique_ptr<LoopbackTransport>>
make_loopback_pair();

class LoopbackTransport final : public Transport {
 public:
  /// Destruction closes both channels, like a socket: a peer dropped by the
  /// server (conn.reset()) observes the disconnect instead of blocking on
  /// recv() forever.
  ~LoopbackTransport() override { close(); }

  bool send(const Frame& f) override {
    FrameImage once;
    return send_shared(f, once);
  }
  bool send_shared(const Frame& f, FrameImage& image) override;
  /// A zero timeout only polls: it never waits on the condition variable.
  std::optional<Frame> recv(std::chrono::milliseconds timeout) override;
  /// The peer's send and its close call `wake`.
  bool set_wake(Wake wake) override;
  bool closed() const override;
  void close() override;
  std::string peer() const override { return "loopback"; }

 private:
  friend std::pair<std::unique_ptr<LoopbackTransport>,
                   std::unique_ptr<LoopbackTransport>>
  make_loopback_pair();

  /// One direction of the pipe: encoded frames in flight.
  struct Channel {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<FrameBytes> queue;
    bool closed = false;
    Wake wake;  ///< the receiving end's, until it closes
  };

  LoopbackTransport(std::shared_ptr<Channel> tx, std::shared_ptr<Channel> rx)
      : tx_(std::move(tx)), rx_(std::move(rx)) {}

  std::shared_ptr<Channel> tx_;  ///< frames this endpoint sends
  std::shared_ptr<Channel> rx_;  ///< frames this endpoint receives
  FrameParser parser_;
};

}  // namespace adafl::net::transport
