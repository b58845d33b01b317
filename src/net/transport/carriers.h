// Carriers: every connection a serving role holds, on either carrier, behind
// one ConnId space. It is the I/O half of the serving shell that
// ServerSession (the root) and RelaySession's child side both run.
//
//  - Loop carrier: an attached EventLoop owns its TCP sockets (accept,
//    backpressure, EMFILE pauses) and names them from 0 up.
//  - Pumped carrier: a Transport given to add_transport(), from any thread,
//    is named from kPumpedBase up and recv(0)ed on the owner's thread at
//    every poll. No thread is added for it.
//
// A pass is poll() into one frame batch, the owner's dispatch (which skips
// connections it closed earlier in the pass: open()), then a reap of
// take_gone(). Nothing here knows roles, frame semantics or tracing; every
// member but add_transport() runs on the owner's thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "net/transport/event_loop.h"
#include "net/transport/transport.h"

namespace adafl::net::transport {

class Carriers {
 public:
  static constexpr ConnId kPumpedBase = ConnId{1} << 63;

  /// Adds the loop carrier (listener adopted or fd watched, not started).
  /// Not owned: start() starts it and close_all() stops it.
  void attach(EventLoop* loop) { loop_ = loop; }
  bool has_loop() const { return loop_ != nullptr; }
  void start() {
    if (loop_ != nullptr) loop_->start();
  }
  /// Thread-safe; the transport joins the pumped carrier at the next poll.
  void add_transport(std::unique_ptr<Transport> t);

  /// Appends both carriers' frames to `batch`. Loop closes are taken before
  /// the loop's queues drain and its accepts after, so every batched or
  /// closed connection is known. A pumped transport whose recv throws
  /// CheckError is closed, and its earlier frames still count.
  void poll(std::vector<InFrame>& batch);
  /// Connections found closed since the last call, to reap after dispatch.
  std::vector<ConnId> take_gone() { return std::exchange(gone_, {}); }
  /// From a connection's first poll() until close() or close_all().
  bool open(ConnId conn) const;

  /// Sends `f` from `*image`, the broadcast's slot on both carriers: a loop
  /// peer is queued encode_once(f, *image), and a pumped peer gets
  /// Transport::send_shared(f, *image) (null `image`: a slot for this send
  /// only). A failed pumped send closes the connection. Returns false when
  /// `conn` is not open or the send failed.
  bool send(ConnId conn, const Frame& f, FrameImage* image = nullptr);
  /// Safe to call twice.
  void close(ConnId conn);
  /// Until loop activity or `idle`; a plain sleep without a loop.
  void wait(std::chrono::milliseconds idle);
  /// Flushes loop sends for up to `flush` (0: none), then closes every
  /// connection and pending arrival and stops the loop.
  void close_all(std::chrono::milliseconds flush);
  /// Open connections, pending arrivals and unpolled loop accepts included.
  std::size_t size() const;

 private:
  EventLoop* loop_ = nullptr;
  std::set<ConnId> loop_conns_;
  std::map<ConnId, std::unique_ptr<Transport>> pumped_;
  ConnId next_pumped_ = kPumpedBase;
  mutable std::mutex arrivals_mu_;
  std::vector<std::unique_ptr<Transport>> arrivals_;
  std::vector<ConnId> gone_;
};

}  // namespace adafl::net::transport
