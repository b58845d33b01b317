// Carriers: every connection a serving role holds, on either carrier, behind
// one ConnId space. It is the I/O half of the serving shell that
// ServerSession (the root) and RelaySession's child side both run.
//
//  - Loop carrier: an attached EventLoop owns its TCP sockets (accept,
//    backpressure, EMFILE pauses) and names them from 0 up.
//  - Pumped carrier: a Transport given to add_transport(), from any thread,
//    is named from kPumpedBase up and recv(0)ed on the owner's thread. No
//    thread is added for it.
//
// Readiness is pushed, as epoll's ready list is. A pumped transport that can
// signal (Transport::set_wake: loopback pairs, datagram links, UDP mux
// peers) marks itself ready from its sender's thread, and a poll visits only
// the marked ones; one that cannot (TCP, FaultyTransport) is visited every
// poll. Signals, arrivals and the loop's activity all end one idle wait,
// which returns at most once per kWakeGap.
//
// A pass is poll() into one frame batch, the owner's dispatch (which skips
// connections it closed earlier in the pass: open()), then a reap of
// take_gone(). Nothing here knows roles, frame semantics or tracing; every
// member but add_transport() and wake() runs on the owner's thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
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
  /// wait() returns at most once per gap. A trickle of frames (one driver
  /// answering 1000 MODELs one by one) is then served in batches, not with
  /// one sleep and wake of the serving thread per frame, which costs 6 us
  /// of CPU or more on a 4-vCPU VM. A frame after a quiet gap is served at
  /// once.
  static constexpr std::chrono::milliseconds kWakeGap{2};

  /// Adds the loop carrier (listener adopted or fd watched, not started):
  /// its activity ends wait(). Not owned: start() starts it and close_all()
  /// stops it, which must happen before these carriers are destroyed.
  void attach(EventLoop* loop);
  bool has_loop() const { return loop_ != nullptr; }
  void start() {
    if (loop_ != nullptr) loop_->start();
  }
  /// Thread-safe; the transport joins the pumped carrier at the next poll,
  /// which registers its wake and visits it once. Ends wait().
  void add_transport(std::unique_ptr<Transport> t);

  /// Appends both carriers' frames to `batch`. Loop closes are taken before
  /// the loop's queues drain and its accepts after, so every batched or
  /// closed connection is known. Pumped transports that signalled since the
  /// last poll, and those that cannot signal, are drained with recv(0) in
  /// ConnId order. One whose recv throws CheckError is closed, and its
  /// earlier frames still count.
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
  /// Ends the current or next wait(), even when a poll() runs first.
  /// Thread-safe; no allocation. The wake an owner registers on a transport
  /// it reads itself (a relay's parent).
  void wake();
  /// Returns once a pumped peer signalled, a transport arrived or the loop
  /// saw activity since the last poll or wait, or wake() ran since the last
  /// wait, but no sooner than kWakeGap after the previous wait returned;
  /// otherwise after `idle`. `idle` bounds only what cannot signal: the
  /// owner's timers, peers without a wake, and a stop request.
  void wait(std::chrono::milliseconds idle);
  /// Flushes loop sends for up to `flush` (0: none), then closes every
  /// connection and pending arrival and stops the loop.
  void close_all(std::chrono::milliseconds flush);
  /// Open connections, pending arrivals and unpolled loop accepts included.
  std::size_t size() const;

 private:
  /// One pumped connection. Its node never moves, so the wake its transport
  /// holds can point at `ready`.
  struct Pumped {
    std::atomic<bool> ready{false};  ///< signalled, not yet visited
    bool signals = false;            ///< set_wake() took the wake
    std::unique_ptr<Transport> t;    ///< destroyed first: no wake after
  };

  /// The wake of pumped `conn`: queues it once until its next visit.
  void signal(ConnId conn, Pumped& p);
  /// Sets `flag` (under mu_) and tells the waiter unless it is told.
  void notify(bool& flag);
  /// recv(0)s `t` dry into `batch`; a closed `t` joins gone_.
  void drain(ConnId conn, Transport& t, std::vector<InFrame>& batch,
             std::chrono::steady_clock::time_point now);

  EventLoop* loop_ = nullptr;
  std::set<ConnId> loop_conns_;

  // Shared with signalling threads, under mu_.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool signalled_ = false;  ///< a signal, arrival or loop activity: poll()
  bool woken_ = false;      ///< wake(): only wait() takes it
  std::vector<std::unique_ptr<Transport>> arrivals_;
  /// Signalled pumped peers, at most once each. Its capacity covers every
  /// signalling peer, so a signal never allocates.
  std::vector<ConnId> ready_;

  // Owner thread only. Declared after the shared state: the transports are
  // closed, and stop signalling, before it goes.
  std::map<ConnId, Pumped> pumped_;
  std::vector<ConnId> polled_;  ///< peers that cannot signal, ascending
  std::size_t signalling_ = 0;  ///< pumped peers that can
  std::vector<ConnId> visit_;   ///< one poll's pumped visits
  std::chrono::steady_clock::time_point woke_at_{};  ///< last wait's return
  ConnId next_pumped_ = kPumpedBase;
  std::vector<ConnId> gone_;
};

}  // namespace adafl::net::transport
