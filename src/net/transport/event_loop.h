// Non-blocking epoll event loop for the deployed server.
//
// One loop thread owns every socket: the listening TCP fd (accept is part
// of the loop — EMFILE/ENFILE pauses accepting with exponential backoff
// instead of killing the server), any auxiliary fds registered via
// watch_fd() (the UDP mux fd), and every accepted connection. Reads are
// non-blocking with a per-connection byte budget per cycle so one firehose
// client cannot starve 9,999 idle ones, and completed frames are decoded
// incrementally with FrameParser::consume (no stream-buffer copy for frames
// that arrive whole).
//
// Completed frames land in bounded per-shard queues (shard = conn id mod
// shards). When a shard's queue reaches the configured depth the loop stops
// reading from — unregisters EPOLLIN for — every connection feeding that
// shard, which pushes backpressure into the kernel socket buffers and from
// there to the sender, instead of growing server memory. The session thread
// drains shards with poll_shard()/poll_all() and the loop resumes paused
// connections once the queue falls below half depth.
//
// Sends go through the loop thread too: send() enqueues an immutable,
// shared byte buffer (a round's MODEL broadcast is encoded once and the
// same buffer is queued to all 10,000 connections — zero copies) and the
// loop flushes it opportunistically, falling back to EPOLLOUT when the
// socket would block. A connection whose unsent backlog exceeds
// max_outbuf_bytes is dropped as a dead consumer.
//
// Thread model: exactly one loop thread (start()/stop()) and one session
// thread calling the public API. InFrame timestamps let the session record
// the frame-dispatch latency histogram (enqueue -> drain).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/transport/frame.h"
#include "net/transport/transport.h"

namespace adafl::net::transport {

struct EventLoopConfig {
  /// Number of frame queues / decode shards (>= 1).
  int shards = 1;
  /// Frames buffered per shard before its connections' reads are paused.
  std::size_t queue_depth = 1024;
  /// Max bytes read from one connection per loop cycle (fairness budget).
  std::size_t read_budget = 256 * 1024;
  /// Max concurrent accepted connections; 0 = unlimited. When at the cap
  /// accepting pauses (clients queue in the kernel backlog) and resumes as
  /// connections close.
  int max_clients = 0;
  /// Unsent backlog (logical bytes) per connection before it is declared a
  /// dead consumer and dropped.
  std::size_t max_outbuf_bytes = 256u * 1024u * 1024u;
  /// First EMFILE/ENFILE accept-pause; doubles per consecutive failure up
  /// to accept_backoff_max.
  std::chrono::milliseconds accept_backoff = std::chrono::milliseconds(10);
  std::chrono::milliseconds accept_backoff_max =
      std::chrono::milliseconds(1000);
};

/// One frame handed from the loop to the session, stamped at enqueue time
/// so the session can observe dispatch latency.
struct InFrame {
  ConnId conn = 0;
  Frame frame;
  std::chrono::steady_clock::time_point enqueued;
};

class EventLoop {
 public:
  explicit EventLoop(EventLoopConfig cfg);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Adopts a listening TCP socket (already bound + listening). The loop
  /// accepts from it; the caller must not use the fd afterwards except to
  /// close it after stop(). A listener shut down while the loop runs
  /// (TcpListener::close()) is dropped for good. Call before start().
  void adopt_listener(int listen_fd);

  /// Registers an auxiliary readable fd (e.g. the UDP mux socket); `cb`
  /// runs on the loop thread whenever it is readable, and each run counts
  /// as activity. Call before start().
  void watch_fd(int fd, std::function<void()> cb);

  /// Runs `wake` on the loop thread after each cycle with activity: a
  /// frame queued, an accept, a close or a watched fd served. Carriers
  /// ends its idle wait with it. Call before start().
  void on_activity(Wake wake) { on_activity_ = std::move(wake); }

  void start();
  /// Stops the loop thread and closes every accepted connection.
  void stop();

  // --- Session-thread API -------------------------------------------------

  /// Moves up to `max` queued frames from one shard into `out` (appended).
  std::size_t poll_shard(int shard, std::vector<InFrame>& out,
                         std::size_t max);
  /// Drains every shard (in shard order) into `out`.
  std::size_t poll_all(std::vector<InFrame>& out);

  /// Queues `bytes` for transmission on `conn`. The buffer is shared, not
  /// copied — encode a broadcast once and send the same pointer to every
  /// connection. No-op on unknown/closed ids.
  void send(ConnId conn, FrameBytes bytes);
  /// Closes a connection (flushes nothing; immediate). No-op on unknown ids.
  void close_conn(ConnId conn);

  /// Waits (polling) until every connection's send backlog has been handed
  /// to the kernel, or `timeout`. Returns true when fully flushed. Used
  /// before stop() so the final SHUTDOWN broadcast actually leaves the box.
  bool flush(std::chrono::milliseconds timeout);

  /// Connections accepted since the last call.
  std::vector<ConnId> take_accepted();
  /// Connections closed (peer hangup, malformed stream, outbuf overflow)
  /// since the last call. close_conn() requests are included.
  std::vector<ConnId> take_closed();

  // --- Introspection ------------------------------------------------------

  int shards() const { return cfg_.shards; }
  /// High-water mark across all shard queues since start().
  std::size_t peak_queue_depth() const;
  std::size_t open_connections() const;
  /// Times accept was paused for fd exhaustion (EMFILE/ENFILE).
  std::uint64_t accept_pauses() const;
  /// Times a connection's reads were paused for shard backpressure.
  std::uint64_t read_pauses() const;

 private:
  struct Conn;
  struct Shard;

  void run();
  void wake();
  void notify_activity();
  void handle_accept();
  void pause_accept(std::chrono::milliseconds delay);
  void resume_accept_if_due(std::chrono::steady_clock::time_point now);
  void handle_readable(Conn* c);
  void handle_writable(Conn* c);
  void drop_conn(Conn* c);
  void enqueue_frame(Conn* c, Frame&& f);
  void pause_shard_reads(int shard);
  void resume_shard_reads(int shard);
  void apply_commands();
  void update_events(Conn* c);

  EventLoopConfig cfg_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: session thread -> loop thread
  int listen_fd_ = -1;
  bool accept_paused_ = false;
  bool accept_at_cap_ = false;
  std::chrono::steady_clock::time_point accept_resume_at_{};
  std::chrono::milliseconds accept_delay_{0};

  std::vector<std::pair<int, std::function<void()>>> watched_;
  Wake on_activity_;

  // Owned by the loop thread exclusively.
  std::unordered_map<ConnId, std::unique_ptr<Conn>> conns_;
  ConnId next_id_ = 0;
  std::vector<std::uint8_t> read_chunk_;
  bool cycle_activity_ = false;

  // Shared with the session thread.
  std::unique_ptr<Shard[]> shards_;
  std::mutex cmd_mu_;
  struct Command {
    enum class Kind { kSend, kClose } kind;
    ConnId conn;
    FrameBytes bytes;
  };
  std::vector<Command> commands_;
  std::mutex event_mu_;
  std::vector<ConnId> accepted_;
  std::vector<ConnId> closed_;

  std::atomic<std::size_t> peak_depth_{0};
  std::atomic<std::size_t> total_outbuf_{0};
  std::atomic<std::size_t> open_conns_{0};
  std::atomic<std::uint64_t> accept_pauses_{0};
  std::atomic<std::uint64_t> read_pauses_{0};

  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace adafl::net::transport
