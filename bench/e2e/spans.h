// Tracing from outside the program: an in-memory span log written at exit
// as Chrome trace-event JSON, and the decorators that time the transport
// calls a session makes without touching the session's code.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "net/transport/transport.h"
#include "net/transport/udp.h"

namespace adafl::bench {

/// Spans of one run, from any thread. A span has a name, a start and an
/// end, the span that caused it (-1 = none) and the round it belongs to —
/// the identifier shared by every span of one round.
class SpanLog {
 public:
  SpanLog();

  /// Opens a span and returns its id (-1 once the log is full).
  int open(const char* name, int round, int parent = -1);
  void close(int id);
  /// Records an already finished span.
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           int round, int parent = -1);

  struct Stat {
    std::int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< total minus the time its child spans cover
  };
  std::map<std::string, Stat> stats() const;

  void write_chrome_json(const std::string& path) const;
  void print_self_times() const;

 private:
  struct Span {
    const char* name = "";
    Clock::time_point start{};
    Clock::time_point end{};
    int parent = -1;
    int round = 0;
    int tid = 0;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<std::size_t> dropped_{0};
  Clock::time_point t0_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int round, int parent = -1)
      : log_(log), id_(log ? log->open(name, round, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Process-wide switch for the in-situ decorators: the traced run flips it
/// per round so traced and untraced rounds interleave.
std::atomic<bool>& in_situ_tracing();

/// Counters one side of the system (the root's connections, or a relay's
/// children) accumulates through its TimedTransports.
struct TransportCounters {
  std::atomic<std::int64_t> send_ns{0};
  std::atomic<std::int64_t> send_frames{0};
  std::atomic<std::int64_t> send_bytes{0};
  std::atomic<std::int64_t> recv_ns{0};
  std::atomic<std::int64_t> recv_calls{0};
  std::atomic<std::int64_t> recv_frames{0};
  /// Received UPDATE_AGG frames (relay -> root).
  std::atomic<std::int64_t> agg_frames{0};
};

/// Transport decorator timing every send and recv while in_situ_tracing()
/// is on; a frame-carrying call also becomes a "transport.send" or
/// "transport.recv" span in `spans`.
class TimedTransport final : public net::transport::Transport {
 public:
  TimedTransport(std::unique_ptr<net::transport::Transport> inner,
                 TransportCounters* counters, SpanLog* spans);

  bool send(const net::transport::Frame& f) override;
  std::optional<net::transport::Frame> recv(
      std::chrono::milliseconds timeout) override;
  bool closed() const override { return inner_->closed(); }
  void close() override { inner_->close(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  std::unique_ptr<net::transport::Transport> inner_;
  TransportCounters* counters_;
  SpanLog* spans_;
};

/// DatagramLink decorator counting the bytes that cross it.
class CountingDatagramLink final : public net::transport::DatagramLink {
 public:
  CountingDatagramLink(std::unique_ptr<net::transport::DatagramLink> inner,
                       std::atomic<std::int64_t>* sent_bytes,
                       std::atomic<std::int64_t>* recv_bytes);

  bool send(std::span<const std::uint8_t> datagram) override;
  std::optional<std::vector<std::uint8_t>> recv(
      std::chrono::milliseconds timeout) override;
  bool closed() const override { return inner_->closed(); }
  void close() override { inner_->close(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  std::unique_ptr<net::transport::DatagramLink> inner_;
  std::atomic<std::int64_t>* sent_;
  std::atomic<std::int64_t>* recv_;
};

}  // namespace adafl::bench
