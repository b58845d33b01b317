// EventLoop: the epoll transport that lets one server thread own 10,000
// sockets. These tests pin the properties the session relies on — frames
// arrive intact and attributed to the right connection, backpressure bounds
// the shard queues instead of growing server memory, accept respects
// max_clients, malformed streams and dead consumers are dropped (never the
// process), and the hot path does zero tensor heap allocations.
#include <gtest/gtest.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/transport/event_loop.h"
#include "net/transport/tcp.h"
#include "tensor/check.h"
#include "tensor/tensor.h"

namespace adafl::net::transport {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

Frame small_frame(std::uint32_t round, std::uint32_t client,
                  std::uint8_t fill = 0, std::size_t payload = 8) {
  Frame f;
  f.type = MsgType::kScore;
  f.round = round;
  f.client_id = client;
  f.payload.assign(payload, fill);
  return f;
}

/// The loop's activity as Carriers hears it: each on_activity() call. The
/// count outlives this object, so a loop stopped after it goes is safe.
class Activity {
 public:
  /// Registers on `loop`; construct before loop.start().
  explicit Activity(EventLoop& loop) {
    loop.on_activity([s = s_] {
      {
        std::lock_guard<std::mutex> lock(s->mu);
        ++s->seen;
      }
      s->cv.notify_all();
    });
  }
  /// True once the loop reported activity since the last wait; false after
  /// `timeout` without any.
  bool wait(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(s_->mu);
    const bool woke = s_->cv.wait_for(
        lock, timeout, [this] { return s_->seen != s_->taken; });
    s_->taken = s_->seen;
    return woke;
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t seen = 0;
    std::uint64_t taken = 0;
  };
  std::shared_ptr<State> s_ = std::make_shared<State>();
};

/// Polls the loop until `n` frames arrived or `deadline` passed, waiting
/// on its activity in between.
std::vector<InFrame> poll_until(EventLoop& loop, Activity& activity,
                                std::size_t n,
                                std::chrono::milliseconds deadline = 5000ms) {
  std::vector<InFrame> got;
  const auto until = Clock::now() + deadline;
  while (got.size() < n && Clock::now() < until) {
    if (loop.poll_all(got) == 0) activity.wait(20ms);
  }
  return got;
}

/// CPU time used by the whole process (every thread) so far.
double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Waits until `pred()` holds or `deadline` passed; returns pred().
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds deadline = 5000ms) {
  const auto until = Clock::now() + deadline;
  while (!pred()) {
    if (Clock::now() >= until) return false;
    std::this_thread::sleep_for(2ms);
  }
  return true;
}

TEST(EventLoop, AcceptDeliverRespond) {
  TcpListener listener(0);
  EventLoopConfig cfg;
  cfg.shards = 2;
  EventLoop loop(cfg);
  loop.adopt_listener(listener.fd());
  Activity activity(loop);
  loop.start();

  auto c0 = TcpTransport::connect("127.0.0.1", listener.port(), 1000ms);
  auto c1 = TcpTransport::connect("127.0.0.1", listener.port(), 1000ms);
  ASSERT_TRUE(c0 && c1);
  ASSERT_TRUE(c0->send(small_frame(1, 100, 0xA0)));
  ASSERT_TRUE(c1->send(small_frame(1, 101, 0xB1)));
  ASSERT_TRUE(c0->send(small_frame(2, 100, 0xA2)));

  auto got = poll_until(loop, activity, 3);
  ASSERT_EQ(got.size(), 3u);
  // Conn attribution: the two frames claiming client 100 share a ConnId,
  // client 101's differs.
  std::map<std::uint32_t, ConnId> by_client;
  for (const InFrame& inf : got) {
    auto [it, fresh] = by_client.emplace(inf.frame.client_id, inf.conn);
    if (!fresh) {
      EXPECT_EQ(it->second, inf.conn);
    }
  }
  EXPECT_EQ(by_client.size(), 2u);
  EXPECT_NE(by_client[100], by_client[101]);
  EXPECT_EQ(loop.open_connections(), 2u);

  // Respond with ONE shared buffer queued to both connections (the MODEL
  // broadcast shape) and check both peers receive the identical frame.
  const Frame resp = small_frame(3, kServerId, 0xC3, 64);
  auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
      encode_frame(resp));
  loop.send(by_client[100], bytes);
  loop.send(by_client[101], bytes);
  EXPECT_TRUE(loop.flush(2000ms));
  for (TcpTransport* c : {c0.get(), c1.get()}) {
    auto f = c->recv(2000ms);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->round, resp.round);
    EXPECT_EQ(f->payload, resp.payload);
  }

  // close_conn surfaces in take_closed and drops the count.
  loop.close_conn(by_client[100]);
  EXPECT_TRUE(eventually([&] {
    auto closed = loop.take_closed();
    return std::find(closed.begin(), closed.end(), by_client[100]) !=
           closed.end();
  }));
  EXPECT_EQ(loop.open_connections(), 1u);
  loop.stop();
}

TEST(EventLoop, MaxClientsPausesAcceptUntilAConnCloses) {
  TcpListener listener(0);
  EventLoopConfig cfg;
  cfg.max_clients = 2;
  EventLoop loop(cfg);
  loop.adopt_listener(listener.fd());
  Activity activity(loop);
  loop.start();

  auto c0 = TcpTransport::connect("127.0.0.1", listener.port(), 1000ms);
  auto c1 = TcpTransport::connect("127.0.0.1", listener.port(), 1000ms);
  ASSERT_TRUE(c0 && c1);
  ASSERT_TRUE(eventually([&] { return loop.open_connections() == 2u; }));

  // The third connect succeeds at the TCP level (kernel backlog) but the
  // loop must not accept it while at the cap.
  auto c2 = TcpTransport::connect("127.0.0.1", listener.port(), 1000ms);
  ASSERT_TRUE(c2);
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(loop.open_connections(), 2u);

  // Freeing a slot lets the parked connection in; its frames then flow.
  c0->close();
  ASSERT_TRUE(eventually([&] {
    loop.take_closed();
    return loop.open_connections() == 2u && !loop.take_accepted().empty();
  }));
  ASSERT_TRUE(c2->send(small_frame(1, 42)));
  auto got = poll_until(loop, activity, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].frame.client_id, 42u);
  loop.stop();
}

// The backpressure satellite: a shard the session never drains stalls its
// connections' reads — bounded queue, bounded memory — and once draining
// starts every frame sent arrives intact. Steady-state operation does zero
// tensor heap allocations.
TEST(EventLoop, BackpressureBoundsQueueThenDeliversEverything) {
  TcpListener listener(0);
  EventLoopConfig cfg;
  cfg.shards = 1;
  cfg.queue_depth = 8;
  cfg.read_budget = 4096;  // small so one cycle cannot swallow the burst
  EventLoop loop(cfg);
  loop.adopt_listener(listener.fd());
  Activity activity(loop);
  loop.start();

  auto c = TcpTransport::connect("127.0.0.1", listener.port(), 1000ms);
  ASSERT_TRUE(c);
  constexpr int kFrames = 600;
  std::thread sender([&] {
    // TcpTransport::send blocks once kernel buffers fill behind the paused
    // reader, then unblocks as the main thread drains — exactly the
    // sender-side stall backpressure is meant to produce.
    for (int i = 0; i < kFrames; ++i)
      ASSERT_TRUE(c->send(small_frame(static_cast<std::uint32_t>(i), 7,
                                      static_cast<std::uint8_t>(i))));
  });

  // Do not drain: the shard must saturate and pause the connection's reads.
  ASSERT_TRUE(eventually([&] { return loop.read_pauses() > 0; }));
  EXPECT_GE(loop.peak_queue_depth(), cfg.queue_depth);
  // Overshoot is bounded by what one read chunk can decode on top of an
  // almost-full queue — never proportional to the whole burst.
  const std::size_t max_overshoot = cfg.read_budget / kFrameHeaderBytes + 1;
  EXPECT_LE(loop.peak_queue_depth(), cfg.queue_depth + max_overshoot);

  // Steady-state drain must not touch the tensor heap.
  const std::uint64_t allocs_before = tensor::tensor_allocations();
  auto got = poll_until(loop, activity, kFrames, 10000ms);
  EXPECT_EQ(tensor::tensor_allocations(), allocs_before);
  sender.join();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {  // in order, intact
    EXPECT_EQ(got[static_cast<std::size_t>(i)].frame.round,
              static_cast<std::uint32_t>(i));
    EXPECT_EQ(got[static_cast<std::size_t>(i)].frame.payload[0],
              static_cast<std::uint8_t>(i));
  }
  EXPECT_LE(loop.peak_queue_depth(), cfg.queue_depth + max_overshoot);
  loop.stop();
}

TEST(EventLoop, MalformedStreamDropsOnlyThatConnection) {
  TcpListener listener(0);
  EventLoop loop(EventLoopConfig{});
  loop.adopt_listener(listener.fd());
  Activity activity(loop);
  loop.start();

  auto good = TcpTransport::connect("127.0.0.1", listener.port(), 1000ms);
  auto bad = TcpTransport::connect("127.0.0.1", listener.port(), 1000ms);
  ASSERT_TRUE(good && bad);
  ASSERT_TRUE(eventually([&] { return loop.open_connections() == 2u; }));

  ASSERT_TRUE(good->send(small_frame(1, 5)));
  auto got = poll_until(loop, activity, 1);
  ASSERT_EQ(got.size(), 1u);
  const ConnId good_conn = got[0].conn;

  // One good frame first so we learn the corrupt connection's id, then an
  // invalid message type (transmitted fine — only the parser validates the
  // type byte). The resulting CheckError inside the loop thread must
  // translate to "drop that conn", never an exception out of the loop.
  ASSERT_TRUE(bad->send(small_frame(1, 6)));
  got = poll_until(loop, activity, 1);
  ASSERT_EQ(got.size(), 1u);
  const ConnId bad_conn = got[0].conn;
  Frame invalid;
  invalid.type = static_cast<MsgType>(0xEE);
  invalid.round = 1;
  invalid.client_id = 6;
  EXPECT_TRUE(bad->send(invalid));
  EXPECT_TRUE(eventually([&] {
    auto closed = loop.take_closed();
    return std::find(closed.begin(), closed.end(), bad_conn) != closed.end();
  }));

  // The well-behaved connection is unaffected.
  ASSERT_TRUE(good->send(small_frame(4, 5)));
  got = poll_until(loop, activity, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].conn, good_conn);
  loop.stop();
}

TEST(EventLoop, DeadConsumerIsDroppedOnOutbufOverflow) {
  TcpListener listener(0);
  EventLoopConfig cfg;
  cfg.max_outbuf_bytes = 64 * 1024;
  EventLoop loop(cfg);
  loop.adopt_listener(listener.fd());
  Activity activity(loop);
  loop.start();

  auto c = TcpTransport::connect("127.0.0.1", listener.port(), 1000ms);
  ASSERT_TRUE(c);
  ASSERT_TRUE(c->send(small_frame(1, 3)));
  auto got = poll_until(loop, activity, 1);
  ASSERT_EQ(got.size(), 1u);
  const ConnId conn = got[0].conn;

  // The client never reads. Kernel buffers fill, EPOLLOUT stops making
  // progress, the unsent backlog crosses max_outbuf_bytes, and the loop
  // drops the connection rather than buffering without bound.
  auto chunk = std::make_shared<const std::vector<std::uint8_t>>(
      encode_frame(small_frame(2, kServerId, 0x55, 32 * 1024)));
  for (int i = 0; i < 512; ++i) loop.send(conn, chunk);
  EXPECT_TRUE(eventually(
      [&] {
        auto closed = loop.take_closed();
        return std::find(closed.begin(), closed.end(), conn) != closed.end();
      },
      10000ms));
  EXPECT_EQ(loop.open_connections(), 0u);
  loop.stop();
}

TEST(EventLoop, WaitActivityTimesOutQuietAndWakesOnTraffic) {
  TcpListener listener(0);
  EventLoop loop(EventLoopConfig{});
  loop.adopt_listener(listener.fd());
  Activity activity(loop);
  loop.start();

  const auto t0 = Clock::now();
  EXPECT_FALSE(activity.wait(30ms));
  EXPECT_GE(Clock::now() - t0, 25ms);

  auto c = TcpTransport::connect("127.0.0.1", listener.port(), 1000ms);
  ASSERT_TRUE(c);
  EXPECT_TRUE(activity.wait(2000ms));  // the accept is activity
  loop.stop();
}

TEST(EventLoop, WatchedFdReadinessWakesWaitActivity) {
  // A watched fd's callback moves data into transports the session pumps
  // (the UDP mux), so its readiness is activity like a frame: a session
  // waiting for work must wake instead of sleeping out its timeout.
  const int efd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  ASSERT_GE(efd, 0);
  EventLoop loop(EventLoopConfig{});
  loop.watch_fd(efd, [efd] {
    std::uint64_t drained = 0;
    while (::read(efd, &drained, sizeof(drained)) > 0) {
    }
  });
  Activity activity(loop);
  loop.start();
  const std::uint64_t one = 1;
  ASSERT_EQ(::write(efd, &one, sizeof(one)),
            static_cast<ssize_t>(sizeof(one)));

  const auto t0 = Clock::now();
  EXPECT_TRUE(activity.wait(5000ms));
  EXPECT_LT(Clock::now() - t0, 2500ms);
  loop.stop();
  ::close(efd);
}

TEST(EventLoop, ShutDownListenerIsDroppedNotSpunOn) {
  // TcpListener::close() shuts an adopted listener down under the running
  // loop (a relay being killed does this). accept4 then fails with EINVAL
  // and level-triggered epoll reports the fd again at once: the loop must
  // drop the listener instead of spinning a core on it.
  TcpListener listener(0);
  EventLoop loop(EventLoopConfig{});
  loop.adopt_listener(listener.fd());
  loop.start();
  auto c = TcpTransport::connect("127.0.0.1", listener.port(), 1000ms);
  ASSERT_TRUE(c);
  ASSERT_TRUE(eventually([&] { return loop.open_connections() == 1; }));

  listener.close();
  const double cpu0 = process_cpu_seconds();
  std::this_thread::sleep_for(300ms);
  const double cpu = process_cpu_seconds() - cpu0;
  EXPECT_LT(cpu, 0.05) << "the loop spins on the shut-down listener";
  EXPECT_EQ(loop.open_connections(), 1u);  // accepted peers keep being served
  loop.stop();
}

}  // namespace
}  // namespace adafl::net::transport
