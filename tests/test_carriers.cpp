// Carriers: the serving shell's I/O under the root and the relay's child
// side. These tests pin what both owners rely on — one ConnId space over an
// EventLoop's sockets and pumped transports, one poll into a frame batch,
// closes reported once for reaping after dispatch, one send that shares a
// broadcast's encoded image across every peer on both carriers, pumped
// polls that never sleep and visit only the peers that signalled, and one
// idle wait that a pumped frame, a close, an arrival or loop activity ends.
#include "net/transport/carriers.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "net/transport/loopback.h"
#include "net/transport/tcp.h"
#include "net/transport/udp.h"
#include "tensor/check.h"

namespace adafl::net::transport {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

Frame tagged(std::uint32_t peer, std::uint32_t seq) {
  Frame f;
  f.type = MsgType::kScore;
  f.round = seq;
  f.client_id = peer;
  f.payload.assign(8, static_cast<std::uint8_t>(seq));
  return f;
}

/// Polls until `batch` holds `n` frames or `deadline` passes, waiting on
/// the carriers between empty passes.
void poll_until(Carriers& c, std::vector<InFrame>& batch, std::size_t n,
                std::chrono::milliseconds deadline = 5000ms) {
  const auto until = Clock::now() + deadline;
  while (batch.size() < n && Clock::now() < until) {
    const std::size_t before = batch.size();
    c.poll(batch);
    if (batch.size() == before) c.wait(2ms);
  }
}

/// A pumped peer on a script: hands out `frames`, then throws CheckError
/// on the next recv when `throw_after` is set. `state` outlives it, so a
/// test can watch the transport the carriers own.
struct ScriptState {
  std::deque<Frame> frames;
  bool throw_after = false;
  bool send_ok = true;
  bool closed = false;
};

class ScriptedTransport final : public Transport {
 public:
  explicit ScriptedTransport(std::shared_ptr<ScriptState> s)
      : s_(std::move(s)) {}
  bool send(const Frame&) override {
    if (!s_->send_ok) s_->closed = true;
    return !s_->closed;
  }
  std::optional<Frame> recv(std::chrono::milliseconds) override {
    if (s_->closed) return std::nullopt;
    if (!s_->frames.empty()) {
      Frame f = std::move(s_->frames.front());
      s_->frames.pop_front();
      return f;
    }
    if (s_->throw_after) throw CheckError("scripted: malformed stream");
    return std::nullopt;
  }
  bool closed() const override { return s_->closed; }
  void close() override { s_->closed = true; }
  std::string peer() const override { return "scripted"; }

 private:
  std::shared_ptr<ScriptState> s_;
};

/// A pumped peer over `inner` that counts its recv calls, and forwards the
/// wake only when `signals` (as a pass-through decorator may).
class CountingTransport final : public Transport {
 public:
  CountingTransport(std::unique_ptr<Transport> inner, bool signals,
                    std::atomic<int>* recvs)
      : inner_(std::move(inner)), signals_(signals), recvs_(recvs) {}
  bool send(const Frame& f) override { return inner_->send(f); }
  std::optional<Frame> recv(std::chrono::milliseconds timeout) override {
    recvs_->fetch_add(1);
    return inner_->recv(timeout);
  }
  bool set_wake(Wake wake) override {
    return signals_ && inner_->set_wake(std::move(wake));
  }
  bool closed() const override { return inner_->closed(); }
  void close() override { inner_->close(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  std::unique_ptr<Transport> inner_;
  bool signals_;
  std::atomic<int>* recvs_;
};

/// How long carriers.wait(10 s) takes while another thread runs `act`
/// 50 ms into it.
Clock::duration timed_wait(Carriers& carriers,
                           const std::function<void()>& act) {
  std::thread other([&act] {
    std::this_thread::sleep_for(50ms);
    act();
  });
  const auto t0 = Clock::now();
  carriers.wait(10000ms);
  const auto took = Clock::now() - t0;
  other.join();
  return took;
}

/// A connected pair of each kind that can signal: a loopback stream, and
/// FEC datagrams over a loopback link.
std::vector<std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>>
signalling_pairs() {
  std::vector<
      std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>>
      pairs;
  auto stream = make_loopback_pair();
  pairs.emplace_back(std::move(stream.first), std::move(stream.second));
  auto link = make_datagram_loopback_pair();
  pairs.emplace_back(
      std::make_unique<UdpTransport>(std::move(link.first), UdpFecConfig{}),
      std::make_unique<UdpTransport>(std::move(link.second), UdpFecConfig{}));
  return pairs;
}

TEST(Carriers, PumpedFrameEndsTheIdleWait) {
  for (auto& [server, client] : signalling_pairs()) {
    const std::string kind = server->peer();
    Carriers carriers;
    carriers.add_transport(std::move(server));
    std::vector<InFrame> batch;
    carriers.poll(batch);
    ASSERT_TRUE(batch.empty());

    Transport* const peer = client.get();
    const auto took = timed_wait(
        carriers, [peer] { EXPECT_TRUE(peer->send(tagged(1, 2))); });
    EXPECT_LT(took, 2s) << kind << ": the frame did not end the wait";
    poll_until(carriers, batch, 1);
    ASSERT_EQ(batch.size(), 1u) << kind;
    EXPECT_EQ(batch[0].frame.round, 2u);
    carriers.close_all(0ms);
  }
}

TEST(Carriers, ArrivalEndsTheIdleWait) {
  Carriers carriers;
  auto pair = make_loopback_pair();
  std::unique_ptr<Transport> server = std::move(pair.first);
  const auto took = timed_wait(
      carriers, [&] { carriers.add_transport(std::move(server)); });
  EXPECT_LT(took, 2s);
  std::vector<InFrame> batch;
  carriers.poll(batch);
  EXPECT_EQ(carriers.size(), 1u);
  EXPECT_TRUE(carriers.open(Carriers::kPumpedBase));
  carriers.close_all(0ms);
}

TEST(Carriers, WakeBeforeAnEmptyPollStillEndsTheNextWait) {
  // A relay reads its parent itself, before it polls its children: a parent
  // frame whose wake() lands just before a poll that finds nothing must
  // still end the wait that follows.
  Carriers carriers;
  carriers.wake();
  std::vector<InFrame> batch;
  carriers.poll(batch);
  ASSERT_TRUE(batch.empty());
  auto t0 = Clock::now();
  carriers.wait(10000ms);
  EXPECT_LT(Clock::now() - t0, 2s);
  // That wait took the wake: the next one sleeps out its idle.
  carriers.poll(batch);
  t0 = Clock::now();
  carriers.wait(30ms);
  EXPECT_GE(Clock::now() - t0, 25ms);
}

TEST(Carriers, PeerCloseEndsTheIdleWaitAndIsReportedGone) {
  for (auto& [server, client] : signalling_pairs()) {
    const std::string kind = server->peer();
    Carriers carriers;
    carriers.add_transport(std::move(server));
    std::vector<InFrame> batch;
    carriers.poll(batch);
    ASSERT_TRUE(carriers.take_gone().empty()) << kind;

    Transport* const peer = client.get();
    const auto took = timed_wait(carriers, [peer] { peer->close(); });
    EXPECT_LT(took, 2s) << kind << ": the close did not end the wait";
    carriers.poll(batch);
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(carriers.take_gone(), std::vector<ConnId>{Carriers::kPumpedBase})
        << kind;
    carriers.close(Carriers::kPumpedBase);
    EXPECT_EQ(carriers.size(), 0u);
  }
}

TEST(Carriers, PollVisitsOnlySignalledPeers) {
  constexpr int kIdle = 1000;  // peers that forward the wake
  constexpr int kSent = 617;   // the one of them that gets a frame
  Carriers carriers;
  std::vector<std::unique_ptr<LoopbackTransport>> clients;
  // One more peer, last, keeps the default: it cannot signal.
  std::vector<std::atomic<int>> recvs(kIdle + 1);
  for (int p = 0; p <= kIdle; ++p) {
    auto [server, client] = make_loopback_pair();
    carriers.add_transport(std::make_unique<CountingTransport>(
        std::move(server), /*signals=*/p < kIdle,
        &recvs[static_cast<std::size_t>(p)]));
    clients.push_back(std::move(client));
  }
  std::vector<InFrame> batch;
  carriers.poll(batch);  // adoption visits each peer once
  ASSERT_TRUE(batch.empty());
  ASSERT_EQ(carriers.size(), static_cast<std::size_t>(kIdle + 1));
  for (auto& r : recvs) r.store(0);

  ASSERT_TRUE(clients[kSent]->send(tagged(kSent, 1)));
  ASSERT_TRUE(clients[kIdle]->send(tagged(kIdle, 1)));
  carriers.poll(batch);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].frame.client_id, static_cast<std::uint32_t>(kSent));
  EXPECT_EQ(batch[1].frame.client_id, static_cast<std::uint32_t>(kIdle))
      << "not in ConnId order";
  int idle_recvs = 0;
  for (int p = 0; p < kIdle; ++p)
    if (p != kSent) idle_recvs += recvs[static_cast<std::size_t>(p)].load();
  EXPECT_EQ(idle_recvs, 0) << "a poll visited peers that did not signal";
  EXPECT_EQ(recvs[kSent].load(), 2);  // its frame, then empty
  EXPECT_EQ(recvs[kIdle].load(), 2);

  // A pass with nothing signalled still visits the peer that cannot.
  batch.clear();
  carriers.poll(batch);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(recvs[kSent].load(), 2);
  EXPECT_EQ(recvs[kIdle].load(), 3);
  carriers.close_all(0ms);
}

TEST(Carriers, TransportsAddedMidPollDeliverEveryFrameOnceInOrder) {
  constexpr int kPeers = 16;
  constexpr int kFrames = 20;
  Carriers carriers;
  std::vector<std::unique_ptr<LoopbackTransport>> clients;
  std::thread adder([&] {
    for (int p = 0; p < kPeers; ++p) {
      auto [server, client] = make_loopback_pair();
      carriers.add_transport(std::move(server));
      for (int s = 0; s < kFrames; ++s)
        ASSERT_TRUE(client->send(tagged(static_cast<std::uint32_t>(p),
                                        static_cast<std::uint32_t>(s))));
      clients.push_back(std::move(client));
    }
  });
  std::vector<InFrame> batch;
  poll_until(carriers, batch, kPeers * kFrames);
  adder.join();
  carriers.poll(batch);  // nothing may arrive twice
  ASSERT_EQ(batch.size(), static_cast<std::size_t>(kPeers * kFrames));

  std::map<ConnId, std::vector<Frame>> by_conn;
  for (InFrame& inf : batch) {
    EXPECT_GE(inf.conn, Carriers::kPumpedBase);
    by_conn[inf.conn].push_back(std::move(inf.frame));
  }
  ASSERT_EQ(by_conn.size(), static_cast<std::size_t>(kPeers));
  std::vector<bool> seen(kPeers, false);
  for (const auto& [conn, frames] : by_conn) {
    EXPECT_TRUE(carriers.open(conn));
    const std::uint32_t peer = frames.front().client_id;
    ASSERT_LT(peer, static_cast<std::uint32_t>(kPeers));
    EXPECT_FALSE(seen[peer]) << "two connections carry peer " << peer;
    seen[peer] = true;
    ASSERT_EQ(frames.size(), static_cast<std::size_t>(kFrames));
    for (std::size_t s = 0; s < frames.size(); ++s) {
      EXPECT_EQ(frames[s].client_id, peer);
      EXPECT_EQ(frames[s].round, s) << "out of order on peer " << peer;
    }
  }
  EXPECT_TRUE(carriers.take_gone().empty());
  EXPECT_EQ(carriers.size(), static_cast<std::size_t>(kPeers));
}

TEST(Carriers, MalformedStreamKeepsEarlierFramesAndIsReportedGone) {
  auto st = std::make_shared<ScriptState>();
  st->frames = {tagged(7, 0), tagged(7, 1)};
  st->throw_after = true;
  Carriers carriers;
  carriers.add_transport(std::make_unique<ScriptedTransport>(st));

  std::vector<InFrame> batch;
  carriers.poll(batch);
  ASSERT_EQ(batch.size(), 2u);
  const ConnId conn = batch[0].conn;
  EXPECT_EQ(batch[1].conn, conn);
  EXPECT_EQ(batch[0].frame.round, 0u);
  EXPECT_EQ(batch[1].frame.round, 1u);
  EXPECT_TRUE(st->closed);
  // Open until reaped, so dispatch still handles the two frames.
  EXPECT_TRUE(carriers.open(conn));
  EXPECT_EQ(carriers.take_gone(), std::vector<ConnId>{conn});
  EXPECT_TRUE(carriers.take_gone().empty());
  carriers.close(conn);
  EXPECT_FALSE(carriers.open(conn));
  EXPECT_EQ(carriers.size(), 0u);
}

TEST(Carriers, FailedPumpedSendClosesTheConnection) {
  auto st = std::make_shared<ScriptState>();
  st->frames = {tagged(3, 0)};
  st->send_ok = false;
  Carriers carriers;
  carriers.add_transport(std::make_unique<ScriptedTransport>(st));
  std::vector<InFrame> batch;
  carriers.poll(batch);
  ASSERT_EQ(batch.size(), 1u);
  const ConnId conn = batch[0].conn;

  EXPECT_FALSE(carriers.send(conn, tagged(3, 1)));
  EXPECT_TRUE(st->closed);
  EXPECT_FALSE(carriers.open(conn));
  EXPECT_FALSE(carriers.send(conn, tagged(3, 2)));  // gone, not re-sent
  carriers.close(conn);
  carriers.close(conn);
  EXPECT_FALSE(carriers.open(conn));
  EXPECT_EQ(carriers.size(), 0u);
}

/// A started loop carrier with `n` TCP peers, each known to the carriers
/// (it sent one frame). Returns the peers' connection ids, in peer order.
std::vector<ConnId> connect_loop_peers(
    Carriers& carriers, TcpListener& listener, std::size_t n,
    std::vector<std::unique_ptr<TcpTransport>>& peers) {
  std::vector<ConnId> conns;
  for (std::size_t i = 0; i < n; ++i) {
    peers.push_back(
        TcpTransport::connect("127.0.0.1", listener.port(), 1000ms));
    EXPECT_TRUE(peers.back() &&
                peers.back()->send(tagged(static_cast<std::uint32_t>(i), 0)));
    std::vector<InFrame> batch;
    poll_until(carriers, batch, 1);
    EXPECT_EQ(batch.size(), 1u);
    if (batch.empty()) return conns;
    EXPECT_LT(batch[0].conn, Carriers::kPumpedBase);
    EXPECT_TRUE(carriers.open(batch[0].conn));
    conns.push_back(batch[0].conn);
  }
  return conns;
}

TEST(Carriers, LoopAndPumpedPeersShareOneImage) {
  TcpListener listener(0);
  EventLoop loop(EventLoopConfig{});
  loop.adopt_listener(listener.fd());
  Carriers carriers;
  carriers.attach(&loop);
  carriers.start();
  std::vector<std::unique_ptr<TcpTransport>> peers;
  const std::vector<ConnId> conns =
      connect_loop_peers(carriers, listener, 2, peers);
  ASSERT_EQ(conns.size(), 2u);
  auto [server, client] = make_loopback_pair();
  carriers.add_transport(std::move(server));
  std::vector<InFrame> batch;
  carriers.poll(batch);
  ASSERT_EQ(carriers.size(), 3u);

  // The pumped loopback peer goes first and fills the slot; both loop
  // peers are then queued the same bytes.
  const Frame broadcast = tagged(99, 5);
  FrameImage image;
  ASSERT_TRUE(carriers.send(Carriers::kPumpedBase, broadcast, &image));
  ASSERT_TRUE(image.bytes) << "the pumped send did not fill the slot";
  const FrameBytes first = image.bytes;
  ASSERT_TRUE(carriers.send(conns[0], broadcast, &image));
  ASSERT_TRUE(carriers.send(conns[1], broadcast, &image));
  EXPECT_EQ(image.bytes, first) << "a loop peer re-encoded the frame";
  EXPECT_EQ(*image.bytes, encode_frame(broadcast));

  for (auto& peer : peers) {
    const std::optional<Frame> got = peer->recv(2000ms);
    ASSERT_TRUE(got);
    EXPECT_EQ(got->payload, broadcast.payload);
  }
  const std::optional<Frame> got = client->recv(2000ms);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->client_id, 99u);
  carriers.close_all(0ms);
}

TEST(Carriers, PumpedBroadcastQueuesOneImageToEveryPeer) {
  constexpr int kPeers = 8;
  Carriers carriers;
  std::vector<std::unique_ptr<LoopbackTransport>> clients;
  for (int p = 0; p < kPeers; ++p) {
    auto [server, client] = make_loopback_pair();
    carriers.add_transport(std::move(server));
    clients.push_back(std::move(client));
  }
  std::vector<InFrame> batch;
  carriers.poll(batch);
  ASSERT_EQ(carriers.size(), static_cast<std::size_t>(kPeers));

  Frame broadcast = tagged(kServerId, 4);
  broadcast.type = MsgType::kModel;
  broadcast.payload.resize(4096);
  for (std::size_t i = 0; i < broadcast.payload.size(); ++i)
    broadcast.payload[i] = static_cast<std::uint8_t>(i * 131u + 7u);
  FrameImage image;
  const std::vector<std::uint8_t>* first = nullptr;
  for (int p = 0; p < kPeers; ++p) {
    ASSERT_TRUE(carriers.send(Carriers::kPumpedBase + p, broadcast, &image));
    ASSERT_TRUE(image.bytes);
    if (first == nullptr) first = image.bytes.get();
    EXPECT_EQ(image.bytes.get(), first)
        << "peer " << p << " re-encoded the frame";
  }
  // The slot plus one queued reference per peer: nothing was copied.
  EXPECT_EQ(image.bytes.use_count(), kPeers + 1);
  EXPECT_EQ(*image.bytes, encode_frame(broadcast));

  for (auto& client : clients) {
    const std::optional<Frame> got = client->recv(0ms);
    ASSERT_TRUE(got);
    EXPECT_EQ(got->type, broadcast.type);
    EXPECT_EQ(got->round, broadcast.round);
    EXPECT_EQ(got->client_id, broadcast.client_id);
    EXPECT_EQ(got->payload, broadcast.payload);
  }
  EXPECT_EQ(image.bytes.use_count(), 1);

  // A unicast (no slot) still encodes and delivers.
  const Frame unicast = tagged(3, 9);
  ASSERT_TRUE(carriers.send(Carriers::kPumpedBase + 3, unicast));
  const std::optional<Frame> got = clients[3]->recv(0ms);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->round, 9u);
  EXPECT_EQ(got->payload, unicast.payload);
  EXPECT_FALSE(clients[2]->recv(0ms));
  carriers.close_all(0ms);
}

// Carriers::poll visits every pumped transport with recv(0), so an empty
// poll must cost no more than a lock: a timed wait on a deadline already
// past still sleeps the timer slack (~50 us, 5000 polls ~ 275 ms).
TEST(PumpedPoll, ZeroTimeoutRecvOnEmptyLoopbacksNeverWaits) {
  constexpr int kPolls = 5000;
  auto [stream, stream_peer] = make_loopback_pair();
  auto [link, link_peer] = make_datagram_loopback_pair();
  auto t0 = Clock::now();
  for (int i = 0; i < kPolls; ++i) ASSERT_FALSE(stream->recv(0ms));
  EXPECT_LT(Clock::now() - t0, 50ms) << "LoopbackTransport";
  t0 = Clock::now();
  for (int i = 0; i < kPolls; ++i) ASSERT_FALSE(link->recv(0ms));
  EXPECT_LT(Clock::now() - t0, 50ms) << "LoopbackDatagramLink";
  EXPECT_FALSE(stream->closed());
  EXPECT_FALSE(link->closed());
}

TEST(Carriers, WaitEndsOnLoopActivityAndSleepsWithoutALoop) {
  Carriers plain;
  auto t0 = Clock::now();
  plain.wait(30ms);
  EXPECT_GE(Clock::now() - t0, 25ms);

  TcpListener listener(0);
  EventLoop loop(EventLoopConfig{});
  loop.adopt_listener(listener.fd());
  Carriers carriers;
  carriers.attach(&loop);
  carriers.start();
  auto peer = TcpTransport::connect("127.0.0.1", listener.port(), 1000ms);
  ASSERT_TRUE(peer);
  t0 = Clock::now();
  carriers.wait(5000ms);  // the accept is activity
  EXPECT_LT(Clock::now() - t0, 2500ms);
  // Accepted but not yet polled: the count sees it already.
  EXPECT_EQ(carriers.size(), 1u);
  carriers.close_all(0ms);
}

TEST(Carriers, CloseAllFlushesQueuedLoopFramesAndClosesArrivals) {
  TcpListener listener(0);
  EventLoop loop(EventLoopConfig{});
  loop.adopt_listener(listener.fd());
  Carriers carriers;
  carriers.attach(&loop);
  carriers.start();
  std::vector<std::unique_ptr<TcpTransport>> peers;
  const std::vector<ConnId> conns =
      connect_loop_peers(carriers, listener, 1, peers);
  ASSERT_EQ(conns.size(), 1u);
  auto [server, client] = make_loopback_pair();
  carriers.add_transport(std::move(server));  // pending: never polled
  EXPECT_EQ(carriers.size(), 2u);

  const Frame last{MsgType::kShutdown, 0, kServerId, {}};
  ASSERT_TRUE(carriers.send(conns[0], last));
  carriers.close_all(2000ms);

  const std::optional<Frame> got = peers[0]->recv(2000ms);
  ASSERT_TRUE(got) << "the queued frame was dropped at close";
  EXPECT_EQ(got->type, MsgType::kShutdown);
  EXPECT_FALSE(peers[0]->recv(2000ms));
  EXPECT_TRUE(peers[0]->closed());
  EXPECT_FALSE(client->recv(0ms));
  EXPECT_TRUE(client->closed());
  EXPECT_FALSE(carriers.open(conns[0]));
  EXPECT_EQ(carriers.size(), 0u);
}

}  // namespace
}  // namespace adafl::net::transport
