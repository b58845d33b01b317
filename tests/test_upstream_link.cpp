// UpstreamLink: the one redial policy every dialer shares, driven on a fake
// clock over in-process loopback pairs (no sockets, threads or sleeps).
#include "net/transport/upstream_link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/transport/loopback.h"

namespace adafl::net::transport {
namespace {

using std::chrono::milliseconds;
using Event = UpstreamLink::Event;
using Clock = UpstreamLink::Clock;

/// A fake clock plus a scripted dialer that records every dial.
class UpstreamLinkTest : public ::testing::Test {
 protected:
  UpstreamLinkTest() { cfg_.backoff.initial = milliseconds(10); }

  /// `accept(i)` decides whether dial number i (0-based) connects.
  UpstreamLink make(std::size_t endpoints,
                    std::function<bool(std::size_t)> accept) {
    return UpstreamLink(
        cfg_,
        [this, accept](std::size_t ep) -> std::unique_ptr<Transport> {
          const std::size_t i = dials_.size();
          dials_.push_back(ep);
          if (!accept(i)) return nullptr;
          auto pair = make_loopback_pair();
          servers_.push_back(std::move(pair.first));
          return std::move(pair.second);
        },
        endpoints, [this] { return now_; });
  }

  /// Advances the clock to the link's next deadline and polls until it
  /// dials once (or gives up).
  Event dial_once(UpstreamLink& link) {
    const std::size_t before = dials_.size();
    for (;;) {
      now_ = std::max(now_, link.next_poll());
      const Event ev = link.poll();
      if (dials_.size() > before || ev == Event::kGaveUp) return ev;
    }
  }

  static Frame server_frame() {
    return Frame{MsgType::kModel, 1, kServerId, {1, 2, 3}};
  }

  UpstreamLinkConfig cfg_;
  Clock::time_point now_{};
  std::vector<std::size_t> dials_;
  std::vector<std::unique_ptr<LoopbackTransport>> servers_;
};

TEST_F(UpstreamLinkTest, FirstDialIsImmediateThenDelaysGrow) {
  auto link = make(1, [](std::size_t) { return false; });
  EXPECT_EQ(link.poll(), Event::kIdle);
  ASSERT_EQ(dials_.size(), 1u);  // no wait before the first dial

  std::vector<Clock::duration> gaps;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point before = now_;
    now_ = link.next_poll() - milliseconds(1);
    link.poll();
    EXPECT_EQ(dials_.size(), static_cast<std::size_t>(i + 1));  // not yet
    dial_once(link);
    gaps.push_back(now_ - before);
  }
  EXPECT_EQ(gaps[0], cfg_.backoff.delay(1));
  EXPECT_EQ(gaps[1], cfg_.backoff.delay(2));
  EXPECT_EQ(gaps[2], cfg_.backoff.delay(3));
  EXPECT_LT(gaps[0], gaps[1]);
  EXPECT_LT(gaps[1], gaps[2]);
}

TEST_F(UpstreamLinkTest, RotatesAfterBudgetAndGivesUpAfterEveryEndpoint) {
  cfg_.backoff.max_attempts = 3;
  auto link = make(2, [](std::size_t) { return false; });
  Event ev = Event::kIdle;
  for (int i = 0; i < 20 && ev != Event::kGaveUp; ++i) ev = dial_once(link);
  EXPECT_EQ(ev, Event::kGaveUp);
  EXPECT_EQ(dials_, (std::vector<std::size_t>{0, 0, 0, 1, 1, 1}));
  EXPECT_EQ(link.rotations(), 1);
  EXPECT_EQ(link.poll(), Event::kGaveUp);
  EXPECT_EQ(dials_.size(), 6u);
}

TEST_F(UpstreamLinkTest, UnboundedBudgetRotatesAndNeverGivesUp) {
  cfg_.backoff.max_attempts = 0;
  auto link = make(2, [](std::size_t) { return false; });
  for (int i = 0; i < 40; ++i) ASSERT_NE(dial_once(link), Event::kGaveUp);
  for (std::size_t i = 0; i < dials_.size(); ++i)
    EXPECT_EQ(dials_[i], (i / kUnboundedRotateAttempts) % 2) << "dial " << i;
  EXPECT_EQ(link.rotations(), 40 / kUnboundedRotateAttempts);
}

TEST_F(UpstreamLinkTest, CompletedRoundRefillsTheBudget) {
  // Every disconnect episode burns one failed dial; with max_attempts = 2
  // only a round completed in between keeps the link alive.
  cfg_.backoff.max_attempts = 2;
  for (const bool refill : {true, false}) {
    dials_.clear();
    auto link = make(1, [](std::size_t i) { return i % 2 == 1; });
    Event last = Event::kIdle;
    for (int episode = 1; episode <= 4; ++episode) {
      last = dial_once(link);  // fails
      if (last == Event::kGaveUp) break;
      ASSERT_EQ(dial_once(link), Event::kConnected);
      ASSERT_TRUE(servers_.back()->send(server_frame()));
      ASSERT_TRUE(link.recv(milliseconds(0)).has_value());
      if (refill) link.round_done(episode);
      servers_.back()->close();
    }
    if (refill) {
      EXPECT_NE(last, Event::kGaveUp);
      EXPECT_EQ(link.reconnects(), 3);
    } else {
      EXPECT_EQ(last, Event::kGaveUp);
      EXPECT_EQ(dials_.size(), 3u);
    }
  }
}

TEST_F(UpstreamLinkTest, RedialAfterADropWaitsTheBackoff) {
  // A connection that delivered frames does not count as a failed dial,
  // but its redial still waits: no reconnect storm after a drop.
  auto link = make(1, [](std::size_t) { return true; });
  ASSERT_EQ(link.poll(), Event::kConnected);
  ASSERT_TRUE(servers_.back()->send(server_frame()));
  ASSERT_TRUE(link.recv(milliseconds(0)).has_value());
  servers_.back()->close();
  const Clock::time_point dropped = now_;
  EXPECT_EQ(link.poll(), Event::kIdle);
  EXPECT_EQ(dials_.size(), 1u);
  EXPECT_EQ(link.next_poll(), dropped + cfg_.backoff.delay(0));
  EXPECT_EQ(dial_once(link), Event::kConnected);
  EXPECT_EQ(link.reconnects(), 1);
}

TEST_F(UpstreamLinkTest, ConnectionClosedBeforeAnyFrameIsAFailedDial) {
  // A server that rejects the handshake (closes at once) and one that never
  // answers (a dead UDP peer) both count against the budget.
  cfg_.backoff.max_attempts = 2;
  cfg_.liveness_timeout = milliseconds(100);
  auto link = make(1, [](std::size_t) { return true; });
  ASSERT_EQ(dial_once(link), Event::kConnected);
  ASSERT_TRUE(link.send(Frame{MsgType::kHello, 0, 3, {}}));
  servers_.back()->close();  // rejected
  ASSERT_EQ(dial_once(link), Event::kConnected);
  // Silent: the liveness timeout closes it, then the budget is spent.
  EXPECT_EQ(dial_once(link), Event::kGaveUp);
  EXPECT_EQ(dials_.size(), 2u);
  EXPECT_TRUE(servers_.back()->closed());
}

TEST_F(UpstreamLinkTest, PingsAfterSilenceAndClosesAfterLiveness) {
  cfg_.heartbeat_interval = milliseconds(100);
  cfg_.liveness_timeout = milliseconds(300);
  cfg_.self_id = 9;
  auto link = make(1, [](std::size_t) { return true; });
  const Clock::time_point t0 = now_;
  ASSERT_EQ(link.poll(), Event::kConnected);
  LoopbackTransport& server = *servers_.back();
  EXPECT_EQ(link.next_poll(), t0 + milliseconds(100));

  const auto pings = [&server] {
    int n = 0;
    while (const auto f = server.recv(milliseconds(0))) {
      EXPECT_EQ(f->type, MsgType::kPing);
      EXPECT_EQ(f->client_id, 9u);
      ++n;
    }
    return n;
  };
  now_ = t0 + milliseconds(99);
  link.poll();
  EXPECT_EQ(pings(), 0);  // not yet silent for the interval
  now_ = t0 + milliseconds(100);
  link.poll();
  EXPECT_EQ(pings(), 1);
  now_ = t0 + milliseconds(150);
  link.poll();
  EXPECT_EQ(pings(), 0);  // one PING per interval
  EXPECT_EQ(link.next_poll(), t0 + milliseconds(200));
  now_ = t0 + milliseconds(200);
  link.poll();
  EXPECT_EQ(pings(), 1);

  ASSERT_TRUE(server.send(server_frame()));  // heard at t0 + 250 ms
  now_ = t0 + milliseconds(250);
  ASSERT_TRUE(link.recv(milliseconds(0)).has_value());
  now_ = t0 + milliseconds(549);
  link.poll();
  EXPECT_TRUE(link.connected());
  EXPECT_EQ(pings(), 1);
  now_ = t0 + milliseconds(550);
  EXPECT_EQ(link.poll(), Event::kIdle);
  EXPECT_FALSE(link.connected());
  EXPECT_TRUE(server.closed());
}

}  // namespace
}  // namespace adafl::net::transport
