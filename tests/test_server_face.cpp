// ServerFace: the one catch-up, nudge and leaf-route policy of every serving
// role, driven on a fake clock with no sockets, threads or sleeps. The face
// serves leaves [8, 16) so every index is offset from its id.
#include "net/transport/server_face.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/transport/session.h"
#include "tensor/check.h"

namespace adafl::net::transport {
namespace {

using std::chrono::milliseconds;
using Clock = ServerFace::Clock;
using Claim = ServerFace::Claim;

constexpr int kBase = 8;
constexpr int kCount = 8;
constexpr milliseconds kNudge{100};

Claim leaf(int id) { return Claim{id, 1, false}; }
Claim range(int base, int count) { return Claim{base, count, true}; }

class ServerFaceTest : public ::testing::Test {
 protected:
  ServerFace make(milliseconds nudge = kNudge) {
    return ServerFace(ServerFaceConfig{kBase, kCount, nudge},
                      [this] { return now_; });
  }

  /// The queued sends as "<kind><leaf>@<conn>", '+' marking a resend.
  static std::string take(ServerFace& face) {
    std::string out;
    for (const ServerFace::Send& s : face.take_sends()) {
      if (!out.empty()) out += ' ';
      out += "WMS"[static_cast<int>(s.kind)];
      out += std::to_string(s.leaf) + "@" + std::to_string(s.conn);
      if (s.resend) out += '+';
    }
    return out;
  }

  void advance(milliseconds d) { now_ += d; }

  Clock::time_point now_{};
};

// --- Catch-up matrix. -----------------------------------------------------

TEST_F(ServerFaceTest, LeafCatchUpFollowsPhaseAndDebts) {
  ServerFace face = make();
  face.bind(1, leaf(8));
  EXPECT_EQ(take(face), "W8@1");  // no round open yet: WELCOME only

  face.begin_round(1);
  EXPECT_EQ(take(face), "M8@1");
  face.bind(2, leaf(9));  // unscored, score phase open
  EXPECT_EQ(take(face), "W9@2 M9@2");
  face.bind(3, leaf(8));  // rebind of a leaf that already got the MODEL
  EXPECT_EQ(take(face), "W8@3 M8@3+");
  face.score(10);
  face.bind(4, leaf(10));  // scored: nothing owed yet
  EXPECT_EQ(take(face), "W10@4");

  face.close_scores();
  face.select(11, 0.25);
  face.select(12, 0.5);
  face.deliver(12);
  face.bind(5, leaf(11));  // selected, undelivered
  EXPECT_EQ(take(face), "W11@5 S11@5+");
  face.bind(6, leaf(12));  // selected, delivered
  EXPECT_EQ(take(face), "W12@6");
  face.bind(7, leaf(13));  // unscored after the score phase closed
  EXPECT_EQ(take(face), "W13@7");
  EXPECT_DOUBLE_EQ(face.ratio(11), 0.25);
}

TEST_F(ServerFaceTest, RangeCatchUpSendsModelAndEveryOwedSelect) {
  ServerFace face = make();
  face.bind(1, range(8, 4));
  EXPECT_EQ(take(face), "W8@1");  // no round open yet

  face.begin_round(3);
  EXPECT_EQ(take(face), "M8@1");
  face.bind(2, range(12, 4));  // score phase: the MODEL, no SELECT owed
  EXPECT_EQ(take(face), "W12@2 M12@2");

  face.close_scores();
  face.select(13, 0.1);
  face.select(14, 0.2);
  face.select(15, 0.3);
  face.deliver(15);
  face.bind(3, leaf(14));  // a direct route wins over the range
  take(face);
  face.bind(4, range(12, 4));  // supersedes conn 2
  EXPECT_EQ(take(face), "W12@4 M12@4 S13@4+ S14@3+");
}

TEST_F(ServerFaceTest, AnnouncedLeafGetsItsOwedSelectOnly) {
  ServerFace face = make();
  face.bind(1, range(8, 8));
  face.begin_round(1);
  take(face);
  face.announce(9);  // score phase: nothing owed
  EXPECT_EQ(take(face), "");
  face.close_scores();
  face.select(9, 0.5);
  face.select(10, 0.5);
  face.set_alive(10, true);  // proof of life queues nothing
  EXPECT_EQ(take(face), "");
  face.announce(9);
  EXPECT_EQ(take(face), "S9@1+");
  face.deliver(9);
  face.announce(9);
  EXPECT_EQ(take(face), "");
}

TEST_F(ServerFaceTest, BeginRoundForgetsDebtsAndBroadcasts) {
  ServerFace face = make();
  face.bind(1, leaf(9));
  face.bind(2, range(12, 4));
  face.begin_round(1);
  face.score(9);
  face.close_scores();
  face.select(9, 0.5);
  face.deliver(9);
  face.deliver(9);  // a second delivery of the same leaf counts once
  EXPECT_EQ(face.delivered_count(), 1);
  take(face);

  face.begin_round(2);
  EXPECT_EQ(take(face), "M9@1 M12@2");
  EXPECT_EQ(face.phase(), ServerFace::Phase::kScore);
  EXPECT_FALSE(face.scored(9));
  EXPECT_FALSE(face.selected(9));
  EXPECT_FALSE(face.delivered(9));
  EXPECT_EQ(face.delivered_count(), 0);
  EXPECT_EQ(face.conns(), (std::vector<ConnId>{1, 2}));
}

TEST_F(ServerFaceTest, ResendModelsOnlyWhileTheScorePhaseIsOpen) {
  ServerFace face = make();
  face.bind(1, leaf(8));
  face.bind(2, leaf(9));
  face.bind(3, range(12, 4));
  face.set_alive(13, true);
  face.begin_round(1);
  take(face);
  face.score(9);
  face.resend_models();
  EXPECT_EQ(take(face), "M8@1+ M12@3+");
  face.close_scores();
  face.resend_models();
  EXPECT_EQ(take(face), "");
}

// --- Nudge schedule and targets. -----------------------------------------

TEST_F(ServerFaceTest, NudgeWaitsDoublesAndRestartsEveryPhase) {
  ServerFace face = make();
  face.bind(1, leaf(8));
  face.poll();
  EXPECT_EQ(take(face), "W8@1");  // no round: the nudge is idle
  face.begin_round(1);
  take(face);
  // The nudge fires `gap` after the phase opened or it last fired, not
  // a millisecond earlier.
  const auto fires_after = [&](milliseconds gap, const std::string& sends) {
    advance(gap - milliseconds(1));
    face.poll();
    EXPECT_EQ(take(face), "") << gap.count();
    advance(milliseconds(1));
    face.poll();
    EXPECT_EQ(take(face), sends) << gap.count();
  };
  fires_after(kNudge, "M8@1+");
  fires_after(2 * kNudge, "M8@1+");
  fires_after(4 * kNudge, "M8@1+");

  advance(milliseconds(50));
  face.close_scores();  // a new phase restarts the backoff
  face.select(8, 0.5);
  fires_after(kNudge, "S8@1+");
  fires_after(2 * kNudge, "S8@1+");
  face.close_scores();  // already closed: the backoff goes on
  fires_after(4 * kNudge, "S8@1+");

  advance(milliseconds(30));
  face.begin_round(2);
  take(face);
  fires_after(kNudge, "M8@1+");
}

TEST_F(ServerFaceTest, NudgeIsOffWhenTheGapIsNotPositive) {
  for (const milliseconds gap : {milliseconds(0), milliseconds(-5)}) {
    ServerFace face = make(gap);
    face.bind(1, leaf(8));
    face.begin_round(1);
    take(face);
    for (int i = 0; i < 4; ++i) {
      advance(std::chrono::hours(1));
      face.poll();
    }
    EXPECT_EQ(take(face), "") << gap.count();
  }
}

TEST_F(ServerFaceTest, NudgeSkipsLeavesThatAreNotLive) {
  ServerFace face = make();
  face.bind(1, range(8, 4));
  face.bind(2, range(12, 4));
  face.set_alive(9, true);
  face.set_alive(13, true);
  face.begin_round(1);
  take(face);
  face.score(13);  // range 12 has no live unscored leaf left
  advance(kNudge);
  face.poll();
  EXPECT_EQ(take(face), "M8@1+");

  face.close_scores();
  face.select(9, 0.5);
  face.select(10, 0.5);  // not announced alive
  face.select(13, 0.5);
  face.set_alive(13, false);  // CHILD_GONE
  advance(kNudge);
  face.poll();
  EXPECT_EQ(take(face), "S9@1+");
}

// --- Routes. --------------------------------------------------------------

TEST_F(ServerFaceTest, ReHelloSupersedesAndUnbindReportsLostLeaves) {
  ServerFace face = make();
  face.bind(1, leaf(8));
  EXPECT_EQ(face.bind(2, leaf(8)), (std::vector<ConnId>{1}));
  EXPECT_EQ(face.direct(8), 2u);
  EXPECT_TRUE(face.unbind(1).empty());  // superseded: the leaf is still live
  EXPECT_TRUE(face.live(8));
  EXPECT_EQ(face.binding(1), nullptr);
  EXPECT_EQ(face.unbind(2), (std::vector<int>{8}));
  EXPECT_FALSE(face.live(8));
  EXPECT_EQ(face.route(8), kNoConn);
  EXPECT_TRUE(face.unbind(2).empty());  // already unbound
}

TEST_F(ServerFaceTest, OverlappingRangeSupersedesAndUnbindReportsLostLeaves) {
  ServerFace face = make();
  face.bind(3, range(8, 8));
  face.set_alive(9, true);
  face.set_alive(12, true);
  EXPECT_EQ(face.bind(4, range(8, 4)), (std::vector<ConnId>{3}));
  EXPECT_FALSE(face.live(9));  // the new range has not announced it yet
  EXPECT_EQ(face.route(9), 4u);
  EXPECT_EQ(face.route(12), 3u);
  EXPECT_EQ(face.unbind(3), (std::vector<int>{12}));  // 9 moved to conn 4
  EXPECT_EQ(face.route(12), kNoConn);

  face.set_alive(9, true);
  face.bind(5, leaf(10));
  EXPECT_EQ(face.route(10), 5u);  // a direct route wins over the range
  ASSERT_NE(face.binding(4), nullptr);
  EXPECT_TRUE(face.binding(4)->range);
  EXPECT_TRUE(face.binding(4)->covers(11));
  EXPECT_FALSE(face.binding(4)->covers(12));
  EXPECT_EQ(face.unbind(4), (std::vector<int>{9}));  // 10 stays live
  EXPECT_TRUE(face.live(10));
}

TEST_F(ServerFaceTest, HelloCheckRejectsClaimsOutsideTheFace) {
  const ServerFace face = make();
  const auto hello = [](std::uint32_t id, std::uint32_t version) {
    return Frame{MsgType::kHello, 0, id, encode_hello(version)};
  };
  const auto relay_hello = [](std::uint32_t base, std::uint32_t count) {
    RelayHelloPayload h;
    h.version = kProtocolVersion;
    h.base = base;
    h.count = count;
    return Frame{MsgType::kRelayHello, 0, kServerId, encode_relay_hello(h)};
  };
  const Claim c = face.check_hello(hello(15, kProtocolVersion), 4);
  EXPECT_EQ(c.base, 15);
  EXPECT_FALSE(c.range);
  EXPECT_THROW(face.check_hello(hello(7, kProtocolVersion), 4), CheckError);
  EXPECT_THROW(face.check_hello(hello(16, kProtocolVersion), 4), CheckError);
  EXPECT_THROW(face.check_hello(hello(kServerId, kProtocolVersion), 4),
               CheckError);
  EXPECT_THROW(face.check_hello(hello(8, kProtocolVersion + 1), 4),
               CheckError);

  const Claim r = face.check_hello(relay_hello(12, 4), 4);
  EXPECT_EQ(r.base, 12);
  EXPECT_EQ(r.count, 4);
  EXPECT_TRUE(r.range);
  EXPECT_THROW(face.check_hello(relay_hello(4, 8), 4), CheckError);
  EXPECT_THROW(face.check_hello(relay_hello(12, 8), 4), CheckError);
  EXPECT_THROW(face.check_hello(relay_hello(0xFFFFFFFCu, 8), 4), CheckError);
  EXPECT_THROW(face.check_hello(relay_hello(10, 4), 4), CheckError);
  EXPECT_THROW(face.check_hello(relay_hello(8, 4), 0), CheckError);
  EXPECT_THROW(
      face.check_hello(Frame{MsgType::kScore, 0, 8, encode_f64(0.5)}, 4),
      CheckError);

  EXPECT_TRUE(face.contains(8));
  EXPECT_TRUE(face.contains(15));
  EXPECT_FALSE(face.contains(7));
  EXPECT_FALSE(face.contains(16));
  EXPECT_FALSE(face.contains(kServerId));
}

}  // namespace
}  // namespace adafl::net::transport
