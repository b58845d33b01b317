// ClientProtocol: the client role's round handlers, driven frame by frame
// with no sockets, threads or sleeps.
#include "net/transport/client_protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "fl_fixtures.h"
#include "nn/model.h"
#include "tensor/check.h"

namespace adafl::net::transport {
namespace {

using Outcome = ClientProtocol::Outcome;

class ClientProtocolTest : public ::testing::Test {
 protected:
  ClientProtocolTest()
      : task_(fl::testing::make_mini_task(2)),
        proto_(1, [this](const std::map<std::string, std::string>&, int id,
                         const core::AdaFlParams&) {
          ++bootstraps_;
          return fl::make_client(task_.factory, &task_.train, task_.parts,
                                 task_.client, {}, 7, id);
        }) {
    nn::Model probe(task_.factory());
    global_ = probe.get_flat();
  }

  Frame welcome() const {
    WelcomeInfo w;
    w.rounds = 3;
    w.param_count = global_.size();
    w.params.accumulate_unselected = true;
    return Frame{MsgType::kWelcome, 0, kServerId, encode_welcome(w)};
  }
  Frame model(std::uint32_t round) const {
    ModelPayload m;
    m.global = global_;
    m.g_hat.assign(global_.size(), 0.01f);
    return Frame{MsgType::kModel, round, kServerId, encode_model(m)};
  }
  static Frame select(std::uint32_t round, double ratio = 8.0) {
    return Frame{MsgType::kSelect, round, kServerId, encode_f64(ratio)};
  }
  static Frame skip(std::uint32_t round) {
    return Frame{MsgType::kSkip, round, kServerId, {}};
  }

  /// Handles `f` and returns its reply.
  std::optional<Frame> feed(const Frame& f, Outcome* out = nullptr) {
    ClientProtocol::Step step = proto_.handle(f);
    if (out != nullptr) *out = step.outcome;
    return std::move(step.reply);
  }

  compress::DgcCompressor::State residual() const {
    return proto_.compressor()->state();
  }

  fl::testing::MiniTask task_;
  int bootstraps_ = 0;
  ClientProtocol proto_;
  std::vector<float> global_;
};

void expect_same_loader(const fl::FlClient::PersistentState& a,
                        const fl::FlClient::PersistentState& b) {
  EXPECT_EQ(a.loader.cursor, b.loader.cursor);
  EXPECT_EQ(a.loader.indices, b.loader.indices);
  EXPECT_TRUE(std::equal(std::begin(a.loader.rng.s), std::end(a.loader.rng.s),
                         std::begin(b.loader.rng.s)));
}

TEST_F(ClientProtocolTest, ModelBeforeWelcomeIsIgnored) {
  Outcome out = Outcome::kShutdown;
  EXPECT_FALSE(feed(model(1), &out));
  EXPECT_EQ(out, Outcome::kNone);
  EXPECT_EQ(proto_.rounds_trained(), 0);
  EXPECT_EQ(proto_.client(), nullptr);
  EXPECT_EQ(bootstraps_, 0);
}

TEST_F(ClientProtocolTest, SecondWelcomeKeepsTheBootstrappedClient) {
  feed(welcome());
  feed(model(1));
  const fl::FlClient* client = proto_.client();
  const auto before = client->persistent_state();
  feed(welcome());  // a rejoin's WELCOME
  EXPECT_EQ(bootstraps_, 1);
  EXPECT_EQ(proto_.client(), client);
  expect_same_loader(before, proto_.client()->persistent_state());
}

TEST_F(ClientProtocolTest, DuplicateModelRescoresWithoutRetraining) {
  feed(welcome());
  const auto first = feed(model(1));
  const auto loader = proto_.client()->persistent_state();
  const auto second = feed(model(1));
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->type, MsgType::kScore);
  EXPECT_EQ(first->client_id, 1u);
  EXPECT_EQ(first->payload, second->payload);
  EXPECT_EQ(proto_.rounds_trained(), 1);
  expect_same_loader(loader, proto_.client()->persistent_state());
}

TEST_F(ClientProtocolTest, DuplicateSelectResendsCachedBytes) {
  feed(welcome());
  feed(model(1));
  Outcome out = Outcome::kNone;
  const auto first = feed(select(1), &out);
  EXPECT_EQ(out, Outcome::kRoundDone);
  const auto after_first = residual();
  const auto second = feed(select(1, 2.0), &out);  // ratio ignored: cached
  EXPECT_EQ(out, Outcome::kRoundDone);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->type, MsgType::kUpdate);
  EXPECT_EQ(first->payload, second->payload);
  EXPECT_EQ(residual().u, after_first.u);
  EXPECT_EQ(residual().v, after_first.v);
  EXPECT_EQ(proto_.updates_sent(), 2);
}

TEST_F(ClientProtocolTest, StaleSelectAndSkipAreIgnored) {
  feed(welcome());
  feed(model(1));
  feed(model(2));
  const auto before = residual();
  Outcome out = Outcome::kShutdown;
  EXPECT_FALSE(feed(select(1), &out));
  EXPECT_EQ(out, Outcome::kNone);
  EXPECT_FALSE(feed(skip(1), &out));
  EXPECT_EQ(out, Outcome::kNone);
  EXPECT_EQ(proto_.updates_sent(), 0);
  EXPECT_EQ(proto_.skips(), 0);
  EXPECT_EQ(residual().v, before.v);

  feed(skip(2), &out);  // the current round's SKIP counts once
  EXPECT_EQ(out, Outcome::kRoundDone);
  feed(skip(2), &out);
  EXPECT_EQ(out, Outcome::kNone);
  EXPECT_EQ(proto_.skips(), 1);
}

TEST_F(ClientProtocolTest, MalformedPayloadKeepsRoundState) {
  feed(welcome());
  Frame bad_model = model(1);
  bad_model.payload.pop_back();
  EXPECT_THROW(proto_.handle(bad_model), CheckError);
  EXPECT_EQ(proto_.rounds_trained(), 0);

  feed(model(1));
  const auto before = residual();
  Frame bad_select = select(1);
  bad_select.payload.pop_back();
  EXPECT_THROW(proto_.handle(bad_select), CheckError);
  EXPECT_EQ(residual().u, before.u);
  EXPECT_EQ(residual().v, before.v);
  EXPECT_EQ(proto_.updates_sent(), 0);
  EXPECT_TRUE(feed(select(1)));  // the round is still answerable
}

TEST_F(ClientProtocolTest, PingAndShutdown) {
  Outcome out = Outcome::kShutdown;
  const auto pong = feed(Frame{MsgType::kPing, 4, kServerId, {}}, &out);
  ASSERT_TRUE(pong);
  EXPECT_EQ(pong->type, MsgType::kPong);
  EXPECT_EQ(pong->round, 4u);
  EXPECT_EQ(out, Outcome::kNone);
  EXPECT_FALSE(feed(Frame{MsgType::kShutdown, 0, kServerId, {}}, &out));
  EXPECT_EQ(out, Outcome::kShutdown);
  EXPECT_EQ(proto_.hello().type, MsgType::kHello);
  EXPECT_EQ(parse_hello(proto_.hello().payload), kProtocolVersion);
}

}  // namespace
}  // namespace adafl::net::transport
