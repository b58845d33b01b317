// Deployed FL session protocol: payload codecs, TCP end-to-end equivalence
// with the simulator, and resilience (crashed client degrades the round via
// quorum instead of hanging the server, then rejoins).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <mutex>
#include <thread>

#include "compress/bytes.h"
#include "compress/dgc.h"
#include "metrics/registry.h"
#include "net/transport/loopback.h"
#include "net/transport/session.h"
#include "net/transport/udp.h"
#include "tensor/check.h"

#include "deployed_test_util.h"

namespace adafl::net::transport {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// --- Payload codec round-trips. ------------------------------------------

TEST(SessionCodec, HelloRoundTrip) {
  EXPECT_EQ(parse_hello(encode_hello(kProtocolVersion)), kProtocolVersion);
  EXPECT_THROW(parse_hello({}), CheckError);
}

TEST(SessionCodec, WelcomeRoundTripCarriesParamsExactly) {
  WelcomeInfo w;
  w.rounds = 12;
  w.param_count = 50890;
  w.params.tau = 0.4375;
  w.params.max_selected = 3;
  w.params.compression.ratio_min = 6.5;
  w.params.compression.ratio_max = 123.25;
  w.params.compression.warmup_rounds = 2;
  w.params.dgc.momentum = 0.125f;
  w.params.dgc.clip_norm = 2.5;
  w.params.server_trust_clip = false;
  w.config = {{"dataset", "mnist"}, {"seed", "7"}, {"lr", "0.05"}};
  const WelcomeInfo g = parse_welcome(encode_welcome(w));
  EXPECT_EQ(g.rounds, w.rounds);
  EXPECT_EQ(g.param_count, w.param_count);
  EXPECT_EQ(g.params.tau, w.params.tau);
  EXPECT_EQ(g.params.max_selected, w.params.max_selected);
  EXPECT_EQ(g.params.compression.ratio_min, w.params.compression.ratio_min);
  EXPECT_EQ(g.params.compression.ratio_max, w.params.compression.ratio_max);
  EXPECT_EQ(g.params.compression.warmup_rounds,
            w.params.compression.warmup_rounds);
  EXPECT_EQ(g.params.dgc.momentum, w.params.dgc.momentum);
  EXPECT_EQ(g.params.dgc.clip_norm, w.params.dgc.clip_norm);
  EXPECT_EQ(g.params.server_trust_clip, w.params.server_trust_clip);
  EXPECT_EQ(g.config, w.config);
}

TEST(SessionCodec, ModelRoundTripIsBitwise) {
  ModelPayload m;
  m.global = {1.0f, -2.5f, 3.25e-7f, 0.0f};
  m.g_hat = {0.5f, 0.0f, -1.0f, 42.0f};
  const ModelPayload g = parse_model(encode_model(m));
  EXPECT_EQ(g.global, m.global);
  EXPECT_EQ(g.g_hat, m.g_hat);
}

TEST(SessionCodec, UpdateRoundTripAndValidation) {
  compress::DgcCompressor comp(64, core::AdaFlParams{}.dgc);
  std::vector<float> delta(64);
  for (std::size_t i = 0; i < delta.size(); ++i)
    delta[i] = static_cast<float>(i) * 0.25f - 8.0f;
  UpdatePayload u;
  u.msg = comp.compress(delta, 8.0);
  u.num_examples = 120;
  u.mean_loss = 1.5f;
  u.raw_delta_norm = 3.75;
  const UpdatePayload g = parse_update(encode_update(u));
  EXPECT_EQ(g.num_examples, u.num_examples);
  EXPECT_EQ(g.mean_loss, u.mean_loss);
  EXPECT_EQ(g.raw_delta_norm, u.raw_delta_norm);
  EXPECT_EQ(g.msg.decode(), u.msg.decode());

  // Zero examples is a protocol violation (would divide the aggregate).
  UpdatePayload bad = u;
  bad.num_examples = 0;
  EXPECT_THROW(parse_update(encode_update(bad)), CheckError);
  // Truncated wire payload is rejected.
  auto bytes = encode_update(u);
  bytes.pop_back();
  EXPECT_THROW(parse_update(bytes), CheckError);
}

TEST(SessionCodec, ModelRejectsForgedHugeDimension) {
  // (2^61 + 1) * 8 wraps to 8 modulo 2^64, so without an explicit bound on
  // d this 16-byte payload passes the size check and resize(2^61 + 1)
  // throws bad_alloc/length_error — which the malformed-stream recovery
  // paths do not catch. It must be a CheckError instead.
  std::vector<std::uint8_t> p;
  bytes::put_u64(p, (1ull << 61) + 1);
  bytes::put_f64(p, 0.0);
  EXPECT_THROW(parse_model(p), CheckError);
}

TEST(SessionCodec, ScoreAcceptsExactlyTheUnitInterval) {
  EXPECT_EQ(parse_score(encode_f64(0.0)), 0.0);
  EXPECT_EQ(parse_score(encode_f64(1.0)), 1.0);
  EXPECT_THROW(parse_score(encode_f64(std::nan(""))), CheckError);
  EXPECT_THROW(parse_score(encode_f64(std::nextafter(0.0, -1.0))), CheckError);
  EXPECT_THROW(parse_score(encode_f64(std::nextafter(1.0, 2.0))), CheckError);
  EXPECT_THROW(parse_score({}), CheckError);
}

// --- End-to-end over real TCP. -------------------------------------------

TEST(Session, TcpDeployedMatchesSimulatorBitwise) {
  // flserver/flclient in-process: ServerSession + 4 ClientSessions over
  // 127.0.0.1 sockets must land on exactly the simulator's weights.
  const auto spec = testutil::small_task_spec();
  const auto client = testutil::small_client_config();
  const auto params = testutil::small_params();
  const int rounds = 3;

  const auto sim = testutil::run_simulator(spec, client, params, rounds);
  const auto dep = testutil::run_deployed_tcp(spec, client, params, rounds);

  ASSERT_EQ(dep.global.size(), sim.global.size());
  EXPECT_EQ(dep.global, sim.global);  // bitwise
  ASSERT_EQ(dep.log.records.size(), sim.log.records.size());
  for (std::size_t i = 0; i < sim.log.records.size(); ++i)
    EXPECT_EQ(dep.log.records[i].test_accuracy,
              sim.log.records[i].test_accuracy);
  EXPECT_EQ(dep.stats.selected_updates, sim.stats.selected_updates);
  for (const auto& st : dep.clients) {
    EXPECT_TRUE(st.completed);
    EXPECT_EQ(st.rounds_trained, rounds);
  }
  // A clean network books no resilience overhead.
  EXPECT_EQ(dep.log.ledger.total_reconnects(), 0);
  EXPECT_EQ(dep.log.ledger.total_retransmitted_bytes(), 0);
}

TEST(Session, CrashedClientDegradesRoundAndRejoins) {
  // Client 3 abruptly drops its TCP connection on receiving round 2's MODEL
  // (before scoring). With quorum=3 the server must complete every round —
  // never hang — and the client's redial must be booked as a reconnect.
  const auto spec = testutil::small_task_spec();
  const auto client = testutil::small_client_config();
  const auto params = testutil::small_params();
  const int rounds = 4;

  const auto dep = testutil::run_deployed_tcp(
      spec, client, params, rounds, /*quorum=*/3,
      /*deadline=*/milliseconds(5000), /*crash_client=*/3, /*crash_round=*/2);

  // The server finished all rounds (run() returned and evaluated each one).
  ASSERT_EQ(dep.log.records.size(), static_cast<std::size_t>(rounds));
  for (const auto& rec : dep.log.records) EXPECT_GE(rec.participants, 1);

  // The crash and the rejoin both happened and were accounted.
  EXPECT_GE(dep.clients[3].reconnects, 1);
  EXPECT_GE(dep.log.ledger.total_reconnects(), 1);
  EXPECT_GE(dep.log.ledger.reconnects_of(3), 1);

  // The surviving clients ran the whole session normally.
  for (int id = 0; id < 3; ++id) {
    EXPECT_TRUE(dep.clients[static_cast<std::size_t>(id)].completed) << id;
    EXPECT_EQ(dep.clients[static_cast<std::size_t>(id)].rounds_trained,
              rounds)
        << id;
  }
  // The crashed client got back in and trained at least the later rounds.
  EXPECT_GE(dep.clients[3].rounds_trained, 2);
}

// --- Quorum-after-deadline with a connected-but-silent peer. -------------

TEST(Session, QuorumAfterDeadlineWithSilentPeer) {
  // One cooperative scripted peer and one peer that connects, receives
  // models, and never answers. With quorum=1 and a short deadline the server
  // must finish each round on the cooperative peer alone, waiting exactly
  // the deadline (not forever) for the silent one.
  auto spec = testutil::small_task_spec();
  spec.clients = 2;
  spec.train_samples = 80;
  spec.test_samples = 40;
  const auto params = testutil::small_params();

  auto task = cli::build_task(spec);
  ServerSessionConfig scfg;
  scfg.params = params;
  scfg.rounds = 2;
  scfg.eval_every = 1;
  scfg.expected_clients = 2;
  scfg.quorum = 1;
  scfg.round_deadline = milliseconds(250);
  scfg.idle_poll = milliseconds(2);
  scfg.client_config =
      cli::task_to_kv(spec, testutil::small_client_config());
  ServerSession server(scfg, task.factory, /*test=*/nullptr);

  auto pair0 = make_loopback_pair();
  auto pair1 = make_loopback_pair();
  server.add_transport(std::move(pair0.first));
  server.add_transport(std::move(pair1.first));

  // Both HELLOs are queued before the server runs, so its first poll binds
  // both peers. Sent from the peer threads, peer 1's HELLO could land after
  // peer 0's round-1 SCORE, and round 1 would close without waiting for the
  // deadline.
  auto hello = [](std::uint32_t id) {
    Frame f;
    f.type = MsgType::kHello;
    f.client_id = id;
    f.payload = encode_hello(kProtocolVersion);
    return f;
  };
  ASSERT_TRUE(pair0.second->send(hello(0)));
  ASSERT_TRUE(pair1.second->send(hello(1)));

  // Peer 0: protocol-level cooperative client. No local training — it
  // reports a fixed score and uploads a zero delta, which is enough to
  // drive the server's round machine.
  std::thread peer0([t = std::move(pair0.second)]() mutable {
    std::optional<compress::DgcCompressor> comp;
    std::uint64_t dims = 0;
    for (;;) {
      auto f = t->recv(milliseconds(2000));
      if (!f) {
        if (t->closed()) return;
        continue;
      }
      if (f->type == MsgType::kWelcome) {
        const WelcomeInfo w = parse_welcome(f->payload);
        dims = w.param_count;
        comp.emplace(static_cast<std::int64_t>(dims), w.params.dgc);
      } else if (f->type == MsgType::kModel) {
        Frame s;
        s.type = MsgType::kScore;
        s.round = f->round;
        s.client_id = 0;
        s.payload = encode_f64(0.75);
        t->send(s);
      } else if (f->type == MsgType::kSelect) {
        UpdatePayload u;
        u.msg = comp->compress(std::vector<float>(dims, 0.0f),
                               parse_f64(f->payload));
        u.num_examples = 10;
        u.mean_loss = 0.5f;
        u.raw_delta_norm = 0.0;
        Frame uf;
        uf.type = MsgType::kUpdate;
        uf.round = f->round;
        uf.client_id = 0;
        uf.payload = encode_update(u);
        t->send(uf);
      } else if (f->type == MsgType::kShutdown) {
        return;
      }
    }
  });

  // Peer 1: joins, then goes mute (receives and ignores everything).
  std::thread peer1([t = std::move(pair1.second)]() mutable {
    for (;;) {
      auto f = t->recv(milliseconds(2000));
      if (!f) {
        if (t->closed()) return;
        continue;
      }
      if (f->type == MsgType::kShutdown) return;
    }
  });

  const auto t0 = steady_clock::now();
  const fl::TrainLog log = server.run();
  const auto elapsed = std::chrono::duration_cast<milliseconds>(
      steady_clock::now() - t0);
  peer0.join();
  peer1.join();

  ASSERT_EQ(log.records.size(), 2u);
  for (const auto& rec : log.records) EXPECT_EQ(rec.participants, 1);
  EXPECT_EQ(log.ledger.delivered_updates(), 2);
  EXPECT_EQ(server.stats().selected_updates, 2);
  // Each score phase had to wait out the deadline for the silent peer.
  EXPECT_GE(elapsed, milliseconds(2 * 250 - 50));
}

// --- A protocol-wrong UPDATE drops the peer, never the server. -----------

Frame hello_frame(std::uint32_t id) {
  Frame f;
  f.type = MsgType::kHello;
  f.client_id = id;
  f.payload = encode_hello(kProtocolVersion);
  return f;
}

// Runs two rounds with one cooperative scripted peer and one malicious peer
// whose UPDATE payload is wire-valid but violates the session contract
// (non-top-k kind or wrong dimension). The server must finish every round
// on the cooperative peer — dropping only the offender's connection — and
// run() must return normally, never throw.
void run_bad_update_scenario(
    const std::function<compress::EncodedGradient(std::uint64_t dims,
                                                  double ratio)>& make_bad) {
  auto spec = testutil::small_task_spec();
  spec.clients = 2;
  spec.train_samples = 80;
  spec.test_samples = 40;

  auto task = cli::build_task(spec);
  ServerSessionConfig scfg;
  scfg.params = testutil::small_params();
  scfg.rounds = 2;
  scfg.eval_every = 1;
  scfg.expected_clients = 2;
  scfg.quorum = 1;
  scfg.round_deadline = milliseconds(250);
  scfg.idle_poll = milliseconds(2);
  scfg.client_config =
      cli::task_to_kv(spec, testutil::small_client_config());
  ServerSession server(scfg, task.factory, /*test=*/nullptr);

  auto pair0 = make_loopback_pair();
  auto pair1 = make_loopback_pair();
  server.add_transport(std::move(pair0.first));
  server.add_transport(std::move(pair1.first));
  // Both HELLOs are queued before the server runs, so both peers are live
  // before either scores: with quorum 1 a lone early HELLO would let
  // round 1 close on peer 1's score alone.
  EXPECT_TRUE(pair0.second->send(hello_frame(0)));
  EXPECT_TRUE(pair1.second->send(hello_frame(1)));

  // Peer 0: cooperative (scores, uploads a valid zero delta).
  std::thread peer0([t = std::move(pair0.second)]() mutable {
    std::optional<compress::DgcCompressor> comp;
    std::uint64_t dims = 0;
    for (;;) {
      auto f = t->recv(milliseconds(2000));
      if (!f) {
        if (t->closed()) return;
        continue;
      }
      if (f->type == MsgType::kWelcome) {
        const WelcomeInfo w = parse_welcome(f->payload);
        dims = w.param_count;
        comp.emplace(static_cast<std::int64_t>(dims), w.params.dgc);
      } else if (f->type == MsgType::kModel) {
        Frame s;
        s.type = MsgType::kScore;
        s.round = f->round;
        s.client_id = 0;
        s.payload = encode_f64(0.75);
        t->send(s);
      } else if (f->type == MsgType::kSelect) {
        UpdatePayload u;
        u.msg = comp->compress(std::vector<float>(dims, 0.0f),
                               parse_f64(f->payload));
        u.num_examples = 10;
        u.mean_loss = 0.5f;
        u.raw_delta_norm = 0.0;
        Frame uf;
        uf.type = MsgType::kUpdate;
        uf.round = f->round;
        uf.client_id = 0;
        uf.payload = encode_update(u);
        t->send(uf);
      } else if (f->type == MsgType::kShutdown) {
        return;
      }
    }
  });

  // Peer 1: scores honestly, then answers SELECT with the bad message. The
  // server must cut this connection (observed as closed()).
  std::thread peer1([t = std::move(pair1.second), &make_bad]() mutable {
    std::uint64_t dims = 0;
    for (;;) {
      auto f = t->recv(milliseconds(2000));
      if (!f) {
        if (t->closed()) return;  // dropped by the server: expected
        continue;
      }
      if (f->type == MsgType::kWelcome) {
        dims = parse_welcome(f->payload).param_count;
      } else if (f->type == MsgType::kModel) {
        Frame s;
        s.type = MsgType::kScore;
        s.round = f->round;
        s.client_id = 1;
        s.payload = encode_f64(0.9);
        t->send(s);
      } else if (f->type == MsgType::kSelect) {
        UpdatePayload u;
        u.msg = make_bad(dims, parse_f64(f->payload));
        u.num_examples = 10;
        u.mean_loss = 0.5f;
        u.raw_delta_norm = 0.0;
        Frame uf;
        uf.type = MsgType::kUpdate;
        uf.round = f->round;
        uf.client_id = 1;
        uf.payload = encode_update(u);
        t->send(uf);
      } else if (f->type == MsgType::kShutdown) {
        return;
      }
    }
  });

  const fl::TrainLog log = server.run();  // must not throw
  peer0.join();
  peer1.join();

  ASSERT_EQ(log.records.size(), 2u);
  // Only the cooperative peer's update was ever applied.
  for (const auto& rec : log.records) EXPECT_EQ(rec.participants, 1);
  EXPECT_EQ(server.stats().selected_updates, 2);
}

TEST(Session, UpdateWithWrongKindDropsPeerNotServer) {
  run_bad_update_scenario([](std::uint64_t dims, double) {
    compress::EncodedGradient g;  // dense identity where top-k is required
    g.kind = compress::CodecKind::kIdentity;
    g.dense_size = static_cast<std::int64_t>(dims);
    g.values.assign(dims, 0.0f);
    return g;
  });
}

TEST(Session, UpdateWithWrongDimensionDropsPeerNotServer) {
  run_bad_update_scenario([](std::uint64_t dims, double ratio) {
    // Top-k as required, but compressed against the wrong model size.
    compress::DgcCompressor comp(static_cast<std::int64_t>(dims) + 1,
                                 core::AdaFlParams{}.dgc);
    return comp.compress(std::vector<float>(dims + 1, 1.0f), ratio);
  });
}

// --- Client-side recovery from a malformed server payload. ---------------

TEST(Session, ClientRedialsOnMalformedServerPayload) {
  // Connection 1 answers HELLO with a truncated WELCOME: parse_welcome
  // throws CheckError, and the documented behavior is close-and-redial —
  // not a dead client process. Connection 2 then shuts the session down.
  auto pair0 = make_loopback_pair();
  auto pair1 = make_loopback_pair();

  std::thread server([s0 = std::move(pair0.first),
                      s1 = std::move(pair1.first)]() mutable {
    auto h0 = s0->recv(milliseconds(2000));
    ASSERT_TRUE(h0 && h0->type == MsgType::kHello);
    WelcomeInfo w;
    w.rounds = 1;
    w.param_count = 16;
    Frame wf;
    wf.type = MsgType::kWelcome;
    wf.client_id = kServerId;
    wf.payload = encode_welcome(w);
    wf.payload.pop_back();  // truncated: parse_welcome must throw
    ASSERT_TRUE(s0->send(wf));
    // The client must drop this connection...
    for (;;) {
      auto f = s0->recv(milliseconds(2000));
      if (!f) {
        ASSERT_TRUE(s0->closed());
        break;
      }
    }
    // ...and redial. Greet the rejoin and end the session.
    auto h1 = s1->recv(milliseconds(2000));
    ASSERT_TRUE(h1 && h1->type == MsgType::kHello);
    Frame down;
    down.type = MsgType::kShutdown;
    down.client_id = kServerId;
    ASSERT_TRUE(s1->send(down));
  });

  std::vector<std::unique_ptr<Transport>> dials;
  dials.push_back(std::move(pair0.second));
  dials.push_back(std::move(pair1.second));
  std::size_t next = 0;
  std::optional<cli::TaskBundle> bundle;
  ClientSession cs(
      testutil::test_client_config(0),
      [&dials, &next]() -> std::unique_ptr<Transport> {
        return next < dials.size() ? std::move(dials[next++]) : nullptr;
      },
      testutil::make_bootstrap(&bundle));
  const ClientRunStats st = cs.run();
  server.join();

  EXPECT_TRUE(st.completed);
  EXPECT_EQ(st.reconnects, 1);
}

TEST(Session, BackoffBudgetRefillsAfterEachCompletedRound) {
  // ISSUE 8 satellite 1: periodic connection blips must not cumulatively
  // exhaust the redial budget. Client 1's link dies once per round for
  // three rounds, and every redial episode burns one failed dial; with
  // max_attempts=2 the run only completes if the budget refills after each
  // completed round.
  const cli::TaskSpec spec = testutil::small_task_spec();
  const fl::ClientTrainConfig client = testutil::small_client_config();
  const core::AdaFlParams params = testutil::small_params();
  const int rounds = 4;
  const testutil::SimResult sim =
      testutil::run_simulator(spec, client, params, rounds);

  auto task = cli::build_task(spec);
  ServerSessionConfig scfg =
      testutil::make_server_config(spec, client, params, rounds);
  scfg.retransmit_nudge = milliseconds(150);
  ServerSession server(scfg, task.factory, &task.test);

  const int n = spec.clients;
  std::vector<std::optional<cli::TaskBundle>> bundles(
      static_cast<std::size_t>(n));
  std::vector<ClientRunStats> stats(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      ClientSessionConfig ccfg = testutil::test_client_config(id);
      ccfg.backoff.initial = milliseconds(1);
      ccfg.backoff.max = milliseconds(10);
      if (id == 1) ccfg.backoff.max_attempts = 2;
      int dials = 0;
      int conns = 0;
      ClientSession cs(
          ccfg,
          [&, id]() -> std::unique_ptr<Transport> {
            if (id == 1 && dials++ % 2 == 0) return nullptr;  // 1 fail/episode
            auto pair = make_loopback_pair();
            server.add_transport(std::move(pair.first));
            std::unique_ptr<Transport> t = std::move(pair.second);
            if (id == 1 && ++conns <= 3) {
              // Connection c dies on receiving round c+1's MODEL — i.e.
              // right after round c completed and refilled the budget.
              FaultPlan plan;
              plan.sever_on_recv(MsgType::kModel, conns + 1);
              t = std::make_unique<FaultyTransport>(std::move(t),
                                                    std::move(plan));
            }
            return t;
          },
          testutil::make_bootstrap(&bundles[static_cast<std::size_t>(id)]));
      stats[static_cast<std::size_t>(id)] = cs.run();
    });
  }
  const fl::TrainLog log = server.run();
  for (auto& t : threads) t.join();

  EXPECT_FALSE(log.interrupted);
  for (const auto& st : stats) EXPECT_TRUE(st.completed);
  EXPECT_EQ(stats[1].reconnects, 3);
  // Every sever was absorbed by rejoin + catchup dedup: still bitwise.
  EXPECT_EQ(server.global(), sim.global);
}

TEST(Session, SilentUdpEndpointIsAFailedDialAndRotates) {
  // Client 0's endpoint 0 is a dead UDP server: connect() succeeds, HELLO
  // goes out and nothing ever comes back. Each such connection times out
  // before delivering a frame, which is a failed dial, so after
  // max_attempts dials the client rotates to endpoint 1, a live server,
  // and the run still matches flsim bitwise. The cap on dead dials makes a
  // client that never counts them fail here instead of hanging.
  const cli::TaskSpec spec = testutil::small_task_spec();
  const fl::ClientTrainConfig client = testutil::small_client_config();
  const core::AdaFlParams params = testutil::small_params();
  const int rounds = 3;
  const testutil::SimResult sim =
      testutil::run_simulator(spec, client, params, rounds);

  auto task = cli::build_task(spec);
  ServerSessionConfig scfg =
      testutil::make_server_config(spec, client, params, rounds);
  scfg.retransmit_nudge = milliseconds(300);
  ServerSession server(scfg, task.factory, &task.test);
  // No parity and large shards: the loopback loses nothing, and a cheap
  // datagram path keeps the live server well inside the 100 ms liveness
  // even under a sanitizer.
  UdpFecConfig fec;
  fec.parity_shards = 0;
  fec.max_shard_bytes = 16384;

  constexpr int kDeadDialCap = 8;
  std::atomic<int> dead_dials{0};
  std::mutex dead_mu;
  std::vector<std::unique_ptr<LoopbackDatagramLink>> dead_ends;  // silent
  const int n = spec.clients;
  std::vector<std::optional<cli::TaskBundle>> bundles(
      static_cast<std::size_t>(n));
  std::vector<ClientRunStats> stats(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      ClientSessionConfig ccfg = testutil::test_client_config(id);
      if (id == 0) {
        ccfg.liveness_timeout = milliseconds(100);
        ccfg.heartbeat_interval = milliseconds(25);  // the live server PONGs
        ccfg.backoff.max_attempts = 2;
      }
      ClientSession cs(
          ccfg,
          [&, id](std::size_t ep) -> std::unique_ptr<Transport> {
            auto [a, b] = make_datagram_loopback_pair();
            if (ep == 0 && id == 0) {
              if (++dead_dials > kDeadDialCap) return nullptr;
              std::lock_guard<std::mutex> lock(dead_mu);
              dead_ends.push_back(std::move(a));
            } else {
              server.add_transport(
                  std::make_unique<UdpTransport>(std::move(a), fec));
            }
            return std::make_unique<UdpTransport>(std::move(b), fec);
          },
          id == 0 ? 2 : 1,
          testutil::make_bootstrap(&bundles[static_cast<std::size_t>(id)]));
      stats[static_cast<std::size_t>(id)] = cs.run();
      // A client that gave up would leave the server waiting for it.
      if (!stats[static_cast<std::size_t>(id)].completed)
        server.request_stop(false);
    });
  }
  const fl::TrainLog log = server.run();
  for (auto& t : threads) t.join();

  EXPECT_FALSE(log.interrupted);
  for (const auto& st : stats) EXPECT_TRUE(st.completed);
  EXPECT_EQ(dead_dials.load(), 2);
  EXPECT_EQ(stats[0].endpoint_rotations, 1);
  EXPECT_EQ(server.global(), sim.global);
}

TEST(Session, RoundTotalDeadlineCapsAStalledUpdatePhase) {
  // ISSUE 8 satellite 2: a quorum-selected client that dies between the
  // score and update phases must not hang the round until the (long)
  // per-phase deadline — the whole-round cap aggregates what arrived,
  // emits update_lost, and moves on.
  cli::TaskSpec spec = testutil::small_task_spec();
  spec.clients = 2;
  const fl::ClientTrainConfig client = testutil::small_client_config();
  core::AdaFlParams params = testutil::small_params();
  const int rounds = 3;

  auto task = cli::build_task(spec);
  ServerSessionConfig scfg =
      testutil::make_server_config(spec, client, params, rounds);
  scfg.quorum = 1;
  scfg.round_deadline = milliseconds(20000);     // per-phase: generous
  scfg.round_total_deadline = milliseconds(500);  // whole round: tight
  scfg.retransmit_nudge = milliseconds(150);
  metrics::Tracer tracer;
  metrics::Registry registry;
  metrics::RunManifest manifest;
  manifest.producer = "test";
  tracer.open(::testing::TempDir() + "round_deadline.trace.jsonl", manifest);
  tracer.attach_registry(&registry);
  scfg.tracer = &tracer;
  metrics::PhaseSink phases(&registry);  // as flserver --profile does
  ServerSession server(scfg, task.factory, &task.test);

  const int n = spec.clients;
  std::vector<std::optional<cli::TaskBundle>> bundles(
      static_cast<std::size_t>(n));
  std::vector<ClientRunStats> stats(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      ClientSessionConfig ccfg = testutil::test_client_config(id);
      ccfg.backoff.initial = milliseconds(1);
      ccfg.backoff.max = milliseconds(10);
      ccfg.backoff.max_attempts = 2;
      bool connected = false;
      ClientSession cs(
          ccfg,
          [&, id]() -> std::unique_ptr<Transport> {
            if (id == 1 && connected) return nullptr;  // dead for good
            connected = true;
            auto pair = make_loopback_pair();
            server.add_transport(std::move(pair.first));
            std::unique_ptr<Transport> t = std::move(pair.second);
            if (id == 1) {
              // Dies the moment it is selected: scored, then silent.
              FaultPlan plan;
              plan.sever_on_recv(MsgType::kSelect);
              t = std::make_unique<FaultyTransport>(std::move(t),
                                                    std::move(plan));
            }
            return t;
          },
          testutil::make_bootstrap(&bundles[static_cast<std::size_t>(id)]));
      stats[static_cast<std::size_t>(id)] = cs.run();
    });
  }
  const auto t0 = steady_clock::now();
  const fl::TrainLog log = server.run();
  const auto elapsed = steady_clock::now() - t0;
  for (auto& t : threads) t.join();
  tracer.close();

  // Well under the 20 s per-phase deadline the stall would otherwise ride.
  EXPECT_LT(elapsed, milliseconds(10000));
  EXPECT_FALSE(log.interrupted);
  EXPECT_EQ(log.records.size(), static_cast<std::size_t>(rounds));
  EXPECT_GE(registry.counter("trace.events.update_lost").value(), 1);
  EXPECT_TRUE(stats[0].completed);
  EXPECT_FALSE(stats[1].completed);
  // Capped or not, every round aggregates and evaluates once.
  EXPECT_EQ(registry.histogram("profile.aggregate_ms").count(),
            static_cast<std::uint64_t>(rounds));
  EXPECT_EQ(registry.histogram("profile.eval_ms").count(),
            static_cast<std::uint64_t>(rounds));
}

}  // namespace
}  // namespace adafl::net::transport
