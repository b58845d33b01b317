// Tier-transparency oracle: a hierarchical deployment — root ServerSession,
// flrelay-style RelaySession mid-tiers, leaf ClientSessions — must produce
// *bitwise* the same global weights as the in-process simulator (and the
// flat deployed path) with the same AdaFlParams::agg_group, and the same
// semantic trace stream. The relay forwards lossless pre-summed partials in
// the exact ascending-id / ascending-group association the root uses for
// local groups, so the tree depth must be unobservable in the result.
//
// The fault matrix then pins the resilience story:
//   * a leaf's UPDATE dropped in flight      -> recovered by nudges, clean
//   * a leaf crash mid-round, rejoining      -> superset UPDATE-AGG upgrade
//   * a relay killed with a standby armed    -> promotion re-parents leaves
//   * a relay killed with no standby         -> survivors continue; equal to
//     a flat run whose corresponding clients die the same round
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "metrics/trace.h"
#include "net/transport/faulty.h"
#include "tier_test_util.h"

namespace adafl {
namespace {

using metrics::ParsedTrace;
using metrics::RunManifest;
using metrics::TraceEvent;
using metrics::TraceEventType;
using metrics::Tracer;
using net::transport::FaultDir;
using net::transport::FaultPlan;
using net::transport::FaultRule;
using net::transport::FaultyTransport;
using net::transport::Frame;
using net::transport::MsgType;
using net::transport::Transport;
using testutil::RelaySpec;
using testutil::TieredOptions;
using testutil::TierLink;

constexpr int kRounds = 5;

cli::TaskSpec eight_client_spec() {
  cli::TaskSpec spec = testutil::small_task_spec();
  spec.clients = 8;
  return spec;
}

/// G = 4: two aggregation groups of four — one per relay in the 2-level
/// topology, so each relay ships exactly one UPDATE-AGG per round with
/// selected leaves in it.
core::AdaFlParams grouped_params() {
  core::AdaFlParams p = testutil::small_params();
  p.max_selected = 3;  // selection pressure: skips happen every round
  p.agg_group = 4;
  return p;
}

std::vector<RelaySpec> two_level() {
  return {{/*base=*/0, /*count=*/4, /*parent=*/-1},
          {/*base=*/4, /*count=*/4, /*parent=*/-1}};
}

/// The flat reference, computed once: simulator with the same agg_group.
const testutil::SimResult& sim_reference() {
  static const testutil::SimResult sim = testutil::run_simulator(
      eight_client_spec(), testutil::small_client_config(), grouped_params(),
      kRounds);
  return sim;
}

RunManifest test_manifest(const char* producer, const cli::TaskSpec& spec) {
  RunManifest m;
  m.producer = producer;
  m.algo = "adafl-sync";
  m.seed = spec.seed;
  m.rounds = kRounds;
  m.clients = spec.clients;
  return m;
}

bool is_semantic(const TraceEvent& e) {
  return e.type < TraceEventType::kFrameTx;
}

std::vector<TraceEvent> semantic_stream(const std::vector<TraceEvent>& evs) {
  std::vector<TraceEvent> out;
  for (TraceEvent e : evs) {
    if (!is_semantic(e)) continue;
    e.t = 0.0;
    out.push_back(e);
  }
  return out;
}

void expect_semantic_equal(const std::string& sim_path,
                           const std::string& tier_path) {
  const ParsedTrace sim = metrics::read_trace_file(sim_path);
  const ParsedTrace tier = metrics::read_trace_file(tier_path);
  const auto a = semantic_stream(sim.events);
  const auto b = semantic_stream(tier.events);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << "divergence at event " << i << ": sim="
                          << Tracer::format_line(a[i])
                          << " tiered=" << Tracer::format_line(b[i]);
}

TEST(TierTransparency, TwoLevelLoopbackBitwiseAndTraceEqual) {
  const auto spec = eight_client_spec();
  const auto client = testutil::small_client_config();
  const auto params = grouped_params();

  const std::string sim_path = ::testing::TempDir() + "tier_sim.jsonl";
  const std::string tier_path = ::testing::TempDir() + "tier_dep.jsonl";
  Tracer sim_tracer;
  sim_tracer.open(sim_path, test_manifest("flsim", spec));
  const auto sim =
      testutil::run_simulator(spec, client, params, kRounds, &sim_tracer);
  sim_tracer.close();

  Tracer tier_tracer;
  tier_tracer.open(tier_path, test_manifest("tiered", spec));
  TieredOptions opt;
  opt.tracer = &tier_tracer;
  Tracer relay_tracers[2];
  std::string relay_paths[2];
  for (int r = 0; r < 2; ++r) {
    relay_paths[r] =
        ::testing::TempDir() + "tier_relay" + std::to_string(r) + ".jsonl";
    relay_tracers[r].open(relay_paths[r], test_manifest("flrelay", spec));
    opt.relay_tracers.push_back(&relay_tracers[r]);
  }
  const auto tiered = testutil::run_deployed_tiered(spec, client, params,
                                                    kRounds, two_level(), opt);
  tier_tracer.close();
  // Relay transport events carry seconds since the relay's run() started,
  // like the server's and the leaves'.
  for (int r = 0; r < 2; ++r) {
    relay_tracers[r].close();
    const ParsedTrace relay = metrics::read_trace_file(relay_paths[r]);
    ASSERT_FALSE(relay.events.empty());
    for (std::size_t i = 1; i < relay.events.size(); ++i)
      ASSERT_GE(relay.events[i].t, relay.events[i - 1].t) << "event " << i;
    EXPECT_GT(relay.events.back().t, 0.0);
    std::remove(relay_paths[r].c_str());
  }

  ASSERT_EQ(sim.global, tiered.global);  // bitwise tier transparency
  // The flat deployed path with the same grouping is also the same bits:
  // grouping changes the association, not the deployment's semantics.
  const auto flat = testutil::run_deployed_loopback(spec, client, params,
                                                    kRounds);
  ASSERT_EQ(flat.global, tiered.global);

  // Every round flowed through the relays as pre-aggregated partials.
  ASSERT_EQ(tiered.relay_stats.size(), 2u);
  for (const auto& rs : tiered.relay_stats) {
    EXPECT_TRUE(rs.completed);
    EXPECT_EQ(rs.rounds_seen, kRounds);
    EXPECT_GT(rs.aggs_sent, 0);
  }
  for (const auto& cs : tiered.clients) EXPECT_TRUE(cs.completed);

  expect_semantic_equal(sim_path, tier_path);
  std::remove(sim_path.c_str());
  std::remove(tier_path.c_str());
}

TEST(TierTransparency, TwoLevelTcpBitwiseEqual) {
  TieredOptions opt;
  opt.link = TierLink::kTcp;
  const auto tiered = testutil::run_deployed_tiered(
      eight_client_spec(), testutil::small_client_config(), grouped_params(),
      kRounds, two_level(), opt);
  ASSERT_EQ(sim_reference().global, tiered.global);
  for (const auto& rs : tiered.relay_stats) EXPECT_TRUE(rs.completed);
}

TEST(TierTransparency, TwoLevelTcpEventLoopRootBitwiseEqual) {
  TieredOptions opt;
  opt.link = TierLink::kTcp;
  opt.root_event_loop = true;  // relay handshake via the epoll loop path
  const auto tiered = testutil::run_deployed_tiered(
      eight_client_spec(), testutil::small_client_config(), grouped_params(),
      kRounds, two_level(), opt);
  ASSERT_EQ(sim_reference().global, tiered.global);
  for (const auto& rs : tiered.relay_stats) EXPECT_TRUE(rs.completed);
}

TEST(TierTransparency, TwoLevelUdpFecBitwiseEqual) {
  TieredOptions opt;
  opt.link = TierLink::kUdpFec;  // every hop FEC-coded datagrams
  const auto tiered = testutil::run_deployed_tiered(
      eight_client_spec(), testutil::small_client_config(), grouped_params(),
      kRounds, two_level(), opt);
  ASSERT_EQ(sim_reference().global, tiered.global);
  for (const auto& rs : tiered.relay_stats) EXPECT_TRUE(rs.completed);
}

TEST(TierTransparency, TwoLevelLoopbackRoundsNeverWaitOutTheIdlePoll) {
  // Every hop of a round lands on a transport that signals: MODEL and
  // SELECT wake the relay through its parent link, SCORE and UPDATE wake
  // the relay and then the root. So no hop waits out idle_poll, and with
  // 5 s of it every round still takes a fraction of one. Quiet leaf
  // heartbeats leave the round's frames as the only wakes.
  TieredOptions opt;
  opt.idle_poll = std::chrono::seconds(5);
  opt.leaf_cfg_tweak = [](int, net::transport::ClientSessionConfig& c) {
    testutil::quiet_heartbeats(c);
  };
  const auto tiered = testutil::run_deployed_tiered(
      eight_client_spec(), testutil::small_client_config(), grouped_params(),
      kRounds, two_level(), opt);
  ASSERT_EQ(sim_reference().global, tiered.global);
  ASSERT_EQ(tiered.log.records.size(), static_cast<std::size_t>(kRounds));
  EXPECT_LT(testutil::longest_round_s(tiered.log), 5.0);
  for (const auto& rs : tiered.relay_stats) EXPECT_TRUE(rs.completed);
}

TEST(TierTransparency, ThreeLevelSubRelayBitwiseAndTraceEqual) {
  const auto spec = eight_client_spec();
  const auto client = testutil::small_client_config();
  const auto params = grouped_params();

  const std::string sim_path = ::testing::TempDir() + "tier3_sim.jsonl";
  const std::string tier_path = ::testing::TempDir() + "tier3_dep.jsonl";
  Tracer sim_tracer;
  sim_tracer.open(sim_path, test_manifest("flsim", spec));
  const auto sim =
      testutil::run_simulator(spec, client, params, kRounds, &sim_tracer);
  sim_tracer.close();

  // server -> relay[0,8) -> sub-relay[0,4); leaves 0..3 behind the
  // sub-relay (three hops from the root), 4..7 behind the mid relay.
  const std::vector<RelaySpec> tree = {
      {/*base=*/0, /*count=*/8, /*parent=*/-1},
      {/*base=*/0, /*count=*/4, /*parent=*/0}};
  Tracer tier_tracer;
  tier_tracer.open(tier_path, test_manifest("tiered3", spec));
  TieredOptions opt;
  opt.tracer = &tier_tracer;
  const auto tiered = testutil::run_deployed_tiered(spec, client, params,
                                                    kRounds, tree, opt);
  tier_tracer.close();

  ASSERT_EQ(sim.global, tiered.global);
  // The mid relay aggregated its own leaves AND passed the sub-relay's
  // partials through bit-exactly.
  EXPECT_GT(tiered.relay_stats[0].aggs_sent, 0);
  EXPECT_GT(tiered.relay_stats[0].aggs_forwarded, 0);
  EXPECT_GT(tiered.relay_stats[1].aggs_sent, 0);
  for (const auto& rs : tiered.relay_stats) EXPECT_TRUE(rs.completed);

  expect_semantic_equal(sim_path, tier_path);
  std::remove(sim_path.c_str());
  std::remove(tier_path.c_str());
}

TEST(TierTransparency, LeafUpdateDropRecoveredThroughRelay) {
  // Leaf 2's round-1 UPDATE silently vanishes between leaf and relay
  // (round 1 is warm-up: every client is selected). The relay's own
  // retransmit nudge re-SELECTs, the leaf re-sends its cached bytes, and
  // the round commits with nothing lost — bitwise equal to the clean run.
  std::atomic<int> faults_fired{0};
  TieredOptions opt;
  opt.leaf_wrap = [&faults_fired](
                      int id, std::unique_ptr<Transport> t)
      -> std::unique_ptr<Transport> {
    if (id != 2) return t;
    FaultPlan plan;
    plan.drop(FaultDir::kSend, MsgType::kUpdate, /*round=*/1);
    auto faulty =
        std::make_unique<FaultyTransport>(std::move(t), std::move(plan));
    faulty->set_on_fault([&faults_fired](const FaultRule&, const Frame&) {
      faults_fired.fetch_add(1);
    });
    return faulty;
  };
  const auto tiered = testutil::run_deployed_tiered(
      eight_client_spec(), testutil::small_client_config(), grouped_params(),
      kRounds, two_level(), opt);
  ASSERT_EQ(faults_fired.load(), 1) << "the scripted drop never fired";
  ASSERT_EQ(sim_reference().global, tiered.global);
}

TEST(TierFaults, ChildCrashMidRoundRecoveredBySupersetAgg) {
  // Leaf 2 dies abruptly on round 3's SELECT: it has scored (so it IS
  // selected) but the update never leaves. The relay reports CHILD_GONE and
  // ships group [0,4) without it — then the leaf rejoins, the server's
  // nudge re-SELECTs through the relay, and the relay re-ships the group as
  // a superset UPDATE-AGG which replaces the committed partial at the root.
  // Net effect after recovery: bitwise identical to the clean run.
  std::atomic<int> faults_fired{0};
  auto crash_fired = std::make_shared<std::atomic<bool>>(false);
  TieredOptions opt;
  opt.leaf_cfg_tweak = [](int id, net::transport::ClientSessionConfig& c) {
    if (id != 2) return;
    c.backoff.initial = std::chrono::milliseconds(1);
    c.backoff.max = std::chrono::milliseconds(20);
  };
  opt.leaf_wrap = [&faults_fired, crash_fired](
                      int id, std::unique_ptr<Transport> t)
      -> std::unique_ptr<Transport> {
    if (id != 2 || crash_fired->load()) return t;
    FaultPlan plan;
    plan.sever_on_recv(MsgType::kSelect, /*round=*/3);
    auto faulty =
        std::make_unique<FaultyTransport>(std::move(t), std::move(plan));
    faulty->set_on_fault(
        [&faults_fired, crash_fired](const FaultRule&, const Frame&) {
          faults_fired.fetch_add(1);
          crash_fired->store(true);
        });
    return faulty;
  };
  const auto tiered = testutil::run_deployed_tiered(
      eight_client_spec(), testutil::small_client_config(), grouped_params(),
      kRounds, two_level(), opt);
  ASSERT_EQ(faults_fired.load(), 1) << "the scripted crash never fired";
  ASSERT_EQ(sim_reference().global, tiered.global);
}

/// Relay 0 is killed (kill -9 style: parent link severed on round 3's
/// MODEL, children dropped with no goodbye) with a standby covering the
/// same range. The leaves drain their redial budget against the dead
/// endpoint, rotate to the standby, and the standby claims the range from
/// the root mid-round — which re-serves round state so nothing is lost.
void expect_standby_promotion_reparents_leaves(TierLink link) {
  TieredOptions opt;
  opt.link = link;
  opt.kill_relay = 0;
  opt.kill_round = 3;
  opt.leaf_cfg_tweak = [](int id, net::transport::ClientSessionConfig& c) {
    if (id >= 4) return;  // only relay 0's leaves need fast failover
    c.backoff.initial = std::chrono::milliseconds(2);
    c.backoff.max = std::chrono::milliseconds(20);
    c.backoff.max_attempts = 4;
  };
  const std::vector<RelaySpec> topo = {
      {/*base=*/0, /*count=*/4, /*parent=*/-1, /*standby=*/false},
      {/*base=*/0, /*count=*/4, /*parent=*/-1, /*standby=*/true},
      {/*base=*/4, /*count=*/4, /*parent=*/-1, /*standby=*/false}};
  const auto tiered = testutil::run_deployed_tiered(
      eight_client_spec(), testutil::small_client_config(), grouped_params(),
      kRounds, topo, opt);

  ASSERT_EQ(sim_reference().global, tiered.global);
  EXPECT_FALSE(tiered.relay_stats[0].completed);  // the victim
  EXPECT_TRUE(tiered.relay_stats[1].completed);   // the promoted standby
  EXPECT_GT(tiered.relay_stats[1].aggs_sent, 0);
  EXPECT_TRUE(tiered.relay_stats[2].completed);
  // Every leaf finished: relay 0's leaves each rotated endpoints.
  for (int id = 0; id < 8; ++id) {
    EXPECT_TRUE(tiered.clients[static_cast<std::size_t>(id)].completed)
        << "leaf " << id;
    if (id < 4) {
      EXPECT_GE(
          tiered.clients[static_cast<std::size_t>(id)].endpoint_rotations, 1)
          << "leaf " << id;
    }
  }
}

TEST(TierFaults, RelayKilledStandbyPromotionReparentsLeaves) {
  expect_standby_promotion_reparents_leaves(TierLink::kLoopback);
}

TEST(TierFaults, RelayKilledStandbyPromotionReparentsLeavesOverTcp) {
  // The flrelay path: the killed relay's listener shuts down under its
  // running event loop, and the standby wakes on its first loop-accepted
  // child.
  expect_standby_promotion_reparents_leaves(TierLink::kTcp);
}

TEST(TierFaults, RelayKilledNoStandbySurvivorsMatchFlatCrashRun) {
  // No standby this time: relay 0 dies on round 3's MODEL and takes leaves
  // 0..3 with it for the rest of the run. The root must keep committing
  // rounds with the surviving relay (quorum 4), ending bitwise equal to a
  // FLAT run whose clients 0..3 die permanently on the same round — the
  // relay is transparent even in how it fails.
  const auto spec = eight_client_spec();
  const auto client = testutil::small_client_config();
  const auto params = grouped_params();
  const auto deadline = std::chrono::milliseconds(3000);

  TieredOptions opt;
  opt.kill_relay = 0;
  opt.kill_round = 3;
  opt.quorum = 4;
  opt.round_deadline = deadline;
  opt.leaf_cfg_tweak = [](int id, net::transport::ClientSessionConfig& c) {
    if (id >= 4) return;  // orphans must give up fast, not hang the join
    c.backoff.initial = std::chrono::milliseconds(1);
    c.backoff.max = std::chrono::milliseconds(10);
    c.backoff.max_attempts = 5;
  };
  const auto tiered = testutil::run_deployed_tiered(
      spec, client, params, kRounds, two_level(), opt);

  const auto flat = testutil::run_deployed_flat_crash(
      spec, client, params, kRounds, /*crash_ids=*/{0, 1, 2, 3},
      /*crash_round=*/3, /*quorum=*/4, deadline);

  ASSERT_EQ(flat.global, tiered.global);
  EXPECT_FALSE(tiered.relay_stats[0].completed);
  EXPECT_TRUE(tiered.relay_stats[1].completed);
  for (int id = 0; id < 4; ++id) {
    EXPECT_FALSE(tiered.clients[static_cast<std::size_t>(id)].completed);
    EXPECT_FALSE(flat.clients[static_cast<std::size_t>(id)].completed);
  }
  // The dead subtree shows up as missing uploads, not a wedged server.
  EXPECT_EQ(tiered.stats.selected_updates, flat.stats.selected_updates);
}

TEST(TierFaults, SlowRelayedScoresDoNotTripQuorumExit) {
  // Regression for the relay-aware quorum accounting: one relay covers all
  // four leaves and quorum is 1. Three leaves delay their round-2 SCORE by
  // 150 ms; if the server counted the relay connection as a single client
  // (instead of one per announced leaf), the score phase would exit as soon
  // as the first score landed and select from a partial view. The per-leaf
  // liveness fix keeps it waiting for every announced leaf, so the result
  // stays bitwise equal to the simulator.
  const auto spec = testutil::small_task_spec();  // 4 clients
  const auto client = testutil::small_client_config();
  core::AdaFlParams params = testutil::small_params();
  params.agg_group = 4;

  const auto sim = testutil::run_simulator(spec, client, params, kRounds);

  std::atomic<int> delays_fired{0};
  TieredOptions opt;
  opt.quorum = 1;
  opt.leaf_wrap = [&delays_fired](int id, std::unique_ptr<Transport> t)
      -> std::unique_ptr<Transport> {
    if (id == 0) return t;
    FaultPlan plan;
    plan.delay_frame(FaultDir::kSend, MsgType::kScore, /*round=*/2,
                     std::chrono::milliseconds(150));
    auto faulty =
        std::make_unique<FaultyTransport>(std::move(t), std::move(plan));
    faulty->set_on_fault([&delays_fired](const FaultRule&, const Frame&) {
      delays_fired.fetch_add(1);
    });
    return faulty;
  };
  const std::vector<RelaySpec> topo = {{/*base=*/0, /*count=*/4, -1}};
  const auto tiered = testutil::run_deployed_tiered(spec, client, params,
                                                    kRounds, topo, opt);
  ASSERT_EQ(delays_fired.load(), 3) << "the scripted delays never fired";
  ASSERT_EQ(sim.global, tiered.global);
}

TEST(TierFaults, RelayRejectedByParentGivesUpAfterMaxAttempts) {
  // The root rejects this relay's RELAY_HELLO (its range is not aligned to
  // agg_group) by closing the connection before sending any frame. Each
  // such connection is a failed dial, so the relay gives up after
  // max_attempts dials instead of redialing forever. The dial cap makes a
  // relay that never counts them fail here instead of hanging.
  const auto spec = eight_client_spec();
  auto task = cli::build_task(spec);
  net::transport::ServerSession server(
      testutil::make_server_config(spec, testutil::small_client_config(),
                                   grouped_params(), kRounds),
      task.factory, &task.test);
  std::thread root([&server] { server.run(); });

  net::relay::RelayConfig rcfg;
  rcfg.base = 2;  // agg_group is 4
  rcfg.count = 4;
  rcfg.idle_poll = std::chrono::milliseconds(2);
  rcfg.backoff.initial = std::chrono::milliseconds(1);
  rcfg.backoff.max = std::chrono::milliseconds(5);
  rcfg.backoff.max_attempts = 3;
  constexpr int kDialCap = 10;
  int dials = 0;
  net::relay::RelaySession relay(
      rcfg,
      [&](std::size_t) -> std::unique_ptr<Transport> {
        if (++dials > kDialCap) return nullptr;
        auto pair = net::transport::make_loopback_pair();
        server.add_transport(std::move(pair.first));
        return std::move(pair.second);
      },
      1);
  const net::relay::RelayRunStats st = relay.run();
  server.request_stop(false);
  root.join();

  EXPECT_FALSE(st.completed);
  EXPECT_EQ(dials, rcfg.backoff.max_attempts);
}

TEST(TierFaults, RelayStopsWithinAnIdlePollWhileItsParentIsUnreachable) {
  // Backoff waits are polled, never slept: a relay whose parent refuses
  // every dial still returns promptly from request_stop(), although its
  // next dial is seconds away.
  net::relay::RelayConfig rcfg;
  rcfg.base = 0;
  rcfg.count = 4;
  rcfg.idle_poll = std::chrono::milliseconds(20);
  rcfg.backoff.initial = std::chrono::milliseconds(5000);
  rcfg.backoff.max_attempts = 0;  // never gives up on its own
  std::atomic<int> dials{0};
  net::relay::RelaySession relay(
      rcfg,
      [&dials](std::size_t) -> std::unique_ptr<Transport> {
        ++dials;
        return nullptr;
      },
      1);
  std::thread runner([&relay] { relay.run(); });
  while (dials.load() == 0) std::this_thread::yield();
  const auto t0 = std::chrono::steady_clock::now();
  relay.request_stop();
  runner.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(1000));
  EXPECT_EQ(dials.load(), 1);
}

TEST(TierFaults, BindingRelayGetsTheRoundModelWithoutANudge) {
  // A relay binding after the round's broadcast is caught up like a direct
  // client: WELCOME, then the round's MODEL at once, with no wait for the
  // retransmit nudge (a minute here).
  using namespace net::transport;
  const auto spec = testutil::small_task_spec();  // 4 clients
  core::AdaFlParams params = testutil::small_params();
  params.agg_group = 4;
  auto task = cli::build_task(spec);
  ServerSessionConfig scfg = testutil::make_server_config(
      spec, testutil::small_client_config(), params, kRounds);
  scfg.retransmit_nudge = std::chrono::seconds(60);
  ServerSession server(scfg, task.factory, &task.test);
  std::thread runner([&server] { server.run(); });

  auto [root_end, relay_end] = make_loopback_pair();
  server.add_transport(std::move(root_end));
  RelayHelloPayload h;
  h.version = kProtocolVersion;
  h.base = 0;
  h.count = 4;
  Frame hello;
  hello.type = MsgType::kRelayHello;
  hello.client_id = kServerId;
  hello.payload = encode_relay_hello(h);
  ASSERT_TRUE(relay_end->send(hello));
  const auto welcome = relay_end->recv(std::chrono::milliseconds(2000));
  const auto model = relay_end->recv(std::chrono::milliseconds(2000));
  server.request_stop(/*write_checkpoint=*/false);
  runner.join();

  ASSERT_TRUE(welcome.has_value());
  EXPECT_EQ(welcome->type, MsgType::kWelcome);
  ASSERT_TRUE(model.has_value()) << "no MODEL within 2 s of binding";
  EXPECT_EQ(model->type, MsgType::kModel);
  EXPECT_EQ(model->round, 1u);
}

/// A relay for leaves [0, 4) whose parent the test plays frame by frame over
/// loopback: every dial hands the test a fresh parent end.
class ScriptedParentRelay {
 public:
  explicit ScriptedParentRelay(std::chrono::milliseconds nudge) {
    net::relay::RelayConfig rcfg;
    rcfg.base = 0;
    rcfg.count = 4;
    rcfg.idle_poll = std::chrono::milliseconds(2);
    rcfg.backoff.initial = std::chrono::milliseconds(10);
    rcfg.retransmit_nudge = nudge;
    relay_ = std::make_unique<net::relay::RelaySession>(
        rcfg,
        [this](std::size_t) -> std::unique_ptr<Transport> {
          auto pair = net::transport::make_loopback_pair();
          std::lock_guard<std::mutex> lock(mu_);
          parents_.push_back(std::move(pair.first));
          return std::move(pair.second);
        },
        1);
    thread_ = std::thread([this] { relay_->run(); });
  }
  ScriptedParentRelay(const ScriptedParentRelay&) = delete;
  ScriptedParentRelay& operator=(const ScriptedParentRelay&) = delete;
  ~ScriptedParentRelay() {
    relay_->request_stop();
    thread_.join();
  }

  /// The parent end of dial `n` (1-based), waiting up to `timeout` for it;
  /// nullptr when the relay has not dialed that often.
  Transport* parent(std::size_t n, std::chrono::milliseconds timeout) {
    const auto until = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (parents_.size() >= n) return parents_[n - 1].get();
      }
      if (std::chrono::steady_clock::now() >= until) return nullptr;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  net::relay::RelaySession& relay() { return *relay_; }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<Transport>> parents_;
  std::unique_ptr<net::relay::RelaySession> relay_;
  std::thread thread_;
};

/// Plays the root's side of the relay binding on `parent`: takes the
/// RELAY_HELLO, then sends WELCOME (agg_group 4) and round 1's MODEL.
void open_round_one(Transport& parent) {
  using namespace net::transport;
  const auto hello = parent.recv(std::chrono::milliseconds(2000));
  ASSERT_TRUE(hello.has_value());
  ASSERT_EQ(hello->type, MsgType::kRelayHello);
  WelcomeInfo w;
  w.rounds = 3;
  w.param_count = 4;
  w.params.agg_group = 4;
  ASSERT_TRUE(parent.send(Frame{MsgType::kWelcome, 0, kServerId,
                                encode_welcome(w)}));
  ModelPayload m;
  m.global.assign(4, 0.0f);
  m.g_hat.assign(4, 0.0f);
  ASSERT_TRUE(
      parent.send(Frame{MsgType::kModel, 1, kServerId, encode_model(m)}));
}

/// A parent frame of `type` naming leaf 4, one past the relay's range, is
/// malformed: the relay drops the parent link and dials again.
void expect_redial_after_out_of_range(MsgType type) {
  ScriptedParentRelay sp(std::chrono::seconds(60));
  Transport* parent = sp.parent(1, std::chrono::milliseconds(2000));
  ASSERT_NE(parent, nullptr);
  ASSERT_NO_FATAL_FAILURE(open_round_one(*parent));
  ASSERT_TRUE(parent->send(
      Frame{type, 1, 4,
            type == MsgType::kSelect ? net::transport::encode_f64(0.5)
                                     : std::vector<std::uint8_t>{}}));
  EXPECT_NE(sp.parent(2, std::chrono::milliseconds(2000)), nullptr)
      << "the relay kept a parent that named a leaf outside its range";
}

TEST(TierFaults, ParentSelectOutsideTheRangeRedialsTheParent) {
  expect_redial_after_out_of_range(MsgType::kSelect);
}

TEST(TierFaults, ParentSkipOutsideTheRangeRedialsTheParent) {
  expect_redial_after_out_of_range(MsgType::kSkip);
}

TEST(TierFaults, LeafJoiningAfterTheScorePhaseClosedGetsNoModel) {
  // The root serves a late client no MODEL once its score phase closed; a
  // relay closes its own at the parent's first SELECT or SKIP of the round,
  // so a leaf joining it afterwards gets WELCOME only, even from nudges.
  using namespace net::transport;
  ScriptedParentRelay sp(std::chrono::milliseconds(50));
  Transport* parent = sp.parent(1, std::chrono::milliseconds(2000));
  ASSERT_NE(parent, nullptr);
  ASSERT_NO_FATAL_FAILURE(open_round_one(*parent));
  ASSERT_TRUE(parent->send(Frame{MsgType::kSkip, 1, 1, {}}));
  // The PONG proves the relay handled the SKIP before the leaf joins.
  ASSERT_TRUE(parent->send(Frame{MsgType::kPing, 1, kServerId, {}}));
  std::optional<Frame> pong;
  while ((pong = parent->recv(std::chrono::milliseconds(2000))) &&
         pong->type != MsgType::kPong) {
  }
  ASSERT_TRUE(pong.has_value());

  auto [relay_end, leaf] = make_loopback_pair();
  sp.relay().add_child_transport(std::move(relay_end));
  ASSERT_TRUE(leaf->send(
      Frame{MsgType::kHello, 0, 0, encode_hello(kProtocolVersion)}));
  const auto welcome = leaf->recv(std::chrono::milliseconds(2000));
  ASSERT_TRUE(welcome.has_value());
  EXPECT_EQ(welcome->type, MsgType::kWelcome);
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < until) {
    const auto f = leaf->recv(std::chrono::milliseconds(10));
    if (f) {
      EXPECT_NE(f->type, MsgType::kModel) << "MODEL after the score phase";
    }
  }
}

}  // namespace
}  // namespace adafl
