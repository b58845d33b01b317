// ServerSession with an event loop attached (the flserver production
// path): the epoll loop owns the sockets, every UPDATE of a pass decodes in
// parallel on the worker pool whatever the shard count, and apply_round
// aggregates in parallel over element ranges — yet the run must stay
// bitwise identical to the in-process simulator at every shard count and
// worker-thread count, survive a mid-round client
// crash, and populate the round-latency / frame-dispatch histograms. Loop
// peers and add_transport() peers share one ConnId space, so a fleet split
// across both carriers and a standby attached through the loop are pinned
// here too.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "deployed_test_util.h"
#include "metrics/trace.h"
#include "net/replication/replication.h"

namespace adafl::net::transport {
namespace {

using std::chrono::milliseconds;

/// Runs the small task with the even clients dialing loop-owned TCP and the
/// odd ones handed to add_transport() over loopback: the shape
/// flserver --transport=udp serves in, with loopback standing in for the UDP
/// mux's per-peer transports. `tweak` adjusts the server config.
testutil::DeployedResult run_mixed_carriers(
    const cli::TaskSpec& spec, const fl::ClientTrainConfig& client,
    const core::AdaFlParams& params, int rounds,
    const std::function<void(ServerSessionConfig&)>& tweak = nullptr,
    const std::function<void(std::uint16_t port)>& before_clients = nullptr) {
  auto task = cli::build_task(spec);
  ServerSessionConfig scfg =
      testutil::make_server_config(spec, client, params, rounds);
  if (tweak) tweak(scfg);
  ServerSession server(scfg, task.factory, &task.test);
  TcpListener listener(0);
  const std::uint16_t port = listener.port();
  EventLoop loop(EventLoopConfig{});  // destroyed before the session
  loop.adopt_listener(listener.fd());
  server.attach_event_loop(&loop);
  if (before_clients) before_clients(port);

  const int n = spec.clients;
  std::vector<std::optional<cli::TaskBundle>> bundles(
      static_cast<std::size_t>(n));
  testutil::DeployedResult res;
  res.clients.resize(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      ClientSession cs(
          testutil::test_client_config(id),
          [&server, port, id]() -> std::unique_ptr<Transport> {
            if (id % 2 == 0)
              return TcpTransport::connect("127.0.0.1", port,
                                           milliseconds(1000));
            auto pair = make_loopback_pair();
            server.add_transport(std::move(pair.first));
            return std::move(pair.second);
          },
          testutil::make_bootstrap(&bundles[static_cast<std::size_t>(id)]));
      res.clients[static_cast<std::size_t>(id)] = cs.run();
    });
  }
  res.log = server.run();
  listener.close();
  for (auto& t : threads) t.join();
  res.global = server.global();
  res.stats = server.stats();
  return res;
}

std::vector<metrics::TraceEvent> semantic_events(const std::string& path) {
  std::vector<metrics::TraceEvent> out;
  for (metrics::TraceEvent e : metrics::read_trace_file(path).events) {
    if (e.type >= metrics::TraceEventType::kFrameTx) continue;
    e.t = 0.0;
    out.push_back(e);
  }
  return out;
}

/// Restores the automatic pool size even when an assertion fails mid-test.
struct ThreadGuard {
  ~ThreadGuard() { core::set_num_threads(0); }
};

TEST(EventLoopSession, DeployedMatchesSimulatorBitwise) {
  const auto spec = testutil::small_task_spec();
  const auto client = testutil::small_client_config();
  const auto params = testutil::small_params();
  const int rounds = 3;

  const auto sim = testutil::run_simulator(spec, client, params, rounds);

  EventLoopConfig lcfg;
  lcfg.shards = 2;
  metrics::Registry registry;
  const auto dep = [&] {
    metrics::PhaseSink phases(&registry);  // as flserver --profile does
    return testutil::run_deployed_event_loop(
        spec, client, params, rounds, lcfg, /*tracer=*/nullptr, /*quorum=*/0,
        milliseconds(30000), /*crash_client=*/-1, /*crash_round=*/0,
        &registry);
  }();

  ASSERT_EQ(dep.global.size(), sim.global.size());
  EXPECT_EQ(dep.global, sim.global);  // bitwise: float == float
  ASSERT_EQ(dep.log.records.size(), sim.log.records.size());
  for (std::size_t i = 0; i < sim.log.records.size(); ++i) {
    EXPECT_EQ(dep.log.records[i].test_accuracy,
              sim.log.records[i].test_accuracy)
        << "round " << sim.log.records[i].round;
  }
  EXPECT_EQ(dep.stats.selected_updates, sim.stats.selected_updates);
  EXPECT_EQ(dep.stats.skipped_clients, sim.stats.skipped_clients);
  for (const auto& st : dep.clients) {
    EXPECT_TRUE(st.completed);
    EXPECT_EQ(st.rounds_trained, rounds);
    EXPECT_EQ(st.reconnects, 0);
  }

  // The loop-mode observability: one latency sample per round, dispatch
  // samples for every frame the session drained, and a sane percentile
  // ordering on each.
  const auto& rl = registry.histogram("server.round_latency_ms");
  EXPECT_EQ(rl.count(), static_cast<std::uint64_t>(rounds));
  const auto& fd = registry.histogram("server.frame_dispatch_ms");
  EXPECT_GT(fd.count(), 0u);
  EXPECT_LE(fd.percentile(0.5), fd.percentile(0.99));
  EXPECT_GE(fd.percentile(0.99), fd.min());
  EXPECT_LE(fd.percentile(0.99), fd.max());

  // Phase timings land in the same registry. The server aggregates and
  // evaluates (eval_every = 1) once per round; the clients run in this
  // process, so their training scopes are counted too.
  const auto calls = [&registry](const char* phase) {
    return registry.histogram(std::string("profile.") + phase + "_ms")
        .count();
  };
  EXPECT_EQ(calls("aggregate"), static_cast<std::uint64_t>(rounds));
  EXPECT_EQ(calls("eval"), static_cast<std::uint64_t>(rounds));
  EXPECT_EQ(calls("client-train"),
            static_cast<std::uint64_t>(rounds * spec.clients));
}

// Shard count is a performance knob, never a semantics knob: 1 shard and 3
// shards must both reproduce the simulator bitwise (decode batching and the
// element-range parallel aggregation cannot depend on the partition).
TEST(EventLoopSession, ShardCountInvariant) {
  const auto spec = testutil::small_task_spec();
  const auto client = testutil::small_client_config();
  const auto params = testutil::small_params();
  const int rounds = 3;

  const auto sim = testutil::run_simulator(spec, client, params, rounds);
  for (int shards : {1, 3}) {
    EventLoopConfig lcfg;
    lcfg.shards = shards;
    const auto dep = testutil::run_deployed_event_loop(spec, client, params,
                                                       rounds, lcfg);
    EXPECT_EQ(dep.global, sim.global) << "shards=" << shards;
  }
}

// Worker-thread count sweeps the parallel_for_blocked partition under the
// parallel apply_round; the per-element accumulation order is fixed by
// selection order, so the result is bitwise invariant.
TEST(EventLoopSession, WorkerThreadCountInvariant) {
  ThreadGuard guard;
  const auto spec = testutil::small_task_spec();
  const auto client = testutil::small_client_config();
  const auto params = testutil::small_params();
  const int rounds = 2;

  core::set_num_threads(1);
  const auto base = testutil::run_simulator(spec, client, params, rounds);
  for (int threads : {2, 4}) {
    core::set_num_threads(threads);
    EventLoopConfig lcfg;
    lcfg.shards = 2;
    const auto dep = testutil::run_deployed_event_loop(spec, client, params,
                                                       rounds, lcfg);
    EXPECT_EQ(dep.global, base.global) << "threads=" << threads;
  }
}

// Tiny queues force the backpressure path (reads paused mid-round) in a
// real session; the run must still complete and match the simulator.
TEST(EventLoopSession, SurvivesSaturatedQueues) {
  const auto spec = testutil::small_task_spec();
  const auto client = testutil::small_client_config();
  const auto params = testutil::small_params();
  const int rounds = 3;

  const auto sim = testutil::run_simulator(spec, client, params, rounds);
  EventLoopConfig lcfg;
  lcfg.shards = 1;
  lcfg.queue_depth = 2;
  lcfg.read_budget = 4096;
  const auto dep =
      testutil::run_deployed_event_loop(spec, client, params, rounds, lcfg);
  EXPECT_EQ(dep.global, sim.global);
  for (const auto& st : dep.clients) EXPECT_TRUE(st.completed);
}

// A client that severs its connection on round 2's MODEL must be able to
// rejoin through the event-loop handshake (rebind + catch-up) while the
// server finishes every round on the survivors' quorum.
TEST(EventLoopSession, CrashedClientRejoins) {
  const auto spec = testutil::small_task_spec();
  const auto client = testutil::small_client_config();
  const auto params = testutil::small_params();
  const int rounds = 4;

  const auto dep = testutil::run_deployed_event_loop(
      spec, client, params, rounds, EventLoopConfig{}, /*tracer=*/nullptr,
      /*quorum=*/3, milliseconds(5000), /*crash_client=*/3,
      /*crash_round=*/2);

  ASSERT_EQ(dep.log.records.size(), static_cast<std::size_t>(rounds));
  for (const auto& rec : dep.log.records) EXPECT_GE(rec.participants, 1);
  EXPECT_GE(dep.clients[3].reconnects, 1);
  EXPECT_GE(dep.log.ledger.total_reconnects(), 1);
  for (int id = 0; id < 3; ++id) {
    EXPECT_TRUE(dep.clients[static_cast<std::size_t>(id)].completed) << id;
    EXPECT_EQ(dep.clients[static_cast<std::size_t>(id)].rounds_trained,
              rounds)
        << id;
  }
  EXPECT_GE(dep.clients[3].rounds_trained, 2);
}

// Half the fleet on each carrier: loop frames and pumped frames meet in one
// batch and one dispatch, and the run is still the simulator's bitwise and
// semantic-trace twin.
TEST(EventLoopSession, MixedCarriersMatchSimulatorBitwiseAndTrace) {
  const auto spec = testutil::small_task_spec();
  const auto client = testutil::small_client_config();
  const auto params = testutil::small_params();
  const int rounds = 3;
  const std::string sim_path = ::testing::TempDir() + "mixed_sim.jsonl";
  const std::string dep_path = ::testing::TempDir() + "mixed_dep.jsonl";
  metrics::RunManifest m;
  m.algo = "adafl-sync";
  m.seed = spec.seed;
  m.rounds = rounds;
  m.clients = spec.clients;

  metrics::Tracer sim_tracer;
  m.producer = "flsim";
  sim_tracer.open(sim_path, m);
  const auto sim =
      testutil::run_simulator(spec, client, params, rounds, &sim_tracer);
  sim_tracer.close();

  metrics::Tracer dep_tracer;
  m.producer = "deployed";
  dep_tracer.open(dep_path, m);
  const auto dep = run_mixed_carriers(
      spec, client, params, rounds,
      [&dep_tracer](ServerSessionConfig& c) { c.tracer = &dep_tracer; });
  dep_tracer.close();

  EXPECT_EQ(dep.global, sim.global);
  EXPECT_EQ(dep.stats.selected_updates, sim.stats.selected_updates);
  for (const auto& st : dep.clients) {
    EXPECT_TRUE(st.completed);
    EXPECT_EQ(st.rounds_trained, rounds);
  }
  const auto a = semantic_events(sim_path);
  const auto b = semantic_events(dep_path);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << "divergence at event " << i << ": sim="
                          << metrics::Tracer::format_line(a[i])
                          << " deployed=" << metrics::Tracer::format_line(b[i]);
  std::remove(sim_path.c_str());
  std::remove(dep_path.c_str());
}

// A standby dialing the loop-owned listener is a peer of the session like
// any client: it receives every checkpoint and is stood down by the
// completed run.
TEST(EventLoopSession, StandbyThroughTheLoopReplicatesAndStandsDown) {
  const auto spec = testutil::small_task_spec();
  const auto client = testutil::small_client_config();
  const auto params = testutil::small_params();
  const int rounds = 3;
  const std::string dir = ::testing::TempDir() + "loop_standby_primary";
  const std::string standby_dir = ::testing::TempDir() + "loop_standby";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(standby_dir);
  std::filesystem::create_directories(dir);
  std::filesystem::create_directories(standby_dir);

  replication::StandbyConfig stcfg;
  stcfg.checkpoint_dir = standby_dir;
  stcfg.recv_poll = milliseconds(10);
  std::unique_ptr<replication::StandbyReplica> replica;
  replication::StandbyOutcome outcome{};
  std::thread standby_thread;

  const auto sim = testutil::run_simulator(spec, client, params, rounds);
  const auto dep = run_mixed_carriers(
      spec, client, params, rounds,
      [&](ServerSessionConfig& c) {
        c.checkpoint_dir = dir;
      },
      [&](std::uint16_t port) {
        // Dialed before any client, so the STANDBY_HELLO lands early.
        replica = std::make_unique<replication::StandbyReplica>(
            stcfg, [port]() -> std::unique_ptr<Transport> {
              return TcpTransport::connect("127.0.0.1", port,
                                           milliseconds(1000));
            });
        standby_thread = std::thread([&] { outcome = replica->run(); });
      });
  standby_thread.join();

  EXPECT_EQ(dep.global, sim.global);
  EXPECT_EQ(outcome, replication::StandbyOutcome::kStandDown);
  EXPECT_GE(replica->checkpoints_received(), 1u);
  EXPECT_EQ(replica->rejected_payloads(), 0u);
  EXPECT_EQ(replica->last_next_round(), static_cast<std::uint32_t>(rounds + 1));
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(standby_dir);
}

}  // namespace
}  // namespace adafl::net::transport
