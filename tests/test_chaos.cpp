// Chaos-injection and crash-recovery tests: scripted transport faults must
// leave the deployed session bitwise identical to the clean simulator, and a
// killed server must resume from its durable checkpoint with bitwise
// identical final weights (deployed loopback AND simulator trainers).
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>

#include "core/parallel.h"
#include "core/server_checkpoint.h"
#include "deployed_test_util.h"
#include "net/transport/faulty.h"
#include "net/transport/loopback.h"

namespace adafl::testutil {
namespace {

using namespace net::transport;
using std::chrono::milliseconds;

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  ::mkdir(dir.c_str(), 0755);
  std::remove((dir + "/server.ckpt").c_str());
  return dir;
}

void copy_file(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  ASSERT_TRUE(in.good()) << from;
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
}

// --- FaultyTransport semantics on a raw loopback pair. --------------------

Frame ping(std::uint32_t round) {
  Frame f;
  f.type = MsgType::kPing;
  f.round = round;
  f.client_id = 3;
  f.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  return f;
}

TEST(FaultyTransport, DropIsOneShotAndInvisibleToSender) {
  auto pair = make_loopback_pair();
  FaultPlan plan;
  plan.drop(FaultDir::kSend, MsgType::kPing, 1);
  FaultyTransport ft(std::move(pair.second), plan);
  EXPECT_TRUE(ft.send(ping(1)));  // dropped, but reported as sent
  EXPECT_FALSE(pair.first->recv(milliseconds(0)).has_value());
  EXPECT_TRUE(ft.send(ping(1)));  // rule already fired: delivered
  ASSERT_TRUE(pair.first->recv(milliseconds(0)).has_value());
  EXPECT_EQ(ft.faults_fired(), 1u);
}

TEST(FaultyTransport, DuplicateOnRecvReplaysTheFrameOnce) {
  auto pair = make_loopback_pair();
  FaultPlan plan;
  plan.duplicate(FaultDir::kRecv, MsgType::kPing, 2);
  FaultyTransport ft(std::move(pair.second), plan);
  ASSERT_TRUE(pair.first->send(ping(2)));
  auto a = ft.recv(milliseconds(0));
  auto b = ft.recv(milliseconds(0));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->payload, b->payload);
  EXPECT_FALSE(ft.recv(milliseconds(0)).has_value());
}

TEST(FaultyTransport, CorruptRecvThrowsLikeAMalformedStream) {
  auto pair = make_loopback_pair();
  FaultPlan plan;
  plan.corrupt_recv(MsgType::kPing, 3, /*offset=*/kFrameHeaderBytes + 2);
  FaultyTransport ft(std::move(pair.second), plan);
  ASSERT_TRUE(pair.first->send(ping(3)));
  EXPECT_THROW(ft.recv(milliseconds(0)), CheckError);
}

TEST(FaultyTransport, SeverClosesTheConnection) {
  auto pair = make_loopback_pair();
  FaultPlan plan;
  plan.sever_on_recv(MsgType::kPing, 4);
  FaultyTransport ft(std::move(pair.second), plan);
  ASSERT_TRUE(pair.first->send(ping(4)));
  EXPECT_FALSE(ft.recv(milliseconds(0)).has_value());
  EXPECT_TRUE(ft.closed());
}

TEST(FaultPlan, RandomIsSeedDeterministic) {
  const FaultPlan a = FaultPlan::random(0xFEED, 5, 4, true);
  const FaultPlan b = FaultPlan::random(0xFEED, 5, 4, true);
  ASSERT_EQ(a.rules.size(), b.rules.size());
  ASSERT_EQ(a.rules.size(), 6u);  // 5 faults + trailing sever
  for (std::size_t i = 0; i < a.rules.size(); ++i) {
    EXPECT_EQ(a.rules[i].dir, b.rules[i].dir);
    EXPECT_EQ(a.rules[i].kind, b.rules[i].kind);
    EXPECT_EQ(a.rules[i].msg_type, b.rules[i].msg_type);
    EXPECT_EQ(a.rules[i].round, b.rules[i].round);
    EXPECT_EQ(a.rules[i].delay, b.rules[i].delay);
  }
}

// --- Chaos matrix: scripted faults vs the clean simulator, bitwise. -------

/// Deployed loopback run with fault plans wrapped around ONE client's first
/// connection (client side and/or server side). `fault_count` receives the
/// number of rules that actually fired.
DeployedResult run_chaos_loopback(const cli::TaskSpec& spec,
                                  const fl::ClientTrainConfig& client,
                                  const core::AdaFlParams& params, int rounds,
                                  int faulty_client, FaultPlan client_plan,
                                  FaultPlan server_plan,
                                  std::atomic<int>* fault_count) {
  auto task = cli::build_task(spec);
  ServerSessionConfig scfg = make_server_config(spec, client, params, rounds);
  // Fast nudge so dropped frames are retransmitted promptly; quorum stays
  // "all", so no fault can silently degrade a round (the run would stall
  // against the 30 s deadline instead, failing loudly).
  scfg.retransmit_nudge = milliseconds(150);
  ServerSession server(scfg, task.factory, &task.test);

  const int n = spec.clients;
  std::vector<std::optional<cli::TaskBundle>> bundles(
      static_cast<std::size_t>(n));
  DeployedResult res;
  res.clients.resize(static_cast<std::size_t>(n));
  auto count_fault = [fault_count](const FaultRule&, const Frame&) {
    if (fault_count) fault_count->fetch_add(1);
  };
  // Wrap only the first dial: a redial after a recovered fault must come up
  // clean, or a one-shot corrupt-on-catchup would loop forever.
  auto wrapped = std::make_shared<std::atomic<bool>>(false);
  std::vector<std::thread> threads;
  for (int id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      ClientSessionConfig ccfg = test_client_config(id);
      ccfg.backoff.initial = milliseconds(1);
      ccfg.backoff.max = milliseconds(50);
      ClientSession cs(
          ccfg,
          [&, id]() -> std::unique_ptr<Transport> {
            auto pair = make_loopback_pair();
            std::unique_ptr<Transport> server_end = std::move(pair.first);
            std::unique_ptr<Transport> client_end = std::move(pair.second);
            if (id == faulty_client && !wrapped->exchange(true)) {
              if (!server_plan.rules.empty()) {
                auto ft = std::make_unique<FaultyTransport>(
                    std::move(server_end), server_plan);
                ft->set_on_fault(count_fault);
                server_end = std::move(ft);
              }
              if (!client_plan.rules.empty()) {
                auto ft = std::make_unique<FaultyTransport>(
                    std::move(client_end), client_plan);
                ft->set_on_fault(count_fault);
                client_end = std::move(ft);
              }
            }
            server.add_transport(std::move(server_end));
            return client_end;
          },
          make_bootstrap(&bundles[static_cast<std::size_t>(id)]));
      res.clients[static_cast<std::size_t>(id)] = cs.run();
    });
  }
  res.log = server.run();
  for (auto& t : threads) t.join();
  res.global = server.global();
  res.stats = server.stats();
  return res;
}

TEST(ChaosMatrix, ScriptedFaultsPreserveBitwiseEquivalence) {
  const cli::TaskSpec spec = small_task_spec();
  const fl::ClientTrainConfig client = small_client_config();
  const core::AdaFlParams params = small_params();
  const int rounds = 4;
  const SimResult sim = run_simulator(spec, client, params, rounds);

  struct Case {
    const char* name;
    FaultPlan client_side;
    FaultPlan server_side;
  };
  std::vector<Case> cases;
  {
    Case c{"drop-send-score", {}, {}};
    c.client_side.drop(FaultDir::kSend, MsgType::kScore, 2);
    cases.push_back(c);
  }
  {
    Case c{"drop-recv-model", {}, {}};
    c.client_side.drop(FaultDir::kRecv, MsgType::kModel, 2);
    cases.push_back(c);
  }
  {
    Case c{"drop-recv-select", {}, {}};
    c.client_side.drop(FaultDir::kRecv, MsgType::kSelect);
    cases.push_back(c);
  }
  {
    Case c{"drop-send-update", {}, {}};
    c.client_side.drop(FaultDir::kSend, MsgType::kUpdate);
    cases.push_back(c);
  }
  {
    Case c{"duplicate-send-score", {}, {}};
    c.client_side.duplicate(FaultDir::kSend, MsgType::kScore, 3);
    cases.push_back(c);
  }
  {
    Case c{"duplicate-recv-select", {}, {}};
    c.client_side.duplicate(FaultDir::kRecv, MsgType::kSelect);
    cases.push_back(c);
  }
  {
    Case c{"delay-send-update", {}, {}};
    c.client_side.delay_frame(FaultDir::kSend, MsgType::kUpdate, -1,
                              milliseconds(10));
    cases.push_back(c);
  }
  {
    Case c{"corrupt-recv-model-payload", {}, {}};
    c.client_side.corrupt_recv(MsgType::kModel, 2,
                               /*offset=*/kFrameHeaderBytes + 100);
    cases.push_back(c);
  }
  {
    Case c{"sever-recv-model", {}, {}};
    c.client_side.sever_on_recv(MsgType::kModel, 3);
    cases.push_back(c);
  }
  {
    // Server-side damage: the faulty client's SCORE arrives corrupted, the
    // server drops the connection (CheckError stays inside run()), and the
    // client redials and rescores.
    Case c{"server-corrupt-recv-score", {}, {}};
    c.server_side.corrupt_recv(MsgType::kScore, 2,
                               /*offset=*/kFrameHeaderBytes + 2);
    cases.push_back(c);
  }
  {
    Case c{"random-seeded-plan", {}, {}};
    c.client_side = FaultPlan::random(0xC0FFEE, 4, rounds, true);
    cases.push_back(c);
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::atomic<int> fired{0};
    DeployedResult dep =
        run_chaos_loopback(spec, client, params, rounds, /*faulty_client=*/1,
                           c.client_side, c.server_side, &fired);
    // Book the injected faults the way a chaos harness reports them.
    for (int i = 0; i < fired.load(); ++i) dep.log.ledger.record_fault();
    EXPECT_EQ(dep.log.ledger.total_faults(), fired.load());
    // Bitwise: every scripted fault is absorbed by retransmission,
    // deduplication, or redial+catchup without changing the result.
    EXPECT_EQ(dep.global, sim.global);
    EXPECT_EQ(dep.log.records.size(), static_cast<std::size_t>(rounds));
    EXPECT_EQ(dep.stats.selected_updates, sim.stats.selected_updates);
    for (const auto& st : dep.clients) EXPECT_TRUE(st.completed);
  }
}

// --- Kill + resume: deployed loopback, bitwise. ---------------------------

TEST(ChaosRecovery, KillResumeLoopbackBitwise) {
  const cli::TaskSpec spec = small_task_spec();
  const fl::ClientTrainConfig client = small_client_config();
  const core::AdaFlParams params = small_params();
  const int rounds = 4;
  const SimResult sim = run_simulator(spec, client, params, rounds);

  const std::string dir = fresh_dir("chaos_kill_resume");
  auto task = cli::build_task(spec);
  ServerSessionConfig scfg = make_server_config(spec, client, params, rounds);
  scfg.retransmit_nudge = milliseconds(150);
  scfg.checkpoint_dir = dir;
  scfg.checkpoint_every = 1;
  ServerSession server1(scfg, task.factory, &task.test);

  // Dial routing: clients survive the kill and redial into whichever server
  // currently exists (nullptr while the replacement is being built).
  std::mutex mu;
  ServerSession* current = &server1;
  auto dial_to_current = [&]() -> std::unique_ptr<Transport> {
    std::lock_guard<std::mutex> lock(mu);
    if (current == nullptr) return nullptr;  // counts as a failed dial
    auto pair = make_loopback_pair();
    current->add_transport(std::move(pair.first));
    return std::move(pair.second);
  };

  // Client 0's first connection drops the round-3 MODEL and simultaneously
  // "kills" server1: request_stop(false) is the SIGKILL-equivalent — no
  // stop-time checkpoint, recovery must come from the round-2 cadence write.
  auto killed = std::make_shared<std::atomic<bool>>(false);

  const int n = spec.clients;
  std::vector<std::optional<cli::TaskBundle>> bundles(
      static_cast<std::size_t>(n));
  std::vector<ClientRunStats> stats(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      ClientSessionConfig ccfg = test_client_config(id);
      ccfg.backoff.initial = milliseconds(1);
      ccfg.backoff.max = milliseconds(50);
      ClientSession cs(
          ccfg,
          [&, id]() -> std::unique_ptr<Transport> {
            auto t = dial_to_current();
            if (!t || id != 0 || killed->load()) return t;
            FaultPlan plan;
            plan.drop(FaultDir::kRecv, MsgType::kModel, 3);
            auto ft = std::make_unique<FaultyTransport>(std::move(t),
                                                        std::move(plan));
            ft->set_on_fault([&, killed](const FaultRule&, const Frame&) {
              killed->store(true);
              server1.request_stop(/*write_checkpoint=*/false);
            });
            return ft;
          },
          make_bootstrap(&bundles[static_cast<std::size_t>(id)]));
      stats[static_cast<std::size_t>(id)] = cs.run();
    });
  }

  const fl::TrainLog log1 = server1.run();
  EXPECT_TRUE(log1.interrupted);

  {
    std::lock_guard<std::mutex> lock(mu);
    current = nullptr;
  }
  ServerSessionConfig scfg2 = scfg;
  scfg2.resume = true;
  ServerSession server2(scfg2, task.factory, &task.test);
  {
    std::lock_guard<std::mutex> lock(mu);
    current = &server2;
  }
  const fl::TrainLog log2 = server2.run();
  for (auto& t : threads) t.join();

  // The kill fired in round 3; if the stop raced past a completed round the
  // cadence checkpoint moves one round further, never backwards.
  EXPECT_GE(server2.resumed_from(), 3);
  EXPECT_LE(server2.resumed_from(), rounds);
  EXPECT_EQ(log2.ledger.total_recoveries(), 1);
  EXPECT_FALSE(log2.interrupted);
  // Bitwise: the recovered deployment finishes exactly where an
  // uninterrupted simulator run lands.
  EXPECT_EQ(server2.global(), sim.global);
  for (const auto& st : stats) EXPECT_TRUE(st.completed);
}

// --- Kill + resume: simulator trainers, bitwise. --------------------------

/// Every client on a lossy link: a quarter of the uploads are lost and
/// every transfer draws jitter, so a resume that restored the wrong link
/// RNG state drifts in both the weights and the simulated clock.
std::vector<net::LinkConfig> lossy_links(const cli::TaskSpec& spec) {
  return net::make_fleet(spec.clients, 1.0, net::LinkQuality::kGood,
                         net::LinkQuality::kLossy);
}

// Stops an AdaFL simulator run after round 3 and resumes it from the
// stop-time checkpoint, with `stop_threads` pool lanes up to the stop and
// `resume_threads` after it (0 = automatic). The resumed run must land bit
// for bit where an uninterrupted run at the automatic size does.
void expect_adafl_sim_stop_resume_bitwise(
    const char* dir_tag, int stop_threads, int resume_threads,
    const std::vector<net::LinkConfig>& links = {}) {
  struct ThreadGuard {
    ~ThreadGuard() { core::set_num_threads(0); }
  } guard;
  const cli::TaskSpec spec = small_task_spec();
  const int rounds = 5;
  auto task = cli::build_task(spec);
  core::AdaFlSyncConfig cfg;
  cfg.params = small_params();
  cfg.rounds = rounds;
  cfg.client = small_client_config();
  cfg.links = links;
  cfg.eval_every = 1;
  cfg.seed = spec.seed;

  core::set_num_threads(0);
  core::AdaFlSyncTrainer clean(cfg, task.factory, &task.train, task.parts,
                               &task.test);
  const fl::TrainLog clean_log = clean.run();
  if (!links.empty()) {
    EXPECT_LT(clean_log.ledger.delivered_updates(),
              clean_log.ledger.attempted_updates());
  }

  const std::string path = fresh_dir(dir_tag) + "/server.ckpt";
  std::atomic<bool> stop{false};
  core::AdaFlSyncConfig icfg = cfg;
  icfg.checkpoint_path = path;
  icfg.checkpoint_every = 2;  // stop lands between cadence writes
  icfg.stop = &stop;
  icfg.on_round_end = [&](int round) {
    if (round == 3) stop.store(true);
  };
  core::set_num_threads(stop_threads);
  core::AdaFlSyncTrainer t1(icfg, task.factory, &task.train, task.parts,
                            &task.test);
  const fl::TrainLog log1 = t1.run();
  EXPECT_TRUE(log1.interrupted);

  core::AdaFlSyncConfig rcfg = cfg;
  rcfg.checkpoint_path = path;
  rcfg.resume = true;
  core::set_num_threads(resume_threads);
  core::AdaFlSyncTrainer t2(rcfg, task.factory, &task.train, task.parts,
                            &task.test);
  const fl::TrainLog log2 = t2.run();
  EXPECT_FALSE(log2.interrupted);
  EXPECT_EQ(log2.ledger.total_recoveries(), 1);
  EXPECT_EQ(t2.global(), clean.global());
  EXPECT_EQ(t2.stats().selected_updates, clean.stats().selected_updates);
  EXPECT_EQ(log2.total_time, clean_log.total_time);
  std::remove(path.c_str());
}

TEST(ChaosRecovery, AdaFlSimStopResumeBitwise) {
  expect_adafl_sim_stop_resume_bitwise("adafl_sim_resume", 0, 0);
}

// The clients of a round train, score and compress on the pool, so the
// checkpoint a 4-lane run writes must resume on 1 lane with no drift.
TEST(ChaosRecovery, AdaFlSimStopAtFourThreadsResumeAtOneBitwise) {
  expect_adafl_sim_stop_resume_bitwise("adafl_sim_resume_threads", 4, 1);
}

// The server RNG, each link's RNG and the client state all live in the
// checkpoint: lost uploads and jitter replay exactly after the stop.
TEST(ChaosRecovery, AdaFlSimOnLossyLinksStopResumeBitwise) {
  expect_adafl_sim_stop_resume_bitwise("adafl_sim_resume_lossy", 0, 0,
                                       lossy_links(small_task_spec()));
}

// Runs a SyncTrainer with a checkpoint every round, then resumes a second
// trainer from the round-2 checkpoint exactly as a kill -9 would have left
// it (next_round = 3, no stop-time write). The resumed run must end bit for
// bit where the uninterrupted one did.
void expect_sync_sim_resume_bitwise(
    const char* dir_tag, fl::Algorithm algo, double participation,
    const std::vector<net::LinkConfig>& links = {}) {
  const cli::TaskSpec spec = small_task_spec();
  const int rounds = 5;
  auto task = cli::build_task(spec);
  fl::SyncConfig cfg;
  cfg.algo = algo;
  cfg.rounds = rounds;
  cfg.participation = participation;
  cfg.client = small_client_config();
  cfg.links = links;
  cfg.eval_every = 1;
  cfg.seed = spec.seed;

  const std::string dir = fresh_dir(dir_tag);
  const std::string path = dir + "/server.ckpt";
  const std::string saved = dir + "/server.ckpt.round2";

  // Full run with checkpointing; stash the mid-run cadence file exactly as a
  // kill -9 would have left it (next_round = 3, no stop-time write).
  fl::SyncConfig icfg = cfg;
  icfg.checkpoint_path = path;
  icfg.checkpoint_every = 1;
  icfg.on_round_end = [&](int round) {
    if (round == 2) copy_file(path, saved);
  };
  fl::SyncTrainer t1(icfg, task.factory, &task.train, task.parts, &task.test);
  const fl::TrainLog log1 = t1.run();
  EXPECT_FALSE(log1.interrupted);
  if (!links.empty()) {
    EXPECT_LT(log1.ledger.delivered_updates(), log1.ledger.attempted_updates());
  }

  copy_file(saved, path);
  fl::SyncConfig rcfg = cfg;
  rcfg.checkpoint_path = path;
  rcfg.resume = true;
  fl::SyncTrainer t2(rcfg, task.factory, &task.train, task.parts, &task.test);
  const fl::TrainLog log2 = t2.run();
  EXPECT_EQ(log2.ledger.total_recoveries(), 1);
  EXPECT_EQ(t2.global(), t1.global());
  EXPECT_EQ(log2.total_time, log1.total_time);
  std::remove(path.c_str());
  std::remove(saved.c_str());
}

TEST(ChaosRecovery, FedAdamSimResumeFromCadenceCheckpointBitwise) {
  // Participation 0.75 exercises the schedule permutation.
  expect_sync_sim_resume_bitwise("fedadam_sim_resume",
                                 fl::Algorithm::kFedAdam, 0.75);
}

// SCAFFOLD adds the server variate c and each client's c_i, which clients
// outside the first rounds' samples have not initialised yet.
TEST(ChaosRecovery, ScaffoldSimResumeFromCadenceCheckpointBitwise) {
  expect_sync_sim_resume_bitwise("scaffold_sim_resume",
                                 fl::Algorithm::kScaffold, 0.75);
}

TEST(ChaosRecovery, FedAvgSimOnLossyLinksResumeFromCadenceCheckpointBitwise) {
  expect_sync_sim_resume_bitwise("fedavg_sim_resume_lossy",
                                 fl::Algorithm::kFedAvg, 0.75,
                                 lossy_links(small_task_spec()));
}

TEST(ChaosRecovery, ResumeRejectsAMismatchedRun) {
  const cli::TaskSpec spec = small_task_spec();
  auto task = cli::build_task(spec);
  core::AdaFlSyncConfig cfg;
  cfg.params = small_params();
  cfg.rounds = 2;
  cfg.client = small_client_config();
  cfg.eval_every = 1;
  cfg.seed = spec.seed;
  const std::string path = fresh_dir("mismatch_resume") + "/server.ckpt";
  cfg.checkpoint_path = path;
  core::AdaFlSyncTrainer t1(cfg, task.factory, &task.train, task.parts,
                            &task.test);
  (void)t1.run();

  core::AdaFlSyncConfig bad = cfg;
  bad.resume = true;
  bad.seed = cfg.seed + 1;  // different experiment
  core::AdaFlSyncTrainer t2(bad, task.factory, &task.train, task.parts,
                            &task.test);
  try {
    (void)t2.run();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos);
    EXPECT_NE(what.find("delete the checkpoint"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(ChaosRecovery, ResumeAfterCompletionIsActionable) {
  // A finished run leaves a checkpoint at next_round = rounds + 1. Resuming
  // from it would execute zero rounds and report nothing; it must be
  // rejected with an explanation instead.
  const cli::TaskSpec spec = small_task_spec();
  auto task = cli::build_task(spec);
  core::AdaFlSyncConfig cfg;
  cfg.params = small_params();
  cfg.rounds = 2;
  cfg.client = small_client_config();
  cfg.eval_every = 1;
  cfg.seed = spec.seed;
  const std::string path = fresh_dir("complete_resume") + "/server.ckpt";
  cfg.checkpoint_path = path;
  core::AdaFlSyncTrainer t1(cfg, task.factory, &task.train, task.parts,
                            &task.test);
  (void)t1.run();

  core::AdaFlSyncConfig again = cfg;
  again.resume = true;
  core::AdaFlSyncTrainer t2(again, task.factory, &task.train, task.parts,
                            &task.test);
  try {
    (void)t2.run();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("already complete"),
              std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(ChaosRecovery, ResumeWithoutCheckpointFileIsActionable) {
  const cli::TaskSpec spec = small_task_spec();
  auto task = cli::build_task(spec);
  core::AdaFlSyncConfig cfg;
  cfg.params = small_params();
  cfg.rounds = 2;
  cfg.client = small_client_config();
  cfg.seed = spec.seed;
  cfg.checkpoint_path = fresh_dir("no_ckpt_resume") + "/server.ckpt";
  cfg.resume = true;
  core::AdaFlSyncTrainer t(cfg, task.factory, &task.train, task.parts,
                           &task.test);
  EXPECT_THROW((void)t.run(), std::runtime_error);
}

}  // namespace
}  // namespace adafl::testutil
