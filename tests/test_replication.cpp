// Hot-standby replication tests: REPLICATE codec, standby-side validation
// (truncated / bit-flipped / version-skewed / config-skewed images are
// rejected and the previous complete checkpoint survives), atomic install,
// the primary's session serving standbys as peers (PONG, one REPLICATE per
// checkpoint, late-attach seeding, SHUTDOWN, forgetting a closed standby),
// and an in-process mid-run failover that must land bitwise identical to
// the clean simulator.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <thread>

#include "core/server_checkpoint.h"
#include "deployed_test_util.h"
#include "metrics/trace.h"
#include "net/replication/replication.h"
#include "net/transport/crc32.h"
#include "net/transport/loopback.h"

namespace adafl::testutil {
namespace {

using namespace net::transport;
using namespace net::replication;
using std::chrono::milliseconds;

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  ::mkdir(dir.c_str(), 0755);
  std::remove((dir + "/server.ckpt").c_str());
  std::remove((dir + "/server.ckpt.tmp").c_str());
  return dir;
}

/// A small but fully populated deployed-style checkpoint.
core::ServerCheckpoint make_ckpt(std::uint32_t next_round,
                                 std::uint32_t total_rounds,
                                 std::uint32_t config_crc) {
  core::ServerCheckpoint ck;
  ck.producer = "deployed";
  ck.next_round = next_round;
  ck.total_rounds = total_rounds;
  ck.seed = 7;
  ck.config_crc = config_crc;
  ck.global = {0.5f, -1.25f, 2.0f, 0.125f};
  core::ServerCheckpoint::AdaFlCoreState a;
  a.g_hat = {0.1f, 0.2f, 0.3f, 0.4f};
  a.selected_updates = 3;
  a.rounds_planned = static_cast<std::int32_t>(total_rounds);
  ck.adafl = a;
  return ck;
}

std::vector<std::uint8_t> image_of(const core::ServerCheckpoint& ck) {
  return core::encode_checkpoint_file_bytes(core::encode_server_checkpoint(ck));
}

Frame replicate_frame(std::vector<std::uint8_t> payload) {
  Frame f;
  f.type = MsgType::kReplicate;
  f.client_id = kServerId;
  f.payload = std::move(payload);
  return f;
}

// --- REPLICATE payload codec. ---------------------------------------------

TEST(ReplicateCodec, RoundTripTruncationAndTrailingBytes) {
  ReplicatePayload p;
  p.next_round = 5;
  p.image = {1, 2, 3, 4, 5, 6, 7};
  const auto enc = encode_replicate(p);
  const ReplicatePayload back = parse_replicate(enc);
  EXPECT_EQ(back.next_round, 5u);
  EXPECT_EQ(back.image, p.image);

  auto truncated = enc;
  truncated.resize(enc.size() - 3);
  EXPECT_THROW(parse_replicate(truncated), CheckError);

  auto trailing = enc;
  trailing.push_back(0xFF);
  EXPECT_THROW(parse_replicate(trailing), CheckError);
}

// --- Standby validation + fallback (ISSUE 8 satellite 4). -----------------

TEST(StandbyReplica, RejectsCorruptImagesAndKeepsPreviousCheckpoint) {
  const std::string dir = fresh_dir("standby_reject");
  constexpr std::uint32_t kCfgCrc = 0xABCD1234u;

  // Pre-queue the whole scripted conversation, then run the replica
  // synchronously: loopback delivers in order, kShutdown ends the run.
  auto pair = make_loopback_pair();
  std::unique_ptr<Transport> primary = std::move(pair.first);
  std::unique_ptr<Transport> standby_end = std::move(pair.second);

  const auto good = image_of(make_ckpt(2, 6, kCfgCrc));
  {
    ReplicatePayload p{2, good};
    ASSERT_TRUE(primary->send(replicate_frame(encode_replicate(p))));
  }
  {  // Truncated REPLICATE payload.
    ReplicatePayload p{3, image_of(make_ckpt(3, 6, kCfgCrc))};
    auto enc = encode_replicate(p);
    enc.resize(enc.size() / 2);
    ASSERT_TRUE(primary->send(replicate_frame(std::move(enc))));
  }
  {  // Bit-flipped image: the whole-file CRC must catch it.
    ReplicatePayload p{3, image_of(make_ckpt(3, 6, kCfgCrc))};
    p.image[p.image.size() / 2] ^= 0x01;
    ASSERT_TRUE(primary->send(replicate_frame(encode_replicate(p))));
  }
  {  // Version skew with a *recomputed* file CRC: the version check itself
     // must reject, not just the checksum.
    ReplicatePayload p{3, image_of(make_ckpt(3, 6, kCfgCrc))};
    p.image[4] ^= 0x03;  // version u32 little-endian low byte: 2 -> 1
    const std::uint32_t crc = crc32(std::span<const std::uint8_t>(
        p.image.data(), p.image.size() - 4));
    for (int i = 0; i < 4; ++i)
      p.image[p.image.size() - 4 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(crc >> (8 * i));
    ASSERT_TRUE(primary->send(replicate_frame(encode_replicate(p))));
  }
  {  // Envelope/meta round disagreement.
    ReplicatePayload p{9, image_of(make_ckpt(3, 6, kCfgCrc))};
    ASSERT_TRUE(primary->send(replicate_frame(encode_replicate(p))));
  }
  {  // Config skew: a primary running a different configuration.
    ReplicatePayload p{3, image_of(make_ckpt(3, 6, kCfgCrc ^ 0xFFu))};
    ASSERT_TRUE(primary->send(replicate_frame(encode_replicate(p))));
  }
  {
    Frame f;
    f.type = MsgType::kShutdown;
    f.client_id = kServerId;
    ASSERT_TRUE(primary->send(f));
  }

  StandbyConfig scfg;
  scfg.checkpoint_dir = dir;
  scfg.lease = milliseconds(5000);
  scfg.recv_poll = milliseconds(5);
  scfg.expected_config_crc = kCfgCrc;
  bool dialed = false;
  StandbyReplica replica(scfg, [&]() -> std::unique_ptr<Transport> {
    if (dialed) return nullptr;
    dialed = true;
    return std::move(standby_end);
  });

  EXPECT_EQ(replica.run(), StandbyOutcome::kStandDown);
  EXPECT_EQ(replica.checkpoints_received(), 1u);
  EXPECT_EQ(replica.rejected_payloads(), 5u);
  EXPECT_EQ(replica.last_next_round(), 2u);

  // The first (valid) checkpoint survived every later corrupt payload...
  const auto ck = core::load_server_checkpoint(core::checkpoint_path(dir));
  EXPECT_EQ(ck.next_round, 2u);
  EXPECT_EQ(ck.config_crc, kCfgCrc);
  // ...and the install was atomic: no torn tmp file left behind.
  EXPECT_FALSE(std::filesystem::exists(core::checkpoint_path(dir) + ".tmp"));
}

TEST(StandbyReplica, PartialCheckpointFileCannotBeResumedFrom) {
  // What a NON-atomic installer would leave after a mid-write crash. The
  // loader must refuse it outright — promotion from a torn file is
  // structurally impossible, which is why install() goes through
  // write_checkpoint_bytes_atomic (tmp + rename) only after full validation.
  const std::string dir = fresh_dir("standby_partial");
  const auto img = image_of(make_ckpt(2, 6, 0));
  const std::string path = core::checkpoint_path(dir);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(img.data()),
            static_cast<std::streamsize>(img.size() / 2));
  out.close();
  EXPECT_THROW(core::load_server_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

// --- Lease behavior. ------------------------------------------------------

TEST(StandbyReplica, PromotesWhenThePrimaryIsSilent) {
  StandbyConfig scfg;
  scfg.checkpoint_dir = fresh_dir("standby_silent");
  scfg.lease = milliseconds(250);
  scfg.recv_poll = milliseconds(10);
  auto pair = make_loopback_pair();  // a peer that never says anything
  std::unique_ptr<Transport> standby_end = std::move(pair.second);
  StandbyReplica replica(scfg, [&]() -> std::unique_ptr<Transport> {
    return std::move(standby_end);
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(replica.run(), StandbyOutcome::kPromote);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, milliseconds(240));
  EXPECT_EQ(replica.checkpoints_received(), 0u);
}

TEST(StandbyReplica, PromotesWhenThePrimaryIsUnreachable) {
  StandbyConfig scfg;
  scfg.checkpoint_dir = fresh_dir("standby_unreachable");
  scfg.lease = milliseconds(250);
  scfg.recv_poll = milliseconds(10);
  StandbyReplica replica(scfg,
                         []() -> std::unique_ptr<Transport> { return nullptr; });
  EXPECT_EQ(replica.run(), StandbyOutcome::kPromote);
}

// --- Standbys as peers of the primary's session. -------------------------

constexpr int kStandbyRounds = 4;

/// A loopback standby attached to `server`: its STANDBY_HELLO, then
/// `extra`, are queued before the session first reads it, and `faults`
/// apply to the session's end. Returns the standby's end.
std::unique_ptr<Transport> attach_standby(ServerSession& server,
                                          const std::vector<Frame>& extra = {},
                                          FaultPlan faults = {}) {
  auto pair = make_loopback_pair();
  EXPECT_TRUE(pair.second->send(Frame{MsgType::kStandbyHello, 0, kServerId,
                                      encode_hello(kProtocolVersion)}));
  for (const Frame& f : extra) EXPECT_TRUE(pair.second->send(f));
  std::unique_ptr<Transport> end = std::move(pair.first);
  if (!faults.rules.empty())
    end = std::make_unique<FaultyTransport>(std::move(end), std::move(faults));
  server.add_transport(std::move(end));
  return std::move(pair.second);
}

/// Every frame queued on a standby's end.
std::vector<Frame> drain_frames(Transport& t) {
  std::vector<Frame> out;
  while (auto f = t.recv(milliseconds(0))) out.push_back(std::move(*f));
  return out;
}

/// next_round of each REPLICATE in `frames`, in order.
std::vector<std::uint32_t> replicated_rounds(const std::vector<Frame>& frames) {
  std::vector<std::uint32_t> out;
  for (const Frame& f : frames)
    if (f.type == MsgType::kReplicate)
      out.push_back(parse_replicate(f.payload).next_round);
  return out;
}

/// Runs `server` against the small task's loopback clients. `hook` runs on
/// client 0's thread as its first connection receives MODEL(hook_round),
/// before the client sees it, so the server cannot finish that round's
/// score phase before the hook returns.
fl::TrainLog run_with_hook(ServerSession& server, const cli::TaskSpec& spec,
                           int hook_round, const std::function<void()>& hook) {
  const int n = spec.clients;
  std::vector<std::optional<cli::TaskBundle>> bundles(
      static_cast<std::size_t>(n));
  std::vector<ClientRunStats> stats(static_cast<std::size_t>(n));
  std::atomic<bool> hooked{false};
  std::vector<std::thread> threads;
  for (int id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      ClientSession cs(
          test_client_config(id),
          [&, id]() -> std::unique_ptr<Transport> {
            auto pair = make_loopback_pair();
            server.add_transport(std::move(pair.first));
            std::unique_ptr<Transport> t = std::move(pair.second);
            if (id != 0 || hooked.exchange(true)) return t;
            FaultPlan plan;  // a zero delay only to observe the frame
            plan.delay_frame(FaultDir::kRecv, MsgType::kModel, hook_round,
                             milliseconds(0));
            auto ft = std::make_unique<FaultyTransport>(std::move(t),
                                                        std::move(plan));
            ft->set_on_fault([&](const FaultRule&, const Frame&) { hook(); });
            return ft;
          },
          make_bootstrap(&bundles[static_cast<std::size_t>(id)]));
      stats[static_cast<std::size_t>(id)] = cs.run();
    });
  }
  fl::TrainLog log = server.run();
  for (auto& t : threads) t.join();
  for (const auto& st : stats) EXPECT_TRUE(st.completed);
  return log;
}

ServerSessionConfig standby_server_config(const cli::TaskSpec& spec,
                                          const std::string& dir) {
  ServerSessionConfig scfg = make_server_config(
      spec, small_client_config(), small_params(), kStandbyRounds);
  scfg.checkpoint_dir = dir;
  scfg.checkpoint_every = 1;
  return scfg;
}

/// A tracer writing to `name` in the test's temp dir.
std::string open_tracer(metrics::Tracer& tracer, const char* name) {
  const std::string path = ::testing::TempDir() + name;
  metrics::RunManifest m;
  m.producer = "test";
  tracer.open(path, m);
  return path;
}

/// The replicate events of the trace at `path`, in order.
std::vector<metrics::TraceEvent> replicate_events(const std::string& path) {
  std::vector<metrics::TraceEvent> out;
  for (const metrics::TraceEvent& e : metrics::read_trace_file(path).events)
    if (e.type == metrics::TraceEventType::kReplicate) out.push_back(e);
  return out;
}

TEST(StandbyPeer, PingsReplicatesSeedsLateAttachersAndStandsDown) {
  const cli::TaskSpec spec = small_task_spec();
  auto task = cli::build_task(spec);
  const std::string dir = fresh_dir("standby_peer_seed");
  metrics::Tracer tracer;
  const std::string trace = open_tracer(tracer, "standby_peer_seed.jsonl");
  ServerSessionConfig scfg = standby_server_config(spec, dir);
  scfg.tracer = &tracer;
  ServerSession server(scfg, task.factory, &task.test);

  // The early standby's HELLO and PING are read before round 1 ends.
  std::unique_ptr<Transport> early =
      attach_standby(server, {Frame{MsgType::kPing, 0, kServerId, {}}});
  // The late one says hello as client 0 receives MODEL(3), after the
  // round-2 checkpoint. Client 0 sees that MODEL only once the late
  // standby has its first frame, so round 3 cannot end before the session
  // read the hello: the seed is the round-2 checkpoint.
  std::unique_ptr<Transport> late;
  std::vector<Frame> b;
  const fl::TrainLog log = run_with_hook(server, spec, 3, [&] {
    late = attach_standby(server);
    if (auto f = late->recv(std::chrono::seconds(10)))
      b.push_back(std::move(*f));
  });
  EXPECT_FALSE(log.interrupted);
  ASSERT_NE(late, nullptr);

  const std::vector<Frame> a = drain_frames(*early);
  ASSERT_EQ(a.size(), 6u);
  EXPECT_EQ(a.front().type, MsgType::kPong);
  EXPECT_EQ(replicated_rounds(a), (std::vector<std::uint32_t>{2, 3, 4, 5}));
  EXPECT_EQ(a.back().type, MsgType::kShutdown);

  for (Frame& f : drain_frames(*late)) b.push_back(std::move(f));
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(replicated_rounds(b), (std::vector<std::uint32_t>{3, 4, 5}));
  EXPECT_EQ(b.back().type, MsgType::kShutdown);
  // Both standbys got the same encoding of each checkpoint, and the last
  // one carries the image the primary wrote to disk.
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(b[i].payload, a[i + 2].payload) << "REPLICATE " << i;
  std::ifstream disk(core::checkpoint_path(dir), std::ios::binary);
  const std::vector<std::uint8_t> written(
      (std::istreambuf_iterator<char>(disk)), std::istreambuf_iterator<char>());
  EXPECT_EQ(parse_replicate(a[4].payload).image, written);

  EXPECT_EQ(server.checkpoints_replicated(), 7u);
  EXPECT_EQ(server.standbys_attached(), 2);

  // One replicate event per REPLICATE sent, the late standby's seed
  // included, each with its standby's slot.
  tracer.close();
  std::vector<std::pair<int, int>> sent;  // (round, slot)
  for (const metrics::TraceEvent& e : replicate_events(trace))
    sent.emplace_back(e.round, e.client);
  EXPECT_EQ(sent, (std::vector<std::pair<int, int>>{
                      {2, 0}, {3, 0}, {3, 1}, {4, 0}, {4, 1}, {5, 0}, {5, 1}}));
}

// Both ends trace a replicate as the size of the checkpoint image, not of
// the REPLICATE payload around it.
TEST(StandbyPeer, PrimaryAndStandbyTraceTheSameImageBytes) {
  const cli::TaskSpec spec = small_task_spec();
  auto task = cli::build_task(spec);
  metrics::Tracer primary_tracer;
  const std::string primary_trace =
      open_tracer(primary_tracer, "standby_bytes_primary.jsonl");
  ServerSessionConfig scfg =
      standby_server_config(spec, fresh_dir("standby_bytes_primary"));
  scfg.tracer = &primary_tracer;
  ServerSession server(scfg, task.factory, &task.test);
  std::unique_ptr<Transport> standby = attach_standby(server);
  (void)run_with_hook(server, spec, 1, [] {});
  primary_tracer.close();

  // What the primary sent, replayed into a standby replica.
  auto pair = make_loopback_pair();
  for (const Frame& f : drain_frames(*standby))
    ASSERT_TRUE(pair.first->send(f));
  metrics::Tracer standby_tracer;
  const std::string standby_trace =
      open_tracer(standby_tracer, "standby_bytes_standby.jsonl");
  StandbyConfig rcfg;
  rcfg.checkpoint_dir = fresh_dir("standby_bytes_standby");
  rcfg.recv_poll = milliseconds(5);
  rcfg.tracer = &standby_tracer;
  std::unique_ptr<Transport> end = std::move(pair.second);
  StandbyReplica replica(rcfg, [&end] { return std::move(end); });
  EXPECT_EQ(replica.run(), StandbyOutcome::kStandDown);
  standby_tracer.close();

  const auto sent = replicate_events(primary_trace);
  const auto installed = replicate_events(standby_trace);
  ASSERT_EQ(sent.size(), static_cast<std::size_t>(kStandbyRounds));
  ASSERT_EQ(installed.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(installed[i].round, sent[i].round);
    EXPECT_EQ(installed[i].bytes, sent[i].bytes) << "replicate " << i;
  }
}

TEST(StandbyPeer, ClosedStandbyIsForgotten) {
  const cli::TaskSpec spec = small_task_spec();
  const SimResult sim = run_simulator(spec, small_client_config(),
                                      small_params(), kStandbyRounds);
  auto task = cli::build_task(spec);
  ServerSession server(
      standby_server_config(spec, fresh_dir("standby_peer_closed")),
      task.factory, &task.test);

  std::unique_ptr<Transport> dropped = attach_standby(server);
  // The session's send of this one's second frame, REPLICATE(3), fails.
  std::unique_ptr<Transport> severed =
      attach_standby(server, {}, FaultPlan().sever_on_send_frame(1));
  std::unique_ptr<Transport> kept = attach_standby(server);
  // Closed as client 0 receives MODEL(2): after the round-1 checkpoint,
  // before the round-2 one.
  const fl::TrainLog log =
      run_with_hook(server, spec, 2, [&] { dropped->close(); });
  EXPECT_FALSE(log.interrupted);
  EXPECT_EQ(server.global(), sim.global);

  for (Transport* t : {dropped.get(), severed.get()}) {
    const std::vector<Frame> gone = drain_frames(*t);
    EXPECT_EQ(gone.size(), 1u);
    EXPECT_EQ(replicated_rounds(gone), std::vector<std::uint32_t>{2});
  }
  const std::vector<Frame> stayed = drain_frames(*kept);
  EXPECT_EQ(replicated_rounds(stayed),
            (std::vector<std::uint32_t>{2, 3, 4, 5}));
  ASSERT_FALSE(stayed.empty());
  EXPECT_EQ(stayed.back().type, MsgType::kShutdown);

  EXPECT_EQ(server.checkpoints_replicated(), 6u);
  EXPECT_EQ(server.standbys_attached(), 3);
}

// --- End-to-end failover, bitwise (ISSUE 8 tentpole). ---------------------

TEST(Failover, PromotedStandbyFinishesTheRunBitwise) {
  const cli::TaskSpec spec = small_task_spec();
  const fl::ClientTrainConfig client = small_client_config();
  const core::AdaFlParams params = small_params();
  const int rounds = 4;
  const SimResult sim = run_simulator(spec, client, params, rounds);

  const std::string dir_a = fresh_dir("failover_primary");
  const std::string dir_b = fresh_dir("failover_standby");
  auto task = cli::build_task(spec);

  ServerSessionConfig scfg = make_server_config(spec, client, params, rounds);
  scfg.retransmit_nudge = milliseconds(150);
  scfg.checkpoint_dir = dir_a;
  scfg.checkpoint_every = 1;
  ServerSession server1(scfg, task.factory, &task.test);

  // Endpoint table: slot 0 = primary, slot 1 = the promoted standby (null
  // until promotion — a dial then fails fast, like a TCP connect to an
  // unbound port, and the client rotates on).
  std::mutex mu;
  ServerSession* eps[2] = {&server1, nullptr};
  auto dial_ep = [&](std::size_t ep) -> std::unique_ptr<Transport> {
    std::lock_guard<std::mutex> lock(mu);
    if (eps[ep] == nullptr) return nullptr;
    auto pair = make_loopback_pair();
    eps[ep]->add_transport(std::move(pair.first));
    return std::move(pair.second);
  };

  // The standby tails the primary through the same endpoint table.
  StandbyConfig stcfg;
  stcfg.checkpoint_dir = dir_b;
  stcfg.lease = milliseconds(700);
  stcfg.recv_poll = milliseconds(10);
  StandbyReplica replica(stcfg, [&]() -> std::unique_ptr<Transport> {
    return dial_ep(0);
  });
  StandbyOutcome outcome{};
  std::thread standby_thread([&] { outcome = replica.run(); });

  // Client 0's first connection drops the round-3 MODEL and SIGKILLs the
  // primary: no stop-time checkpoint, endpoint 0 goes dark at once.
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
      ccfg.backoff.max = milliseconds(30);
      ccfg.backoff.max_attempts = 0;  // rotate endpoints forever
      ClientSession cs(
          ccfg,
          [&, id](std::size_t ep) -> std::unique_ptr<Transport> {
            auto t = dial_ep(ep);
            if (!t || id != 0 || killed->load()) return t;
            FaultPlan plan;
            plan.sever_on_recv(MsgType::kModel, 3);
            auto ft = std::make_unique<FaultyTransport>(std::move(t),
                                                        std::move(plan));
            ft->set_on_fault([&, killed](const FaultRule&, const Frame&) {
              killed->store(true);
              {
                std::lock_guard<std::mutex> lock(mu);
                eps[0] = nullptr;
              }
              server1.request_stop(/*write_checkpoint=*/false);
            });
            return ft;
          },
          /*endpoint_count=*/2,
          make_bootstrap(&bundles[static_cast<std::size_t>(id)]));
      stats[static_cast<std::size_t>(id)] = cs.run();
    });
  }

  const fl::TrainLog log1 = server1.run();
  EXPECT_TRUE(log1.interrupted);

  // The lease expires against the dead primary; the standby promotes and a
  // replacement session resumes from ITS OWN replicated checkpoint dir.
  standby_thread.join();
  ASSERT_EQ(outcome, StandbyOutcome::kPromote);
  ASSERT_GE(replica.checkpoints_received(), 1u);
  ASSERT_GE(replica.last_next_round(), 2u);

  ServerSessionConfig scfg2 = scfg;
  scfg2.checkpoint_dir = dir_b;
  scfg2.resume = true;
  ServerSession server2(scfg2, task.factory, &task.test);
  {
    std::lock_guard<std::mutex> lock(mu);
    eps[1] = &server2;
  }
  const fl::TrainLog log2 = server2.run();
  for (auto& t : threads) t.join();

  EXPECT_FALSE(log2.interrupted);
  EXPECT_GE(server2.resumed_from(), 2);
  EXPECT_LE(server2.resumed_from(), rounds);
  // Bitwise: the failover stitches into exactly the clean simulator run —
  // rejoin dedup means nothing is double-counted, replay is identical.
  EXPECT_EQ(server2.global(), sim.global);
  for (const auto& st : stats) {
    EXPECT_TRUE(st.completed);
    EXPECT_GE(st.endpoint_rotations, 1);
  }
}

}  // namespace
}  // namespace adafl::testutil
