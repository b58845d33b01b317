// Shared harness for the deployed-session tests: runs the same small AdaFL
// task through the in-process simulator (AdaFlSyncTrainer) and through
// ServerSession/ClientSession over a real Transport, so the two paths can be
// compared bitwise (same seed => identical global weights).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli/task.h"
#include "core/adafl_sync.h"
#include "fl/client.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "net/transport/event_loop.h"
#include "net/transport/faulty.h"
#include "net/transport/loopback.h"
#include "net/transport/session.h"
#include "net/transport/tcp.h"
#include "net/transport/udp.h"

namespace adafl::testutil {

/// A task small enough that a full deployed-vs-simulated double run stays
/// well under a second, yet non-trivial (non-iid split, selection pressure).
inline cli::TaskSpec small_task_spec() {
  cli::TaskSpec spec;
  spec.dataset = "mnist";
  spec.model = "mlp";
  spec.dist = "noniid";
  spec.clients = 4;
  spec.train_samples = 400;
  spec.test_samples = 120;
  spec.seed = 7;
  return spec;
}

inline fl::ClientTrainConfig small_client_config() {
  fl::ClientTrainConfig c;
  c.batch_size = 16;
  c.local_steps = 2;
  c.lr = 0.05f;
  return c;
}

inline core::AdaFlParams small_params() {
  core::AdaFlParams p;
  p.max_selected = 2;
  p.tau = 0.3;
  p.compression.warmup_rounds = 1;  // rounds >= 2 exercise real selection
  return p;
}

struct SimResult {
  fl::TrainLog log;
  std::vector<float> global;
  core::AdaFlStats stats;
};

inline SimResult run_simulator(const cli::TaskSpec& spec,
                               const fl::ClientTrainConfig& client,
                               const core::AdaFlParams& params, int rounds,
                               metrics::Tracer* tracer = nullptr) {
  auto task = cli::build_task(spec);
  core::AdaFlSyncConfig cfg;
  cfg.params = params;
  cfg.rounds = rounds;
  cfg.client = client;
  cfg.eval_every = 1;
  cfg.seed = spec.seed;
  cfg.tracer = tracer;
  core::AdaFlSyncTrainer t(cfg, task.factory, &task.train, task.parts,
                           &task.test);
  SimResult r;
  r.log = t.run();
  r.global = t.global();
  r.stats = t.stats();
  return r;
}

/// The longest round of a deployed run in wall seconds, the first counted
/// from the start of the run.
inline double longest_round_s(const fl::TrainLog& log) {
  double longest = 0.0;
  double prev = 0.0;
  for (const fl::RoundRecord& r : log.records) {
    longest = std::max(longest, r.time - prev);
    prev = r.time;
  }
  return longest;
}

struct DeployedResult {
  fl::TrainLog log;
  std::vector<float> global;
  core::AdaFlStats stats;
  std::vector<net::transport::ClientRunStats> clients;
};

inline net::transport::ServerSessionConfig make_server_config(
    const cli::TaskSpec& spec, const fl::ClientTrainConfig& client,
    const core::AdaFlParams& params, int rounds) {
  net::transport::ServerSessionConfig scfg;
  scfg.params = params;
  scfg.rounds = rounds;
  scfg.eval_every = 1;
  scfg.expected_clients = spec.clients;
  scfg.quorum = 0;  // all
  scfg.round_deadline = std::chrono::milliseconds(30000);
  scfg.client_config = cli::task_to_kv(spec, client);
  return scfg;
}

/// The standard deployed-client bootstrap: rebuild the task from the
/// server-sent kv config and derive the simulator-identical seed. `bundle`
/// must outlive the session (the FlClient borrows the training dataset).
inline net::transport::ClientSession::BootstrapFn make_bootstrap(
    std::optional<cli::TaskBundle>* bundle) {
  return [bundle](const std::map<std::string, std::string>& kv, int id,
                  const core::AdaFlParams&) {
    cli::TaskSpec spec;
    fl::ClientTrainConfig cc;
    cli::task_from_kv(kv, &spec, &cc);
    bundle->emplace(cli::build_task(spec));
    return fl::make_client(bundle->value().factory, &bundle->value().train,
                           bundle->value().parts, cc, {},
                           spec.seed ^ core::kAdaFlClientSeedSalt, id);
  };
}

/// Fast-turnaround client knobs for tests (real defaults are tuned for WAN).
inline net::transport::ClientSessionConfig test_client_config(int id) {
  net::transport::ClientSessionConfig ccfg;
  ccfg.client_id = id;
  ccfg.recv_poll = std::chrono::milliseconds(20);
  ccfg.heartbeat_interval = std::chrono::milliseconds(300);
  ccfg.liveness_timeout = std::chrono::milliseconds(2000);
  ccfg.backoff.initial = std::chrono::milliseconds(30);
  ccfg.backoff.max = std::chrono::milliseconds(100);
  ccfg.backoff.max_attempts = 30;
  return ccfg;
}

/// Spaces a client's heartbeats 30 s apart, so that in a clean run only the
/// round's own frames can end a server's idle wait.
inline void quiet_heartbeats(net::transport::ClientSessionConfig& c) {
  c.heartbeat_interval = std::chrono::seconds(30);
  c.liveness_timeout = std::chrono::seconds(60);
}

/// Per-client decorator for the client-side loopback transport, applied on
/// every (re)dial. Return the transport unchanged for a clean client, or
/// wrap it (e.g. in a FaultyTransport) to script a fault.
using TransportWrapFn = std::function<std::unique_ptr<net::transport::Transport>(
    int client_id, std::unique_ptr<net::transport::Transport>)>;

/// Full deployed run over in-process loopback transports: server in the
/// calling thread, one thread per client. `tracer` (not owned) is forwarded
/// to the ServerSession so the run emits the same semantic event stream as
/// the simulator plus deployed-only transport events.
inline DeployedResult run_deployed_loopback(const cli::TaskSpec& spec,
                                            const fl::ClientTrainConfig& client,
                                            const core::AdaFlParams& params,
                                            int rounds,
                                            metrics::Tracer* tracer = nullptr,
                                            TransportWrapFn wrap = nullptr) {
  using namespace net::transport;
  auto task = cli::build_task(spec);
  ServerSessionConfig scfg = make_server_config(spec, client, params, rounds);
  scfg.tracer = tracer;
  // Loopback is instant; nudge early so a scripted frame drop (wrap) is
  // retransmitted promptly. Clean runs never reach the nudge path.
  scfg.retransmit_nudge = std::chrono::milliseconds(100);
  ServerSession server(scfg, task.factory, &task.test);

  const int n = spec.clients;
  std::vector<std::optional<cli::TaskBundle>> bundles(
      static_cast<std::size_t>(n));
  DeployedResult res;
  res.clients.resize(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      ClientSession cs(
          test_client_config(id),
          [&server, &wrap, id]() -> std::unique_ptr<Transport> {
            auto pair = make_loopback_pair();
            server.add_transport(std::move(pair.first));
            std::unique_ptr<Transport> t = std::move(pair.second);
            if (wrap) t = wrap(id, std::move(t));
            return t;
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

/// Per-client decorator for the client-side datagram link of a UDP loopback
/// run, applied on every (re)dial — wrap in a FaultyDatagramLink to script
/// packet loss/reorder below the FEC layer.
using DatagramWrapFn =
    std::function<std::unique_ptr<net::transport::DatagramLink>(
        int client_id, std::unique_ptr<net::transport::DatagramLink>)>;

/// Full deployed run over the FEC-coded datagram transport on in-process
/// loopback links: every frame is fragmented, Reed-Solomon-coded, and
/// reassembled exactly as over a real UDP socket, minus the kernel. Both
/// directions of each connection share `fec` (shape + hooks); `server_stats`,
/// when given, overrides the stats sink for the server-side endpoints so
/// tests can assert on repairs seen by the server alone.
inline DeployedResult run_deployed_udp_loopback(
    const cli::TaskSpec& spec, const fl::ClientTrainConfig& client,
    const core::AdaFlParams& params, int rounds,
    const net::transport::UdpFecConfig& fec,
    metrics::Tracer* tracer = nullptr, DatagramWrapFn dwrap = nullptr,
    net::transport::FecStats* server_stats = nullptr,
    std::chrono::milliseconds nudge = std::chrono::milliseconds(300),
    std::chrono::milliseconds idle_poll =
        net::transport::ServerSessionConfig{}.idle_poll,
    std::function<void(net::transport::ClientSessionConfig&)> client_tweak =
        nullptr) {
  using namespace net::transport;
  auto task = cli::build_task(spec);
  ServerSessionConfig scfg = make_server_config(spec, client, params, rounds);
  scfg.tracer = tracer;
  scfg.retransmit_nudge = nudge;
  scfg.idle_poll = idle_poll;
  ServerSession server(scfg, task.factory, &task.test);

  UdpFecConfig server_fec = fec;
  if (server_stats != nullptr) server_fec.stats = server_stats;

  const int n = spec.clients;
  std::vector<std::optional<cli::TaskBundle>> bundles(
      static_cast<std::size_t>(n));
  DeployedResult res;
  res.clients.resize(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      ClientSessionConfig ccfg = test_client_config(id);
      if (client_tweak) client_tweak(ccfg);
      ClientSession cs(
          ccfg,
          [&server, &server_fec, &fec, &dwrap,
           id]() -> std::unique_ptr<Transport> {
            auto [a, b] = make_datagram_loopback_pair();
            server.add_transport(
                std::make_unique<UdpTransport>(std::move(a), server_fec));
            std::unique_ptr<DatagramLink> link = std::move(b);
            if (dwrap) link = dwrap(id, std::move(link));
            return std::make_unique<UdpTransport>(std::move(link), fec);
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

/// Full deployed run over real TCP on 127.0.0.1 (ephemeral port), with an
/// accept thread handing each socket to add_transport() (flserver serves on
/// an EventLoop instead: run_deployed_event_loop). Optionally injects a
/// crash fault into one client (it abruptly drops its connection on
/// `crash_round`'s MODEL).
inline DeployedResult run_deployed_tcp(
    const cli::TaskSpec& spec, const fl::ClientTrainConfig& client,
    const core::AdaFlParams& params, int rounds, int quorum = 0,
    std::chrono::milliseconds deadline = std::chrono::milliseconds(30000),
    int crash_client = -1, int crash_round = 0) {
  using namespace net::transport;
  auto task = cli::build_task(spec);
  ServerSessionConfig scfg = make_server_config(spec, client, params, rounds);
  scfg.quorum = quorum;
  scfg.round_deadline = deadline;
  ServerSession server(scfg, task.factory, &task.test);

  TcpListener listener(0);
  const std::uint16_t port = listener.port();
  std::atomic<bool> done{false};
  std::thread acceptor([&] {
    while (!done.load()) {
      auto t = listener.accept(std::chrono::milliseconds(50));
      if (t) server.add_transport(std::move(t));
    }
  });

  const int n = spec.clients;
  std::vector<std::optional<cli::TaskBundle>> bundles(
      static_cast<std::size_t>(n));
  DeployedResult res;
  res.clients.resize(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      ClientSessionConfig ccfg = test_client_config(id);
      // The crash is injected at the transport layer: FaultyTransport severs
      // the first connection on `crash_round`'s MODEL, and the shared flag
      // keeps redialed connections clean so it fires exactly once.
      auto crash_fired = std::make_shared<std::atomic<bool>>(false);
      const bool crashes = id == crash_client && crash_round > 0;
      if (crashes) {
        // Redial almost immediately: on this tiny task the server burns
        // through rounds in milliseconds, and the test needs the rejoin to
        // land while the session is still running.
        ccfg.backoff.initial = std::chrono::milliseconds(1);
        ccfg.backoff.max = std::chrono::milliseconds(50);
      }
      ClientSession cs(
          ccfg,
          [port, crashes, crash_round,
           crash_fired]() -> std::unique_ptr<Transport> {
            auto t = TcpTransport::connect("127.0.0.1", port,
                                           std::chrono::milliseconds(1000));
            if (!t || !crashes || crash_fired->load()) return t;
            FaultPlan plan;
            plan.sever_on_recv(MsgType::kModel, crash_round);
            auto faulty = std::make_unique<FaultyTransport>(std::move(t),
                                                            std::move(plan));
            faulty->set_on_fault([crash_fired](const FaultRule&,
                                               const Frame&) {
              crash_fired->store(true);
            });
            return faulty;
          },
          make_bootstrap(&bundles[static_cast<std::size_t>(id)]));
      res.clients[static_cast<std::size_t>(id)] = cs.run();
    });
  }

  res.log = server.run();
  done.store(true);
  listener.close();
  acceptor.join();
  for (auto& t : threads) t.join();
  res.global = server.global();
  res.stats = server.stats();
  return res;
}

/// Full deployed run over real TCP on 127.0.0.1 driven by the epoll event
/// loop (the flserver production path): the loop owns the listening fd and
/// every accepted socket, and the session runs in loop mode
/// (attach_event_loop), decoding each pass's UPDATEs in parallel on the
/// worker pool. Mirrors
/// run_deployed_tcp's crash-injection knobs so the rejoin/catch-up paths get
/// exercised through the loop handshake.
inline DeployedResult run_deployed_event_loop(
    const cli::TaskSpec& spec, const fl::ClientTrainConfig& client,
    const core::AdaFlParams& params, int rounds,
    const net::transport::EventLoopConfig& lcfg =
        net::transport::EventLoopConfig{},
    metrics::Tracer* tracer = nullptr, int quorum = 0,
    std::chrono::milliseconds deadline = std::chrono::milliseconds(30000),
    int crash_client = -1, int crash_round = 0,
    metrics::Registry* registry = nullptr) {
  using namespace net::transport;
  auto task = cli::build_task(spec);
  ServerSessionConfig scfg = make_server_config(spec, client, params, rounds);
  scfg.tracer = tracer;
  scfg.registry = registry;
  scfg.quorum = quorum;
  scfg.round_deadline = deadline;
  ServerSession server(scfg, task.factory, &task.test);

  TcpListener listener(0);
  const std::uint16_t port = listener.port();
  // Declared after the session so it is destroyed (loop thread stopped)
  // before the session members it feeds — same ordering as flserver.
  EventLoop loop(lcfg);
  loop.adopt_listener(listener.fd());
  server.attach_event_loop(&loop);  // run() starts and stops the loop

  const int n = spec.clients;
  std::vector<std::optional<cli::TaskBundle>> bundles(
      static_cast<std::size_t>(n));
  DeployedResult res;
  res.clients.resize(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      ClientSessionConfig ccfg = test_client_config(id);
      auto crash_fired = std::make_shared<std::atomic<bool>>(false);
      const bool crashes = id == crash_client && crash_round > 0;
      if (crashes) {
        ccfg.backoff.initial = std::chrono::milliseconds(1);
        ccfg.backoff.max = std::chrono::milliseconds(50);
      }
      ClientSession cs(
          ccfg,
          [port, crashes, crash_round,
           crash_fired]() -> std::unique_ptr<Transport> {
            auto t = TcpTransport::connect("127.0.0.1", port,
                                           std::chrono::milliseconds(1000));
            if (!t || !crashes || crash_fired->load()) return t;
            FaultPlan plan;
            plan.sever_on_recv(MsgType::kModel, crash_round);
            auto faulty = std::make_unique<FaultyTransport>(std::move(t),
                                                            std::move(plan));
            faulty->set_on_fault([crash_fired](const FaultRule&,
                                               const Frame&) {
              crash_fired->store(true);
            });
            return faulty;
          },
          make_bootstrap(&bundles[static_cast<std::size_t>(id)]));
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

}  // namespace adafl::testutil
