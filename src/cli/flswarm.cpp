// flswarm — an in-process fleet of deployed AdaFL clients (load generator).
//
// Dials one flserver with N real TCP connections from a single process and
// drives all N clients through the round protocol — the scaling half of
// scripts/server_scaling_soak.sh and bench_results/BENCH_server_scaling.json.
// Spawning 10,000 flclient processes would exhaust the box long before the
// server breaks a sweat; flswarm multiplexes 10,000 protocol state machines
// over a handful of driver threads instead, while the server still sees
// 10,000 distinct sockets, handshakes, and per-client round interleavings.
//
// Fidelity: every client is a ClientProtocol, the round handlers
// ClientSession runs, built with fl::make_client(seed ^
// kAdaFlClientSeedSalt, id) from ONE shared TaskBundle (the dataset and
// partition are built once, not N times), so the server's final weights
// are bitwise identical to flsim and to a fleet of real flclient processes.
// Only the I/O differs: drivers sweep their clients with non-blocking polls
// and redial after a fixed --redial-ms, without heartbeats (10k clients
// pinging would change the server's load).
//
//   flswarm --server=127.0.0.1:4242 --clients=1000 --drivers=4
#include <atomic>
#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cli/args.h"
#include "cli/task.h"
#include "core/adafl_server.h"
#include "core/parallel.h"
#include "fl/client.h"
#include "net/transport/client_protocol.h"
#include "net/transport/tcp.h"
#include "tensor/check.h"
#include "tensor/dispatch.h"

using namespace adafl;
namespace nt = adafl::net::transport;

namespace {

using Clock = std::chrono::steady_clock;

/// One client's connection around its ClientProtocol; owned by exactly one
/// driver thread, which sweeps it with non-blocking polls.
struct SwarmClient {
  explicit SwarmClient(nt::ClientProtocol p) : proto(std::move(p)) {}

  nt::ClientProtocol proto;
  std::unique_ptr<nt::Transport> conn;
  bool done = false;
  int reconnects = 0;
  int dial_failures = 0;
  Clock::time_point next_dial_at{};  ///< linear redial backoff
};

/// Shared, once-built task state. The first WELCOME to arrive builds the
/// bundle under the mutex; every other client (on any driver) reuses it.
struct SharedTask {
  std::mutex mu;
  std::optional<cli::TaskBundle> bundle;
  fl::ClientTrainConfig client_cfg;
  std::uint64_t seed = 0;
};

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args("flswarm");
  args.option("host", "127.0.0.1", "server host")
      .option("port", "4242", "server port")
      .option("server", "", "host:port (overrides --host/--port)")
      .option("clients", "100", "fleet size (drives client ids 0..N-1)")
      .option("drivers", "4",
              "driver threads; each sweeps its share of the fleet's "
              "non-blocking state machines")
      .option("connect-timeout-ms", "3000", "TCP connect timeout")
      .option("redial-ms", "200", "delay before redialing a failed/dead "
              "connection")
      .option("timeout-s", "600",
              "give up after this long without every client reaching "
              "SHUTDOWN (0 = wait forever)")
      .option("threads", "1",
              "tensor worker threads (default 1: training is swept from "
              "multiple driver threads; per-run results are thread-count "
              "invariant either way)")
      .option("kernel-backend", "",
              "auto|scalar|avx2 — SIMD kernel backend (empty = "
              "ADAFL_KERNEL_BACKEND env or the scalar reference)");
  if (!args.parse(argc, argv)) {
    std::cerr << "flswarm: " << args.error() << "\n\n" << args.usage();
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }

  try {
    core::set_num_threads(args.get_int_at_least("threads", 1));
    if (const std::string kb = args.get("kernel-backend"); !kb.empty())
      tensor::set_kernel_backend(tensor::resolve_kernel_backend(kb));

    std::string server = args.get("server");
    if (server.empty()) server = args.get("host") + ":" + args.get("port");
    const std::vector<cli::Endpoint> endpoints = cli::parse_endpoints(server);
    if (endpoints.size() != 1)
      throw std::invalid_argument("--server expects one host:port");
    const cli::Endpoint& ep = endpoints.front();

    const int n = args.get_int_at_least("clients", 1);
    const int drivers = std::min(args.get_int_at_least("drivers", 1), n);
    const auto connect_timeout =
        std::chrono::milliseconds(args.get_int("connect-timeout-ms"));
    const auto redial = std::chrono::milliseconds(
        args.get_int_at_least("redial-ms", 0));
    const int timeout_s = args.get_int_at_least("timeout-s", 0);

    SharedTask shared;
    const nt::ClientSession::BootstrapFn bootstrap =
        [&shared](const std::map<std::string, std::string>& kv, int id,
                  const core::AdaFlParams&) {
          {
            std::lock_guard<std::mutex> lk(shared.mu);
            if (!shared.bundle) {
              cli::TaskSpec spec;
              cli::task_from_kv(kv, &spec, &shared.client_cfg);
              shared.seed = static_cast<std::uint64_t>(spec.seed);
              std::cout << "bootstrapped: dataset=" << spec.dataset
                        << " model=" << spec.model
                        << " clients=" << spec.clients
                        << " seed=" << spec.seed << std::endl;
              shared.bundle.emplace(cli::build_task(spec));
            }
          }
          return fl::make_client(shared.bundle->factory,
                                 &shared.bundle->train, shared.bundle->parts,
                                 shared.client_cfg, {},
                                 shared.seed ^ core::kAdaFlClientSeedSalt, id);
        };
    std::vector<SwarmClient> fleet;
    fleet.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      fleet.emplace_back(nt::ClientProtocol(i, bootstrap));

    std::atomic<int> done_count{0};
    std::atomic<bool> give_up{false};

    // One sweep over one client: (re)dial if needed, then drain its socket.
    // Returns true on any progress (frame handled or connection made).
    auto sweep = [&](SwarmClient& c) -> bool {
      if (c.done) return false;
      if (!c.conn || c.conn->closed()) {
        const bool had_conn = static_cast<bool>(c.conn);
        c.conn.reset();
        if (Clock::now() < c.next_dial_at) return false;
        c.conn = nt::TcpTransport::connect(ep.host, ep.port, connect_timeout);
        if (!c.conn) {
          ++c.dial_failures;
          c.next_dial_at = Clock::now() + redial;
          return false;
        }
        if (had_conn) ++c.reconnects;
        c.conn->send(c.proto.hello());
        return true;
      }
      bool progress = false;
      while (c.conn && !c.done) {
        std::optional<nt::Frame> f;
        nt::ClientProtocol::Step step;
        try {
          f = c.conn->recv(std::chrono::milliseconds(0));
          if (!f) break;
          step = c.proto.handle(*f);
        } catch (const CheckError&) {
          c.conn->close();  // malformed stream or payload: redial
          break;
        }
        progress = true;
        if (step.reply) c.conn->send(*step.reply);
        if (step.outcome == nt::ClientProtocol::Outcome::kShutdown) {
          c.done = true;
          c.conn->close();
          c.conn.reset();
          done_count.fetch_add(1);
        }
      }
      return progress;
    };

    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(drivers));
    for (int d = 0; d < drivers; ++d) {
      pool.emplace_back([&, d] {
        // Contiguous block ownership: no two drivers ever touch one client.
        const int lo = d * n / drivers;
        const int hi = (d + 1) * n / drivers;
        while (!give_up.load()) {
          bool progress = false;
          int live = 0;
          for (int i = lo; i < hi; ++i) {
            SwarmClient& c = fleet[static_cast<std::size_t>(i)];
            if (sweep(c)) progress = true;
            if (!c.done) ++live;
          }
          if (live == 0) return;
          if (!progress)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
    }
    while (done_count.load() < n && !give_up.load()) {
      if (timeout_s > 0 &&
          Clock::now() - t0 > std::chrono::seconds(timeout_s)) {
        give_up.store(true);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    for (auto& t : pool) t.join();

    int rounds_trained = 0, updates_sent = 0, skips = 0, reconnects = 0;
    int dial_failures = 0;
    for (const SwarmClient& c : fleet) {
      rounds_trained += c.proto.rounds_trained();
      updates_sent += c.proto.updates_sent();
      skips += c.proto.skips();
      reconnects += c.reconnects;
      dial_failures += c.dial_failures;
    }
    const int completed = done_count.load();
    std::cout << "swarm-done: clients=" << n << " completed=" << completed
              << " drivers=" << drivers
              << " rounds-trained=" << rounds_trained
              << " updates-sent=" << updates_sent << " skips=" << skips
              << " reconnects=" << reconnects
              << " dial-failures=" << dial_failures << " wall-s="
              << std::chrono::duration<double>(Clock::now() - t0).count()
              << std::endl;
    return completed == n ? 0 : 3;
  } catch (const std::invalid_argument& e) {  // a malformed flag value
    std::cerr << "flswarm: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "flswarm: " << e.what() << "\n";
    return 1;
  }
}
