// flrelay — mid-tier aggregation relay for hierarchical FL deployments.
//
// Sits between an flserver (or another flrelay) and a contiguous range of
// leaf clients: serves flclient connections on --port from one epoll loop,
// sends them the cached WELCOME/MODEL, forwards their HELLO/SCORE traffic
// up, and ships each aggregation group's updates to the parent as one
// lossless UPDATE-AGG partial. Bitwise transparent: a tiered run equals a
// flat run with the same --agg-group (tests/test_tier.cpp,
// scripts/tier_soak.sh).
//
//   flrelay --port=5242 --parent=127.0.0.1:4242 --base=0 --count=4
//
// With --standby the relay stays dormant until an orphaned client dials it
// (the signal that the primary relay died), then claims the range from the
// parent and takes over mid-round.
#include <csignal>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "cli/args.h"
#include "metrics/trace.h"
#include "net/relay/relay.h"
#include "net/transport/event_loop.h"
#include "net/transport/tcp.h"

using namespace adafl;

namespace {
net::relay::RelaySession* g_session = nullptr;
void handle_signal(int) {
  if (g_session != nullptr) g_session->request_stop();
}
}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args("flrelay");
  args.option("port", "5242", "listen port for leaf clients / sub-relays")
      .option("parent", "127.0.0.1:4242",
              "prioritized parent endpoint list host:port[,host:port...]: "
              "when the current endpoint's redial budget is exhausted the "
              "relay rotates to the next one")
      .option("base", "0", "first leaf client id this relay covers")
      .option("count", "0",
              "number of leaf ids covered ([base, base+count)); must be a "
              "multiple of the run's --agg-group")
      .option("standby", "0",
              "stay dormant until a child connects, then claim the range "
              "from the parent (hot-standby relay promotion)")
      .option("connect-timeout-ms", "3000", "parent TCP connect timeout")
      .option("backoff-initial-ms", "200", "first parent redial delay")
      .option("backoff-max-ms", "5000", "parent redial delay cap")
      .option("max-attempts", "10",
              "consecutive failed parent dials before giving up "
              "(0 = forever)")
      .option("heartbeat-ms", "1000",
              "PING the parent after this long without traffic")
      .option("liveness-ms", "8000",
              "redial the parent after this long of silence")
      .option("nudge-ms", "2000",
              "re-send stalled MODEL/SELECT state to children after this "
              "long without progress (doubles per firing; 0 = off)")
      .option("trace", "",
              "append structured JSONL transport events to this file "
              "('' = off)");
  if (!args.parse(argc, argv)) {
    std::cerr << "flrelay: " << args.error() << "\n\n" << args.usage();
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }

  try {
    const auto connect_timeout =
        std::chrono::milliseconds(args.get_int("connect-timeout-ms"));

    const std::string parent_list = args.get("parent");
    const std::vector<cli::Endpoint> endpoints =
        cli::parse_endpoints(parent_list);

    const std::uint16_t port = args.get_port("port");
    net::relay::RelayConfig cfg;
    cfg.base = args.get_int("base");
    cfg.count = args.get_int_at_least("count", 1);
    cfg.standby = args.get_bool("standby");
    cfg.heartbeat_interval =
        std::chrono::milliseconds(args.get_int("heartbeat-ms"));
    cfg.liveness_timeout =
        std::chrono::milliseconds(args.get_int("liveness-ms"));
    cfg.retransmit_nudge = std::chrono::milliseconds(args.get_int("nudge-ms"));
    cfg.backoff.initial =
        std::chrono::milliseconds(args.get_int("backoff-initial-ms"));
    cfg.backoff.max =
        std::chrono::milliseconds(args.get_int("backoff-max-ms"));
    cfg.backoff.max_attempts = args.get_int("max-attempts");

    const std::string trace_path = args.get("trace");
    metrics::Tracer tracer;
    if (!trace_path.empty()) {
      metrics::RunManifest manifest;
      manifest.producer = "flrelay";
      manifest.algo = "adafl-sync";
      manifest.config["parent"] = parent_list;
      manifest.config["base"] = std::to_string(cfg.base);
      manifest.config["count"] = std::to_string(cfg.count);
      tracer.open(trace_path, manifest);
      cfg.tracer = &tracer;
    }

    net::relay::RelaySession session(
        cfg,
        [&endpoints, connect_timeout](std::size_t ep)
            -> std::unique_ptr<net::transport::Transport> {
          const cli::Endpoint& target = endpoints[ep];
          return net::transport::TcpTransport::connect(
              target.host, target.port, connect_timeout);
        },
        endpoints.size());

    g_session = &session;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    net::transport::TcpListener listener(port);
    std::cout << "flrelay: range [" << cfg.base << ", "
              << cfg.base + cfg.count << ") on port " << listener.port()
              << (cfg.standby ? " (standby)" : "") << std::endl;
    // run() starts the loop and stops it; only then may the listener close.
    net::transport::EventLoop loop(net::transport::EventLoopConfig{});
    loop.adopt_listener(listener.fd());
    session.attach_event_loop(&loop);

    const auto st = session.run();
    listener.close();
    g_session = nullptr;

    if (tracer.enabled()) {
      const std::uint64_t nev = tracer.events_recorded();
      tracer.close();
      std::cout << "wrote " << trace_path << " (" << nev << " events)"
                << std::endl;
    }
    std::cout << "relay-done: base=" << cfg.base << " count=" << cfg.count
              << " completed=" << (st.completed ? 1 : 0)
              << " rounds-seen=" << st.rounds_seen
              << " aggs-sent=" << st.aggs_sent
              << " aggs-forwarded=" << st.aggs_forwarded
              << " parent-reconnects=" << st.parent_reconnects
              << " endpoint-rotations=" << st.endpoint_rotations << std::endl;
    return st.completed ? 0 : 3;
  } catch (const std::invalid_argument& e) {  // a malformed flag value
    std::cerr << "flrelay: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "flrelay: " << e.what() << "\n";
    return 1;
  }
}
