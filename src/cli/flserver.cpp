// flserver — the deployed AdaFL federation server.
//
// Listens for flclient connections and drives real AdaFL rounds over TCP
// using the same round state machine as the simulator; with the same seed
// and task options, the final global weights are bitwise identical to
//   flsim --algo=adafl-sync
// (the CI deployment smoke job asserts this via the weights-crc32 line).
//
//   flserver --port=4242 --clients=4 --rounds=3 --seed=1
//
// Pass --port=0 to bind an ephemeral port; the bound port is printed as
// "listening-on: <port>" so scripts can wire clients up.
//
// Crash recovery: with --checkpoint-dir the server persists its round state
// (atomic write, CRC-protected) every --checkpoint-every rounds and on
// SIGINT/SIGTERM; --resume continues a killed run from the checkpoint, and
// with --checkpoint-every=1 the recovered run's final weights are bitwise
// identical to an uninterrupted one (scripts/chaos_soak.sh proves this with
// kill -9).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "cli/args.h"
#include "cli/report.h"
#include "cli/task.h"
#include "core/parallel.h"
#include "metrics/table.h"
#include "net/replication/replication.h"
#include "net/transport/crc32.h"
#include "net/transport/session.h"
#include "net/transport/udp.h"
#include "tensor/dispatch.h"

using namespace adafl;

namespace {

// SIGINT/SIGTERM ask the session for a graceful stop (final checkpoint +
// abrupt peer close). request_stop performs only atomic stores, so calling
// it from the handler is async-signal-safe.
std::atomic<net::transport::ServerSession*> g_session{nullptr};

void handle_stop_signal(int) {
  if (auto* s = g_session.load()) s->request_stop(/*write_checkpoint=*/true);
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args("flserver");
  args.option("port", "4242", "TCP port to listen on (0 = ephemeral)")
      .option("clients", "4", "fleet size (client ids 0..N-1)")
      .option("quorum", "0",
              "scores needed to proceed past the round deadline (0 = all)")
      .option("rounds", "3", "communication rounds")
      .option("deadline-ms", "60000", "per-phase round deadline")
      .option("round-deadline-ms", "0",
              "whole-round cap (score + update combined): on expiry the "
              "round aggregates what arrived, emits update_lost for the "
              "rest, and continues (0 = off)")
      .option("standby", "",
              "run as hot standby of PRIMARY host:port — tail its "
              "checkpoints over the framed transport and promote on lease "
              "expiry (requires --checkpoint-dir; see docs/deployment.md)")
      .option("lease-ms", "5000",
              "standby heartbeat lease: promote after this long without "
              "hearing from the primary")
      .option("k", "5", "AdaFL max selected clients")
      .option("tau", "0.5", "AdaFL utility threshold")
      .option("agg-group", "0",
              "AdaFL aggregation-group size G: deltas are summed within "
              "contiguous id blocks of G, then blocks merged in order. "
              "Required (non-zero, dividing relay ranges) when flrelay "
              "mid-tiers ship UPDATE-AGG partials (0 = legacy order)")
      .option("dataset", "mnist", "mnist|cifar10|cifar100 (synthetic)")
      .option("model", "cnn", "cnn|resnet|vgg|mlp")
      .option("dist", "noniid", "iid|noniid|dirichlet")
      .option("alpha", "0.5", "dirichlet concentration (with --dist=dirichlet)")
      .option("lr", "0.05", "client learning rate")
      .option("batch", "20", "client batch size")
      .option("steps", "5", "local SGD steps per round")
      .option("train-samples", "1500", "synthetic training examples")
      .option("test-samples", "400", "synthetic test examples")
      .option("seed", "1", "experiment seed")
      .option("threads", "0", "worker threads (0 = auto)")
      .option("shards", "0",
              "event-loop frame-queue shards (0 = worker thread count)")
      .option("queue-depth", "1024",
              "frames buffered per shard before the loop pauses reads on "
              "that shard's connections (backpressure instead of memory "
              "growth)")
      .option("max-clients", "0",
              "max concurrent connections; at the cap accepting pauses "
              "(clients queue in the kernel backlog) until a connection "
              "closes (0 = unlimited)")
      .option("kernel-backend", "",
              "auto|scalar|avx2 — SIMD kernel backend (empty = "
              "ADAFL_KERNEL_BACKEND env or the scalar reference)")
      .option("transport", "tcp",
              "tcp|udp — byte-stream frames over TCP, or FEC-coded "
              "datagrams over UDP (Reed-Solomon parity repairs packet loss "
              "with zero round trips)")
      .option("fec-parity", "4",
              "UDP: parity datagrams per FEC generation (r; repairs up to "
              "r lost datagrams per generation)")
      .option("fec-generation", "16",
              "UDP: data datagrams per FEC generation (k)")
      .option("fec-mtu", "1200", "UDP: payload bytes per datagram shard")
      .option("nudge-ms", "2000",
              "retransmit-nudge interval: how long the server waits on a "
              "stalled phase before re-sending round frames")
      .option("checkpoint-dir", "",
              "directory for the durable server checkpoint (enables crash "
              "recovery; written every --checkpoint-every rounds and on "
              "SIGINT/SIGTERM)")
      .option("checkpoint-every", "1", "checkpoint cadence in rounds")
      .option("resume", "0",
              "resume from --checkpoint-dir's checkpoint instead of "
              "starting at round 1")
      .option("profile", "0",
              "print per-phase wall time + tensor heap allocation counts "
              "after the run")
      .option("trace", "",
              "write a structured JSONL event trace to this path (manifest "
              "+ semantic round events + deployed-only transport events)")
      .option("metrics", "",
              "write the end-of-run metrics registry (counters, gauges, "
              "histograms) as JSON to this path");
  if (!args.parse(argc, argv)) {
    std::cerr << "flserver: " << args.error() << "\n\n" << args.usage();
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }

  try {
    core::set_num_threads(args.get_int_at_least("threads", 0));
    if (const std::string kb = args.get("kernel-backend"); !kb.empty())
      tensor::set_kernel_backend(tensor::resolve_kernel_backend(kb));
    const cli::TaskSpec spec = cli::spec_from_args(args);
    const auto task = cli::build_task(spec);

    fl::ClientTrainConfig client;
    client.batch_size = args.get_int("batch");
    client.local_steps = args.get_int("steps");
    client.lr = static_cast<float>(args.get_double("lr"));

    net::transport::ServerSessionConfig cfg;
    cfg.params.max_selected = args.get_int("k");
    cfg.params.tau = args.get_double("tau");
    cfg.params.agg_group = args.get_int_at_least("agg-group", 0);
    cfg.rounds = args.get_int("rounds");
    cfg.eval_every = std::max(1, cfg.rounds / 12);
    cfg.expected_clients = spec.clients;
    cfg.quorum = args.get_int("quorum");
    cfg.round_deadline =
        std::chrono::milliseconds(args.get_int("deadline-ms"));
    cfg.round_total_deadline =
        std::chrono::milliseconds(args.get_int("round-deadline-ms"));
    cfg.client_config = cli::task_to_kv(spec, client);
    cfg.checkpoint_dir = args.get("checkpoint-dir");
    cfg.checkpoint_every = args.get_int_at_least("checkpoint-every", 1);
    cfg.resume = args.get_bool("resume");
    cfg.retransmit_nudge =
        std::chrono::milliseconds(args.get_int("nudge-ms"));

    const std::string transport = args.get("transport");
    if (transport != "tcp" && transport != "udp") {
      std::cerr << "flserver: --transport must be tcp or udp\n";
      return 2;
    }
    const bool use_udp = transport == "udp";
    const std::uint16_t listen_port = args.get_port("port");

    // --- Hot standby: tail the primary's checkpoint stream and serve only
    // after promotion. The client listener stays unbound until then, so a
    // client probing this endpoint fails fast and rotates back to the
    // primary (docs/deployment.md, "Hot standby & failover").
    bool promoted = false;
    std::uint32_t promote_round = 0;
    if (const std::string standby_of = args.get("standby");
        !standby_of.empty()) {
      if (cfg.checkpoint_dir.empty()) {
        std::cerr << "flserver: --standby requires --checkpoint-dir (the "
                     "replicated checkpoint must land somewhere durable)\n";
        return 2;
      }
      const std::vector<cli::Endpoint> primary =
          cli::parse_endpoints(standby_of);
      if (primary.size() != 1)
        throw std::invalid_argument("--standby expects one host:port");
      const std::string primary_host = primary.front().host;
      const std::uint16_t primary_port = primary.front().port;

      net::replication::StandbyConfig scfg;
      scfg.checkpoint_dir = cfg.checkpoint_dir;
      scfg.lease = std::chrono::milliseconds(
          args.get_int_at_least("lease-ms", 1));
      // The fingerprint of the run THIS process would serve, so a checkpoint
      // replicated from a differently-configured primary is rejected at
      // replication time instead of corrupting the run at promotion.
      scfg.expected_config_crc =
          net::transport::crc32(net::transport::welcome_payload(
              cfg, static_cast<std::size_t>(task.factory().param_count())));
      net::replication::StandbyReplica replica(
          scfg,
          [&args, use_udp, primary_host,
           primary_port]() -> std::unique_ptr<net::transport::Transport> {
            if (use_udp) {
              auto link = net::transport::UdpSocketLink::connect(primary_host,
                                                                 primary_port);
              if (!link) return nullptr;
              net::transport::UdpFecConfig fec;
              fec.data_shards = args.get_int_at_least("fec-generation", 1);
              fec.parity_shards = args.get_int_at_least("fec-parity", 0);
              fec.max_shard_bytes = args.get_int_at_least("fec-mtu", 1);
              return std::make_unique<net::transport::UdpTransport>(
                  std::move(link), fec);
            }
            return net::transport::TcpTransport::connect(
                primary_host, primary_port, std::chrono::milliseconds(1000));
          });
      std::cout << "standby-of: " << standby_of
                << " lease-ms=" << scfg.lease.count() << std::endl;
      const auto outcome = replica.run();
      if (outcome != net::replication::StandbyOutcome::kPromote) {
        std::cout << "standby-stand-down: primary finished the run ("
                  << replica.checkpoints_received()
                  << " checkpoints replicated)" << std::endl;
        return 0;
      }
      promote_round = replica.last_next_round();
      if (promote_round > static_cast<std::uint32_t>(cfg.rounds)) {
        std::cout << "standby: replicated run already complete; nothing to "
                     "serve"
                  << std::endl;
        return 0;
      }
      // Resume from the newest complete replicated checkpoint. With nothing
      // replicated (the primary died before its first checkpoint) a fresh
      // same-seed start is the dead primary's deterministic twin.
      cfg.resume = promote_round > 0;
      promoted = true;
      std::cout << "promoted-at: " << promote_round << " checkpoints-in="
                << replica.checkpoints_received()
                << " rejected-payloads=" << replica.rejected_payloads()
                << std::endl;
    }

    metrics::RunManifest manifest;
    manifest.producer = "flserver";
    manifest.algo = "adafl-sync";
    manifest.seed = spec.seed;
    manifest.rounds = cfg.rounds;
    manifest.clients = spec.clients;
    manifest.config = cfg.client_config;
    cli::RunOutputs outputs(args, std::move(manifest));
    cfg.tracer = outputs.tracer();
    if (cfg.tracer != nullptr && promoted)
      cfg.tracer->record(
          metrics::ev_promote(static_cast<int>(promote_round), /*t=*/0.0));
    // Round latency + frame-dispatch histograms land here; the p99 of
    // server.frame_dispatch_ms is the scaling health metric.
    cfg.registry = outputs.registry();

    // --- Listener: TCP byte-stream frames or FEC-coded UDP datagrams.
    net::transport::UdpFecConfig fec_cfg;
    fec_cfg.data_shards = args.get_int_at_least("fec-generation", 1);
    fec_cfg.parity_shards = args.get_int_at_least("fec-parity", 0);
    fec_cfg.max_shard_bytes = args.get_int_at_least("fec-mtu", 1);
    if (use_udp) outputs.observe_fec(fec_cfg);

    std::unique_ptr<net::transport::TcpListener> tcp_listener;
    std::unique_ptr<net::transport::UdpListener> udp_listener;
    if (use_udp)
      udp_listener =
          std::make_unique<net::transport::UdpListener>(listen_port, fec_cfg);
    else
      tcp_listener = std::make_unique<net::transport::TcpListener>(listen_port);
    const std::uint16_t bound_port =
        use_udp ? udp_listener->port() : tcp_listener->port();
    std::cout << "listening-on: " << bound_port << std::endl;
    std::cout << "run-config: deployed adafl-sync dataset=" << spec.dataset
              << " model=" << spec.model << " dist=" << spec.dist
              << " clients=" << spec.clients << " rounds=" << cfg.rounds
              << " seed=" << spec.seed << " threads=" << core::num_threads()
              << " kernel-backend=" << tensor::kernel_backend_name()
              << " transport=" << transport << std::endl;

    net::transport::ServerSession session(cfg, task.factory, &task.test);

    // --- Event-loop transport: ONE loop thread owns every socket. Accept
    // is part of the loop (EMFILE/ENFILE pauses accepting with exponential
    // backoff instead of killing the server; at --max-clients the kernel
    // backlog absorbs the queue), reads are budgeted per connection, and
    // completed frames land in bounded per-shard queues the session drains
    // — backpressure, not memory growth, when a shard falls behind. The
    // old dedicated acceptor thread is gone on both transports. The loop is
    // destroyed before the session it feeds (declaration order below).
    net::transport::EventLoopConfig lcfg;
    const int shards_opt = args.get_int_at_least("shards", 0);
    lcfg.shards = shards_opt > 0 ? shards_opt : std::max(1, core::num_threads());
    lcfg.queue_depth =
        static_cast<std::size_t>(args.get_int_at_least("queue-depth", 1));
    lcfg.max_clients = args.get_int_at_least("max-clients", 0);
    net::transport::EventLoop loop(lcfg);
    if (use_udp) {
      // The mux fd is watched, not adopted: when it turns readable the loop
      // thread drains it (datagrams route to per-peer queues with no global
      // lock) and hands fresh peers to the session, which pumps them.
      net::transport::UdpListener* ul = udp_listener.get();
      net::transport::ServerSession* sp = &session;
      loop.watch_fd(ul->fd(), [ul, sp] {
        while (auto t = ul->accept(std::chrono::milliseconds(0)))
          sp->add_transport(std::move(t));
      });
    } else {
      loop.adopt_listener(tcp_listener->fd());
    }
    session.attach_event_loop(&loop);  // run() starts and stops the loop

    g_session.store(&session);
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);

    fl::TrainLog log = session.run();

    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_session.store(nullptr);
    if (tcp_listener) tcp_listener->close();
    if (udp_listener) udp_listener->close();

    std::cout << "event-loop: shards=" << loop.shards()
              << " peak-queue-depth=" << loop.peak_queue_depth()
              << " accept-pauses=" << loop.accept_pauses()
              << " read-pauses=" << loop.read_pauses() << std::endl;

    outputs.write(std::cout, &log.ledger);

    if (session.resumed_from() > 0)
      std::cout << "resumed-from: " << session.resumed_from() << std::endl;
    if (session.checkpoints_replicated() > 0)
      std::cout << "replication: checkpoints-replicated="
                << session.checkpoints_replicated()
                << " standbys=" << session.standbys_attached() << std::endl;
    cli::print_run_report(
        std::cout, log, !cfg.checkpoint_dir.empty(),
        {{"wall-clock time", metrics::fmt_f(log.total_time, 1) + "s"}});
    metrics::ledger_table(log.ledger).print(std::cout);

    const auto& w = session.global();
    const std::uint32_t crc =
        net::transport::crc32(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(w.data()), w.size() * 4));
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", crc);
    std::cout << "weights-crc32: " << buf << std::endl;
    outputs.print_footer(std::cout);
  } catch (const std::invalid_argument& e) {  // a malformed flag value
    std::cerr << "flserver: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "flserver: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
