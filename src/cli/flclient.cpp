// flclient — one deployed AdaFL federation client.
//
// Dials an flserver, receives the full task configuration in WELCOME (no
// task options on the client command line — the server is the single source
// of truth), rebuilds its data shard and model bitwise-identically to the
// simulator, and participates in rounds until the server says SHUTDOWN.
// Connection drops are survived with bounded exponential-backoff redialing;
// DGC error-feedback state persists across reconnects.
//
//   flclient --host=127.0.0.1 --port=4242 --id=0
#include <atomic>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "cli/args.h"
#include "cli/report.h"
#include "cli/task.h"
#include "core/parallel.h"
#include "net/transport/faulty.h"
#include "net/transport/session.h"
#include "net/transport/udp.h"
#include "tensor/dispatch.h"

using namespace adafl;

int main(int argc, char** argv) {
  cli::ArgParser args("flclient");
  args.option("host", "127.0.0.1", "server host")
      .option("port", "4242", "server port")
      .option("server", "",
              "prioritized endpoint list host:port[,host:port...] "
              "(overrides --host/--port): when the current endpoint's "
              "redial budget is exhausted the client rotates to the next "
              "one — list the primary first, then its hot standbys")
      .option("id", "0", "this client's id (0-based, unique per fleet)")
      .option("connect-timeout-ms", "3000", "TCP connect timeout")
      .option("backoff-initial-ms", "200", "first reconnect delay")
      .option("backoff-max-ms", "5000", "reconnect delay cap")
      .option("max-attempts", "10",
              "consecutive failed dials before giving up (0 = forever)")
      .option("heartbeat-ms", "1000", "PING after this long without traffic")
      .option("liveness-ms", "8000", "redial after this long of silence")
      .option("crash-at-round", "0",
              "fault injection: crash once on receiving this round's model "
              "(0 = off)")
      .option("transport", "tcp",
              "tcp|udp — must match the server's --transport")
      .option("fec-parity", "4",
              "UDP: parity datagrams per FEC generation (r)")
      .option("fec-generation", "16",
              "UDP: data datagrams per FEC generation (k)")
      .option("fec-mtu", "1200", "UDP: payload bytes per datagram shard")
      .option("dgram-loss", "0",
              "fault injection (UDP): drop each sent datagram with this "
              "probability (0..1)")
      .option("dgram-burst", "0",
              "fault injection (UDP): mean burst length for Gilbert-Elliott "
              "loss at rate --dgram-loss (0 = i.i.d. loss)")
      .option("dgram-reorder", "0",
              "fault injection (UDP): pairwise-swap reorder probability")
      .option("dgram-loss-seed", "1", "datagram fault stream seed")
      .option("frame-loss", "0",
              "fault injection (TCP): persistent i.i.d. loss of round-data "
              "frames (triggers the server's retransmit nudge)")
      .option("frame-loss-seed", "1", "frame fault stream seed")
      .option("threads", "0", "worker threads (0 = auto)")
      .option("kernel-backend", "",
              "auto|scalar|avx2 — SIMD kernel backend (empty = "
              "ADAFL_KERNEL_BACKEND env or the scalar reference)")
      .option("trace", "",
              "append structured JSONL run events to this file ('' = off)")
      .option("metrics", "",
              "write the metrics registry as JSON to this file ('' = off)")
      .option("profile", "0",
              "print per-phase wall time + tensor heap allocation counts "
              "after the run");
  if (!args.parse(argc, argv)) {
    std::cerr << "flclient: " << args.error() << "\n\n" << args.usage();
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
    const auto connect_timeout =
        std::chrono::milliseconds(args.get_int("connect-timeout-ms"));

    // Endpoint list: --server=host:port,host:port (primary first, standbys
    // after), or the legacy --host/--port pair as a single-entry list.
    std::string server_list = args.get("server");
    if (server_list.empty())
      server_list = args.get("host") + ":" + args.get("port");
    const std::vector<cli::Endpoint> endpoints =
        cli::parse_endpoints(server_list);

    net::transport::ClientSessionConfig cfg;
    cfg.client_id = args.get_int("id");
    cfg.heartbeat_interval =
        std::chrono::milliseconds(args.get_int("heartbeat-ms"));
    cfg.liveness_timeout =
        std::chrono::milliseconds(args.get_int("liveness-ms"));
    cfg.backoff.initial =
        std::chrono::milliseconds(args.get_int("backoff-initial-ms"));
    cfg.backoff.max =
        std::chrono::milliseconds(args.get_int("backoff-max-ms"));
    cfg.backoff.max_attempts = args.get_int("max-attempts");

    // The client does not know the task until the server's WELCOME, so the
    // manifest only records connection-level facts; semantic (round-level)
    // events live in the server's trace.
    metrics::RunManifest manifest;
    manifest.producer = "flclient";
    manifest.algo = "adafl-sync";
    manifest.config["server"] = server_list;
    manifest.config["client_id"] = std::to_string(cfg.client_id);
    cli::RunOutputs outputs(args, std::move(manifest));
    cfg.tracer = outputs.tracer();

    const std::string transport = args.get("transport");
    if (transport != "tcp" && transport != "udp") {
      std::cerr << "flclient: --transport must be tcp or udp\n";
      return 2;
    }
    const bool use_udp = transport == "udp";

    // UDP+FEC transport config. The header carries (k, r) per generation,
    // so the client's shape governs only what *it* sends; it need not match
    // the server's, though symmetric settings are the sane default.
    net::transport::UdpFecConfig fec_cfg;
    fec_cfg.data_shards = args.get_int_at_least("fec-generation", 1);
    fec_cfg.parity_shards = args.get_int_at_least("fec-parity", 0);
    fec_cfg.max_shard_bytes = args.get_int_at_least("fec-mtu", 1);
    if (use_udp) outputs.observe_fec(fec_cfg);

    // Datagram-level fault injection (UDP): applied between the socket and
    // the FEC layer so drops exercise the Reed-Solomon repair path.
    const double dgram_loss = args.get_double("dgram-loss");
    const double dgram_burst = args.get_double("dgram-burst");
    const double dgram_reorder = args.get_double("dgram-reorder");
    const auto dgram_seed =
        static_cast<std::uint64_t>(args.get_int("dgram-loss-seed"));
    const bool dgram_faults = dgram_loss > 0.0 || dgram_reorder > 0.0;

    // Frame-level fault injection (TCP): persistent i.i.d. loss of
    // round-data frames, repaired by the server's retransmit nudge. This is
    // the TCP-side counterpart of --dgram-loss for scripts/loss_sweep.sh.
    const double frame_loss = args.get_double("frame-loss");
    const auto frame_seed =
        static_cast<std::uint64_t>(args.get_int("frame-loss-seed"));

    // Fault injection: the first connection whose round reaches
    // --crash-at-round is severed on receiving that round's MODEL; the
    // shared flag keeps redialed connections clean so the crash fires once
    // per process, matching the old in-session crash shim.
    const int crash_round = args.get_int("crash-at-round");
    auto crash_fired = std::make_shared<std::atomic<bool>>(false);

    // Each redial gets its own deterministic datagram fault stream so a
    // reconnect does not replay the first connection's loss pattern.
    auto dial_count = std::make_shared<std::atomic<std::uint64_t>>(0);

    // The task bundle is built on first WELCOME and must outlive the
    // session (the FlClient borrows the training dataset).
    std::optional<cli::TaskBundle> bundle;

    net::transport::ClientSession session(
        cfg,
        [&, crash_fired, dial_count](
            std::size_t ep) -> std::unique_ptr<net::transport::Transport> {
          const cli::Endpoint& target = endpoints[ep];
          std::unique_ptr<net::transport::Transport> t;
          if (use_udp) {
            std::unique_ptr<net::transport::DatagramLink> link =
                net::transport::UdpSocketLink::connect(target.host,
                                                       target.port);
            if (!link) return nullptr;
            if (dgram_faults) {
              net::transport::DatagramFaultPlan dplan =
                  dgram_burst > 0.0
                      ? net::transport::DatagramFaultPlan::burst(
                            dgram_loss, dgram_burst, dgram_seed)
                      : net::transport::DatagramFaultPlan::iid(dgram_loss,
                                                               dgram_seed);
              dplan.reorder_prob = dgram_reorder;
              dplan.seed +=
                  0x9E3779B97F4A7C15ull * dial_count->fetch_add(1);
              link = std::make_unique<net::transport::FaultyDatagramLink>(
                  std::move(link), dplan);
            }
            t = std::make_unique<net::transport::UdpTransport>(
                std::move(link), fec_cfg);
          } else {
            t = net::transport::TcpTransport::connect(target.host, target.port,
                                                      connect_timeout);
          }
          const bool want_crash = crash_round > 0 && !crash_fired->load();
          if (!t || (!want_crash && frame_loss <= 0.0)) return t;
          net::transport::FaultPlan plan;
          if (want_crash)
            plan.sever_on_recv(net::transport::MsgType::kModel, crash_round);
          if (frame_loss > 0.0) plan.iid_frame_loss(frame_loss, frame_seed);
          auto faulty = std::make_unique<net::transport::FaultyTransport>(
              std::move(t), std::move(plan));
          faulty->set_on_fault(
              [crash_fired](const net::transport::FaultRule& r,
                            const net::transport::Frame&) {
                if (r.kind == net::transport::FaultKind::kSever)
                  crash_fired->store(true);
              });
          return faulty;
        },
        endpoints.size(),
        [&](const std::map<std::string, std::string>& kv, int id,
            const core::AdaFlParams& /*params*/) {
          cli::TaskSpec spec;
          fl::ClientTrainConfig client;
          cli::task_from_kv(kv, &spec, &client);
          std::cout << "bootstrapped: dataset=" << spec.dataset
                    << " model=" << spec.model << " clients=" << spec.clients
                    << " seed=" << spec.seed << std::endl;
          bundle.emplace(cli::build_task(spec));
          return fl::make_client(bundle->factory, &bundle->train,
                                 bundle->parts, client, {},
                                 spec.seed ^ core::kAdaFlClientSeedSalt, id);
        });

    const auto st = session.run();
    outputs.write(std::cout, /*ledger=*/nullptr);
    std::cout << "client-done: id=" << cfg.client_id
              << " completed=" << (st.completed ? 1 : 0)
              << " rounds-trained=" << st.rounds_trained
              << " updates-sent=" << st.updates_sent
              << " skips=" << st.skips << " reconnects=" << st.reconnects
              << " endpoint-rotations=" << st.endpoint_rotations << std::endl;
    outputs.print_footer(std::cout);
    return st.completed ? 0 : 3;
  } catch (const std::invalid_argument& e) {  // a malformed flag value
    std::cerr << "flclient: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "flclient: " << e.what() << "\n";
    return 1;
  }
}
