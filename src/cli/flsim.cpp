// flsim — the configurable federated-learning simulator CLI.
//
// One binary to run any protocol in the library on any synthetic task and
// network profile, printing the accuracy curve as an ASCII chart plus the
// communication summary. Examples:
//
//   flsim --algo=fedavg --dataset=mnist --dist=noniid --rounds=60
//   flsim --algo=adafl-sync --tau=0.5 --k=5 --network=mixed
//   flsim --algo=fedbuff --duration=30 --clients=20 --csv=run.csv
#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <span>

#include "cli/args.h"
#include "cli/report.h"
#include "cli/task.h"
#include "core/adafl_async.h"
#include "core/adafl_sync.h"
#include "core/parallel.h"
#include "core/server_checkpoint.h"
#include "data/synthetic.h"
#include "fl/async_trainer.h"
#include "fl/fedat.h"
#include "fl/sync_trainer.h"
#include "metrics/plot.h"
#include "metrics/table.h"
#include "net/transport/crc32.h"
#include "tensor/dispatch.h"

namespace {

using namespace adafl;

// SIGINT/SIGTERM flip the stop flag; the round-synchronous trainers poll it
// at round boundaries, write a final checkpoint (when configured), and
// return with TrainLog::interrupted set.
std::atomic<bool> g_stop{false};

void handle_stop_signal(int) { g_stop.store(true); }

std::vector<net::LinkConfig> build_links(const cli::ArgParser& args,
                                         int clients) {
  const std::string network = args.get("network");
  if (network == "none") return {};
  if (network == "good")
    return net::make_fleet(clients, 0.0, net::LinkQuality::kGood,
                           net::LinkQuality::kGood);
  if (network == "mixed")
    return net::make_fleet(clients, 0.5, net::LinkQuality::kGood,
                           net::LinkQuality::kCongested);
  if (network == "congested")
    return net::make_fleet(clients, 1.0, net::LinkQuality::kGood,
                           net::LinkQuality::kCongested);
  if (network == "lossy")
    return net::make_fleet(clients, 0.3, net::LinkQuality::kGood,
                           net::LinkQuality::kLossy);
  throw std::runtime_error("unknown --network=" + network);
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args("flsim");
  args.option("algo", "fedavg",
              "fedavg|fedadam|fedprox|scaffold|fedasync|fedbuff|fedat|"
              "adafl-sync|adafl-async")
      .option("dataset", "mnist", "mnist|cifar10|cifar100 (synthetic)")
      .option("model", "cnn", "cnn|resnet|vgg|mlp")
      .option("dist", "noniid", "iid|noniid|dirichlet")
      .option("alpha", "0.5", "dirichlet concentration (with --dist=dirichlet)")
      .option("clients", "10", "number of clients")
      .option("rounds", "40", "communication rounds (sync algorithms)")
      .option("duration", "30", "simulated seconds (async algorithms)")
      .option("participation", "0.5", "r_p for the sync baselines")
      .option("lr", "0.05", "client learning rate")
      .option("batch", "20", "client batch size")
      .option("steps", "5", "local SGD steps per round")
      .option("k", "5", "AdaFL max selected clients")
      .option("tau", "0.5", "AdaFL utility threshold")
      .option("agg-group", "0",
              "AdaFL aggregation-group size G: deltas are summed within "
              "contiguous id blocks of G, then blocks are merged in order — "
              "the association a G-sized relay tier uses, so a flat run "
              "with the same G is bitwise comparable (0 = legacy order)")
      .option("tiers", "3", "FedAT tier count")
      .option("network", "none", "none|good|mixed|congested|lossy")
      .option("train-samples", "1500", "synthetic training examples")
      .option("test-samples", "400", "synthetic test examples")
      .option("seed", "1", "experiment seed")
      .option("threads", "0",
              "worker threads for client training and kernels "
              "(0 = auto: ADAFL_THREADS or hardware concurrency); results "
              "are bitwise identical at any thread count")
      .option("kernel-backend", "",
              "auto|scalar|avx2 — SIMD kernel backend (empty = "
              "ADAFL_KERNEL_BACKEND env or the scalar reference); results "
              "are bitwise reproducible within a backend")
      .option("csv", "", "write the accuracy curve to this CSV path")
      .option("chart", "1", "render the ASCII accuracy chart")
      .option("checkpoint-dir", "",
              "directory for a durable server checkpoint (crash recovery; "
              "round-synchronous algorithms only)")
      .option("checkpoint-every", "1", "checkpoint cadence in rounds")
      .option("resume", "0",
              "resume from --checkpoint-dir's checkpoint; the resumed run's "
              "final weights are bitwise identical to an uninterrupted one")
      .option("profile", "0",
              "print per-phase wall time + tensor heap allocation counts "
              "after the run")
      .option("trace", "",
              "write a structured JSONL event trace to this path "
              "(manifest + per-round selection/delivery events; same-seed "
              "runs produce byte-identical traces)")
      .option("metrics", "",
              "write the end-of-run metrics registry (counters, gauges, "
              "histograms) as JSON to this path");
  if (!args.parse(argc, argv)) {
    std::cerr << "flsim: " << args.error() << "\n\n" << args.usage();
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
    const int clients = spec.clients;
    const auto links = build_links(args, clients);
    fl::ClientTrainConfig client;
    client.batch_size = args.get_int_at_least("batch", 1);
    client.local_steps = args.get_int_at_least("steps", 1);
    client.lr = static_cast<float>(args.get_double("lr"));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
    const std::string algo = args.get("algo");

    const std::string ckpt_dir = args.get("checkpoint-dir");
    const std::string ckpt_path =
        ckpt_dir.empty() ? "" : core::checkpoint_path(ckpt_dir);
    const int ckpt_every = args.get_int_at_least("checkpoint-every", 1);
    const bool resume = args.get_bool("resume");
    const bool round_sync = algo == "fedavg" || algo == "fedadam" ||
                            algo == "fedprox" || algo == "scaffold" ||
                            algo == "adafl-sync";
    if ((!ckpt_dir.empty() || resume) && !round_sync)
      throw std::runtime_error(
          "--checkpoint-dir/--resume support round-synchronous algorithms "
          "only (fedavg|fedadam|fedprox|scaffold|adafl-sync)");
    if (!ckpt_dir.empty()) {
      std::signal(SIGINT, handle_stop_signal);
      std::signal(SIGTERM, handle_stop_signal);
    }

    metrics::RunManifest manifest;
    manifest.producer = "flsim";
    manifest.algo = algo;
    manifest.seed = seed;
    manifest.rounds = round_sync ? args.get_int_at_least("rounds", 1) : 0;
    manifest.clients = clients;
    manifest.config = cli::task_to_kv(spec, client);
    cli::RunOutputs outputs(args, std::move(manifest));
    metrics::Tracer* const tracer = outputs.tracer();

    // One-line run config (threads resolved, not the raw flag) so logs and
    // benchmark CSV provenance record exactly what executed.
    std::cout << "run-config: algo=" << algo << " dataset="
              << args.get("dataset") << " model=" << args.get("model")
              << " dist=" << args.get("dist") << " clients=" << clients
              << " seed=" << seed << " threads=" << core::num_threads()
              << " kernel-backend=" << tensor::kernel_backend_name()
              << "\n";

    fl::TrainLog log;
    bool by_time = false;
    // The final global weights. Their CRC-32 is the run's fingerprint: the
    // deployment smoke job compares it against flserver's, and CI compares
    // runs at different thread counts.
    std::vector<float> weights;
    const auto train = [&](auto&& trainer) {
      log = trainer.run();
      weights = trainer.global();
    };
    if (algo == "fedavg" || algo == "fedadam" || algo == "fedprox" ||
        algo == "scaffold") {
      fl::SyncConfig cfg;
      cfg.algo = algo == "fedavg"    ? fl::Algorithm::kFedAvg
                 : algo == "fedadam" ? fl::Algorithm::kFedAdam
                 : algo == "fedprox" ? fl::Algorithm::kFedProx
                                     : fl::Algorithm::kScaffold;
      cfg.rounds = args.get_int_at_least("rounds", 1);
      cfg.participation = args.get_double("participation");
      cfg.client = client;
      if (cfg.algo == fl::Algorithm::kFedProx) cfg.client.prox_mu = 0.01f;
      cfg.links = links;
      cfg.eval_every = std::max(1, cfg.rounds / 12);
      cfg.seed = seed;
      cfg.checkpoint_path = ckpt_path;
      cfg.checkpoint_every = ckpt_every;
      cfg.resume = resume;
      cfg.stop = &g_stop;
      train(fl::SyncTrainer(cfg, task.factory, &task.train, task.parts,
                            &task.test));
    } else if (algo == "fedasync" || algo == "fedbuff") {
      by_time = true;
      fl::AsyncConfig cfg;
      cfg.algo = algo == "fedasync" ? fl::AsyncAlgorithm::kFedAsync
                                    : fl::AsyncAlgorithm::kFedBuff;
      cfg.duration = args.get_double("duration");
      cfg.eval_interval = cfg.duration / 12.0;
      cfg.client = client;
      cfg.links = links;
      cfg.seed = seed;
      cfg.tracer = tracer;
      train(fl::AsyncTrainer(cfg, task.factory, &task.train, task.parts,
                             &task.test));
    } else if (algo == "fedat") {
      by_time = true;
      fl::FedAtConfig cfg;
      cfg.num_tiers = args.get_int("tiers");
      cfg.duration = args.get_double("duration");
      cfg.eval_interval = cfg.duration / 12.0;
      cfg.client = client;
      cfg.links = links;
      cfg.seed = seed;
      cfg.tracer = tracer;
      train(fl::FedAtTrainer(cfg, task.factory, &task.train, task.parts,
                             &task.test));
    } else if (algo == "adafl-sync") {
      core::AdaFlSyncConfig cfg;
      cfg.rounds = args.get_int_at_least("rounds", 1);
      cfg.client = client;
      cfg.links = links;
      cfg.eval_every = std::max(1, cfg.rounds / 12);
      cfg.seed = seed;
      cfg.params.max_selected = args.get_int("k");
      cfg.params.tau = args.get_double("tau");
      cfg.params.agg_group = args.get_int_at_least("agg-group", 0);
      cfg.checkpoint_path = ckpt_path;
      cfg.checkpoint_every = ckpt_every;
      cfg.resume = resume;
      cfg.stop = &g_stop;
      cfg.tracer = tracer;
      train(core::AdaFlSyncTrainer(cfg, task.factory, &task.train, task.parts,
                                   &task.test));
    } else if (algo == "adafl-async") {
      by_time = true;
      core::AdaFlAsyncConfig cfg;
      cfg.duration = args.get_double("duration");
      cfg.eval_interval = cfg.duration / 12.0;
      cfg.client = client;
      cfg.links = links;
      cfg.seed = seed;
      cfg.params.max_selected = args.get_int("k");
      cfg.params.tau = args.get_double("tau");
      cfg.tracer = tracer;
      train(core::AdaFlAsyncTrainer(cfg, task.factory, &task.train, task.parts,
                                    &task.test));
    } else {
      std::cerr << "flsim: unknown --algo=" << algo << "\n\n" << args.usage();
      return 2;
    }

    outputs.write(std::cout, &log.ledger);

    // --- Report.
    const auto series =
        by_time ? log.accuracy_vs_time() : log.accuracy_vs_round();
    cli::print_run_report(
        std::cout, log, !ckpt_dir.empty(),
        {{"delivered updates", std::to_string(log.ledger.delivered_updates())},
         {"upload", metrics::fmt_bytes(log.ledger.total_upload_bytes())},
         {"download", metrics::fmt_bytes(log.ledger.total_download_bytes())},
         {"simulated time", metrics::fmt_f(log.total_time, 1) + "s"}});
    // Machine-readable result line (consumed by scripts/deploy_smoke.sh).
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x",
                  net::transport::crc32(std::span<const std::uint8_t>(
                      reinterpret_cast<const std::uint8_t*>(weights.data()),
                      weights.size() * 4)));
    std::cout << "weights-crc32: " << crc << "\n";
    if (args.get_bool("chart") && !series.empty()) {
      std::cout << "\naccuracy vs " << (by_time ? "time" : "round") << ":\n";
      metrics::AsciiChart chart(64, 14);
      chart.add(algo, series);
      chart.print(std::cout);
    }
    if (const std::string csv = args.get("csv"); !csv.empty()) {
      std::vector<std::vector<std::string>> rows;
      for (std::size_t i = 0; i < series.size(); ++i)
        rows.push_back({metrics::fmt_f(series.x[i], 3),
                        metrics::fmt_f(series.y[i], 4)});
      metrics::write_csv(csv, {by_time ? "time_s" : "round", "accuracy"},
                         rows);
      std::cout << "wrote " << csv << "\n";
    }
    outputs.print_footer(std::cout);
  } catch (const std::invalid_argument& e) {  // a malformed flag value
    std::cerr << "flsim: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "flsim: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
