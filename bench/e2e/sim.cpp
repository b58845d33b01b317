// sim_cnn: the researcher's path, AdaFlSyncTrainer::run on the paper's
// MNIST CNN. Round times come from the trainer's public on_round_end hook;
// the decomposed loop is both its correctness reference and, in a traced
// run, the source of its per-layer spans.
#include <iostream>
#include <optional>

#include "core/adafl_sync.h"
#include "core/parallel.h"
#include "script.h"
#include "tensor/tensor.h"
#include "workloads.h"

namespace adafl::bench {

namespace {

/// Setups (task build + trainer construction) per run; setup_s is their
/// median. One takes only ~30 ms, so a run takes many, half before the
/// measured rounds and half after: a slow spell of the host (setup is
/// allocation-heavy and feels one more than training does) then moves at
/// most one half.
constexpr int kSetupReps = 15;

/// Runs `rounds` rounds of a fresh decomposed loop and returns its CRC.
std::uint32_t decomposed_crc(const Shape& shape, const cli::TaskBundle& task,
                             int rounds, bool parallel_clients) {
  DecomposedLoop loop(shape, task, parallel_clients);
  for (int r = 1; r <= rounds; ++r)
    loop.round(r, nullptr, nullptr, /*eval=*/false);
  return weights_crc(loop.global());
}

}  // namespace

Result run_sim(const Options& opt) {
  Result res;
  res.workload = opt.workload;
  res.seed = opt.seed;
  res.traced = opt.traced();
  declare_layer_metrics(res);
  core::set_num_threads(kThreadBudget);
  const Shape shape = make_shape(opt);
  // A traced run spends half its timed rounds on the untraced trainer and
  // half on the traced decomposed loop, so it costs what an untraced run
  // costs.
  const int timed_all = shape.rounds - kWarmRounds;
  const int timed = opt.traced() ? (timed_all + 1) / 2 : timed_all;
  const int R = kWarmRounds + timed;
  reset_peak_rss();

  std::optional<cli::TaskBundle> task;
  std::optional<core::AdaFlSyncTrainer> trainer;
  std::vector<Clock::time_point> ends(static_cast<std::size_t>(R) + 1);
  std::uint32_t warm_crc = 0;
  double cpu_a = 0, cpu_b = 0;
  core::AdaFlSyncConfig cfg;
  cfg.params = shape.params;
  cfg.rounds = R;
  cfg.client = shape.client;
  cfg.eval_every = 1;
  cfg.seed = shape.spec.seed;
  cfg.on_round_end = [&](int r) {
    check_budget();
    if (r == kWarmRounds) warm_crc = weights_crc(trainer->global());
    ends[static_cast<std::size_t>(r)] = Clock::now();
    if (r == kWarmRounds) cpu_a = process_cpu_s();
    if (r == R) cpu_b = process_cpu_s();
  };

  std::vector<double> setups;
  const auto set_up = [&] {
    trainer.reset();
    task.reset();
    const auto t0 = Clock::now();
    task.emplace(cli::build_task(shape.spec));
    trainer.emplace(cfg, task->factory, &task->train, task->parts, &task->test);
    setups.push_back(seconds_between(t0, Clock::now()));
  };
  while (setups.size() < kSetupReps / 2 + 1) set_up();
  ends[0] = Clock::now();
  const fl::TrainLog log = trainer->run();
  const std::uint32_t crc = weights_crc(trainer->global());
  const std::int64_t selected = trainer->stats().selected_updates;
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  while (setups.size() < kSetupReps) set_up();

  std::vector<double> round_s;
  for (int r = kWarmRounds + 1; r <= R; ++r)
    round_s.push_back(seconds_between(ends[static_cast<std::size_t>(r - 1)],
                                      ends[static_cast<std::size_t>(r)]));
  res.set("setup_s", quantile(setups, 0.5), "s");
  set_round_metrics(res, round_s);
  res.set("cpu_s_per_round", (cpu_b - cpu_a) / timed, "s");
  res.set("up_bytes_per_round",
          static_cast<double>(log.ledger.total_upload_bytes()) / R, "B");
  res.set("down_bytes_per_round",
          static_cast<double>(log.ledger.total_download_bytes()) / R, "B");
  res.note("weights_crc32", hex32(crc));
  res.attempted = selected;
  res.failed = res.attempted - log.applied_updates;
  if (static_cast<int>(log.records.size()) != R)
    res.fail("trainer evaluated " + std::to_string(log.records.size()) +
             " of " + std::to_string(R) + " rounds");

  // The decomposed loop must reproduce the trainer bit for bit: the
  // client-parallel variant (which records the deployed scripts) over the
  // warm rounds, and in a traced run the sequential one over every round.
  if (!opt.traced() || opt.smoke) {
    const std::uint32_t c = decomposed_crc(shape, *task, kWarmRounds, true);
    if (c != warm_crc)
      res.fail("client-parallel decomposed loop " + hex32(c) +
               " != trainer " + hex32(warm_crc) + " after the warm rounds");
  }
  if (opt.traced()) {
    SpanLog spans;
    DecomposedLoop loop(shape, *task, /*parallel_clients=*/false);
    // The loop's rounds as a script, for the replay of the layers the
    // simulator bypasses (frames, transport, FEC, relay partials).
    Script script;
    script.clients = shape.spec.clients;
    script.warmup_rounds = shape.params.compression.warmup_rounds;
    std::vector<double> traced_s;
    std::uint64_t allocs0 = 0;
    for (int r = 1; r <= R; ++r) {
      const bool timed_round = r > kWarmRounds;
      if (r == kWarmRounds + 1) allocs0 = tensor::tensor_allocations();
      const auto t0 = Clock::now();
      loop.round(r, &script, timed_round ? &spans : nullptr, /*eval=*/true);
      if (timed_round) traced_s.push_back(seconds_between(t0, Clock::now()));
      check_budget();
    }
    const double allocs =
        static_cast<double>(tensor::tensor_allocations() - allocs0);
    const std::uint32_t c = weights_crc(loop.global());
    if (c != crc)
      res.fail("decomposed loop " + hex32(c) + " != trainer " + hex32(crc) +
               " after round " + std::to_string(R));

    const auto st = spans.stats();
    const auto ms = [&](const char* name) {
      const auto it = st.find(name);
      return it == st.end() ? 0.0 : it->second.total_ms / timed;
    };
    for (const char* name : {"fl.train", "core.score", "core.plan",
                             "compress.dgc", "core.apply", "nn.eval"})
      res.set(std::string(name) + "_ms", ms(name), "ms");
    res.set("tensor.allocs_per_round", allocs / timed, "count");
    const double round_ms = ms("round");
    const double other_ms = st.at("round").self_ms / timed;
    res.set("session.other_ms", other_ms, "ms");
    res.set("trace.coverage", per(round_ms - other_ms, round_ms), "ratio");
    res.set("trace.overhead_ratio",
            quantile(traced_s, 0.5) / quantile(round_s, 0.5) - 1.0, "ratio");

    script.final_crc = c;
    LayerCosts costs;
    costs.first_round = kWarmRounds + 1;
    costs.link_spans = &spans;
    core::set_num_threads(1);  // layer costs are single-threaded replays
    reference_replay(shape, script, *task, R, res, &costs);
    set_replay_metrics(res, costs);
    set_transport_metrics(res, costs.link, costs.averaged_rounds);

    const std::string path = opt.trace_dir + "/" + opt.workload + ".trace.json";
    spans.write_chrome_json(path);
    res.note("chrome_trace", path);
    std::cout << "--- " << opt.workload
              << " spans (decomposed loop, then transport replay) ---\n";
    spans.print_self_times();
  }
  res.set("proc.threads_max", threads_max(), "count");
  return res;
}

}  // namespace adafl::bench
