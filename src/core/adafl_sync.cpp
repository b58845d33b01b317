#include "core/adafl_sync.h"

#include <algorithm>
#include <cmath>

#include "core/parallel.h"
#include "core/selection.h"
#include "core/server_checkpoint.h"
#include "metrics/registry.h"
#include "metrics/trace.h"

namespace adafl::core {

namespace {
constexpr double kServerOverheadSeconds = 0.002;
}  // namespace

AdaFlSyncTrainer::AdaFlSyncTrainer(AdaFlSyncConfig cfg,
                                   nn::ModelFactory factory,
                                   const data::Dataset* train,
                                   data::Partition parts,
                                   const data::Dataset* test,
                                   std::vector<fl::DeviceProfile> devices)
    : cfg_(std::move(cfg)),
      factory_(std::move(factory)),
      clients_(fl::make_clients(factory_, train, parts, cfg_.client, devices,
                                cfg_.seed ^ kAdaFlClientSeedSalt)),
      eval_(factory_, test),
      rng_(cfg_.seed),
      links_(cfg_.links, clients_.size(), rng_, 0x11F7, "AdaFlSyncTrainer"),
      core_(cfg_.params, eval_.weights()) {
  ADAFL_CHECK_MSG(test != nullptr, "AdaFlSyncTrainer: null test set");
  ADAFL_CHECK_MSG(cfg_.rounds > 0, "AdaFlSyncTrainer: rounds must be positive");
  compressors_.reserve(clients_.size());
  for (std::size_t i = 0; i < clients_.size(); ++i)
    compressors_.emplace_back(
        static_cast<std::int64_t>(core_.global().size()), cfg_.params.dgc);
}

fl::TrainLog AdaFlSyncTrainer::run() {
  const std::int64_t dense_bytes =
      fl::dense_update_bytes(core_.global().size());
  const int n = static_cast<int>(clients_.size());

  fl::TrainLog log;
  log.dense_update_bytes = dense_bytes;

  double clock = 0.0;

  metrics::Tracer* const tracer = cfg_.tracer;
  const bool traced = tracer != nullptr && tracer->enabled();
  core_.set_tracer(traced ? tracer : nullptr);

  // --- Crash recovery: durable checkpoint / resume / early stop.
  const bool ckpt = !cfg_.checkpoint_path.empty();
  if (ckpt) {
    ADAFL_CHECK_MSG(cfg_.checkpoint_every > 0,
                    "AdaFlSyncTrainer: checkpoint_every must be positive");
  }

  // The checkpoint at a round boundary: the shared run state plus the
  // server core and each client's DGC residuals.
  const auto pack = [&](int next_round) {
    ServerCheckpoint ck =
        fl::pack_sim_run("adafl-sync", next_round, cfg_.rounds, cfg_.seed,
                         clock, rng_, links_, clients_);
    save_core_state(core_.state(), ck);
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      compress::DgcCompressor::State ds = compressors_[i].state();
      ck.clients[i].dgc_u = std::move(ds.u);
      ck.clients[i].dgc_v = std::move(ds.v);
    }
    return ck;
  };

  int start_round = 1;
  if (cfg_.resume) {
    ADAFL_CHECK_MSG(ckpt, "AdaFlSyncTrainer: resume requires checkpoint_path");
    const ServerCheckpoint ck = resume_checkpoint(
        cfg_.checkpoint_path, pack(1), [&](ServerCheckpoint& ck) {
          fl::unpack_sim_run(ck, rng_, links_, clients_);
          core_.restore(take_core_state(ck));
          for (std::size_t i = 0; i < clients_.size(); ++i)
            compressors_[i].set_state({std::move(ck.clients[i].dgc_u),
                                       std::move(ck.clients[i].dgc_v)});
        });
    clock = ck.clock;
    start_round = static_cast<int>(ck.next_round);
    log.ledger.record_recovery();
    if (traced) {
      tracer->set_start_round(start_round);
      tracer->record(metrics::ev_resume(start_round, clock));
    }
  }

  for (int round = start_round; round <= cfg_.rounds; ++round) {
    if (cfg_.stop && cfg_.stop->load(std::memory_order_acquire)) {
      // Round boundaries are the commit points: the interrupted round has
      // not touched any state yet, so it simply replays after resume.
      if (traced) tracer->flush();  // durable before the checkpoint exists
      if (ckpt) save_server_checkpoint(cfg_.checkpoint_path, pack(round));
      log.interrupted = true;
      break;
    }
    if (traced) tracer->record(metrics::ev_round_start(round, clock));
    // The round runs in four phases so clients train, score and compress on
    // the pool while every RNG draw and ledger entry keeps the serial order
    // (each link has its own RNG and is drawn download-then-upload):
    //   1 (serial, client order): download draws.
    //   2 (parallel): local training plus the Eq. 6 utility score. Every
    //     client downloads the fresh global model and derives g_hat locally
    //     from consecutive global models, so scoring costs no traffic.
    //   3 (parallel, after plan_round): compress_into for the selected,
    //     accumulate for the rest.
    //   4 (serial, plan order): upload draws and delivery flags.
    // Each parallel task touches only its own client, compressor, result,
    // score and delivery slot, plus the read-only global model and g_hat.
    results_.resize(static_cast<std::size_t>(n));
    down_plus_compute_.resize(static_cast<std::size_t>(n));
    scores_.resize(static_cast<std::size_t>(n));
    for (int id = 0; id < n; ++id) {
      down_plus_compute_[static_cast<std::size_t>(id)] =
          links_.download(id, dense_bytes, clock).duration;
      log.ledger.record_download(id, dense_bytes);
    }
    {
      metrics::PhaseScope prof("client-train");
      parallel_for(0, n, [&](std::int64_t i) {
        const auto id = static_cast<std::size_t>(i);
        auto& res = results_[id];
        clients_[id].train_from_into(core_.global(), res);
        down_plus_compute_[id] += res.compute_seconds;
        const auto [up_bw, down_bw] = links_.bandwidths(
            static_cast<int>(i), clock, cfg_.params.utility.bw_ref);
        scores_[id] = utility_score(cfg_.params.utility, res.delta,
                                    core_.g_hat(), up_bw, down_bw);
      });
    }

    // --- Client Filtering / Ranking / Selection (Algorithm 1) + adaptive
    // ratio assignment, in the shared server core. In the simulator every
    // client reports its score.
    const std::vector<bool> present(static_cast<std::size_t>(n), true);
    const AdaFlRoundPlan plan = core_.plan_round(scores_, present, round);

    // --- Adaptive compression for selected clients; skipped clients
    // transmit nothing, and their gradient mass accumulates locally in DGC
    // state (error feedback) if configured. Each client has a persistent
    // delivery slot; delivered_ marks which slots hold this round's update.
    plan_index_.assign(static_cast<std::size_t>(n), -1);
    for (std::size_t j = 0; j < plan.sel.selected.size(); ++j)
      plan_index_[static_cast<std::size_t>(plan.sel.selected[j])] =
          static_cast<int>(j);
    delivery_slots_.resize(static_cast<std::size_t>(n));
    {
      metrics::PhaseScope prof("compress");
      parallel_for(0, n, [&](std::int64_t i) {
        const auto id = static_cast<std::size_t>(i);
        const auto& res = results_[id];
        const int j = plan_index_[id];
        if (j < 0) {
          if (cfg_.params.accumulate_unselected)
            compressors_[id].accumulate(res.delta);
          return;
        }
        AdaFlDelivery& dl = delivery_slots_[id];
        compressors_[id].compress_into(
            res.delta, plan.ratios[static_cast<std::size_t>(j)], dl.msg);
        dl.num_examples = res.num_examples;
        dl.mean_loss = res.mean_loss;
        dl.raw_delta_norm = tensor::l2_norm(res.delta);
      });
    }

    // --- Uploads, in plan order.
    delivered_.assign(static_cast<std::size_t>(n), 0);
    double round_time = 0.0;
    for (const int id : plan.sel.selected) {
      const AdaFlDelivery& dl = delivery_slots_[static_cast<std::size_t>(id)];
      const net::TransferResult up =
          links_.upload(id, dl.msg.wire_bytes, clock);
      log.ledger.record_upload(id, dl.msg.wire_bytes, up.delivered);
      delivered_[static_cast<std::size_t>(id)] = up.delivered ? 1 : 0;
      round_time =
          std::max(round_time,
                   down_plus_compute_[static_cast<std::size_t>(id)] +
                       up.duration);
    }
    for (int id = 0; id < n; ++id)
      if (plan_index_[static_cast<std::size_t>(id)] < 0)
        round_time = std::max(round_time,
                              down_plus_compute_[static_cast<std::size_t>(id)]);

    // --- Server aggregation (FedAvg weighting + trust region).
    AdaFlRoundOutcome out;
    {
      metrics::PhaseScope prof("aggregate");
      out = core_.apply_round(plan, [this](int id) -> const AdaFlDelivery* {
        return delivered_[static_cast<std::size_t>(id)]
                   ? &delivery_slots_[static_cast<std::size_t>(id)]
                   : nullptr;
      });
    }

    clock += round_time + kServerOverheadSeconds;

    // Round boundary = trace flush point; also the durability point the
    // crash stitcher relies on (the trace always covers at least as many
    // rounds as the checkpoint written right after).
    eval_.end_round(log, core_.global(), round, clock, out.delivered,
                    out.loss_sum,
                    round % cfg_.eval_every == 0 || round == cfg_.rounds,
                    traced ? tracer : nullptr);

    if (ckpt && (round % cfg_.checkpoint_every == 0 || round == cfg_.rounds)) {
      save_server_checkpoint(cfg_.checkpoint_path, pack(round + 1));
      if (traced)
        tracer->record(
            metrics::ev_checkpoint(round, cfg_.checkpoint_path, clock));
    }
    if (cfg_.on_round_end) cfg_.on_round_end(round);
  }

  if (traced) tracer->flush();
  core_.set_tracer(nullptr);
  log.applied_updates = core_.stats().selected_updates;
  log.total_time = clock;
  return log;
}

}  // namespace adafl::core
