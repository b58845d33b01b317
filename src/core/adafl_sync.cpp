#include "core/adafl_sync.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/parallel.h"
#include "core/selection.h"
#include "core/server_checkpoint.h"
#include "metrics/registry.h"
#include "metrics/trace.h"

namespace adafl::core {

namespace {
constexpr std::int64_t kMsgHeaderBytes = 8;
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
      test_(test),
      clients_(fl::make_clients(factory_, train, parts, cfg_.client, devices,
                                cfg_.seed ^ kAdaFlClientSeedSalt)),
      eval_model_(factory_()),
      rng_(cfg_.seed),
      core_(cfg_.params, eval_model_.get_flat()) {
  ADAFL_CHECK_MSG(test_ != nullptr, "AdaFlSyncTrainer: null test set");
  ADAFL_CHECK_MSG(cfg_.rounds > 0, "AdaFlSyncTrainer: rounds must be positive");
  ADAFL_CHECK_MSG(
      cfg_.links.empty() || cfg_.links.size() == clients_.size(),
      "AdaFlSyncTrainer: need 0 or " << clients_.size() << " link configs");
  tensor::Rng link_rng = rng_.fork(0x11F7);
  for (std::size_t i = 0; i < cfg_.links.size(); ++i)
    links_.emplace_back(cfg_.links[i], link_rng.fork(i + 1));
  compressors_.reserve(clients_.size());
  for (std::size_t i = 0; i < clients_.size(); ++i)
    compressors_.emplace_back(
        static_cast<std::int64_t>(core_.global().size()), cfg_.params.dgc);
}

fl::TrainLog AdaFlSyncTrainer::run() {
  const std::int64_t d = static_cast<std::int64_t>(core_.global().size());
  const std::int64_t dense_bytes = kMsgHeaderBytes + 4 * d;
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

  auto save = [&](int next_round) {
    ServerCheckpoint ck;
    ck.producer = "adafl-sync";
    ck.next_round = static_cast<std::uint32_t>(next_round);
    ck.total_rounds = static_cast<std::uint32_t>(cfg_.rounds);
    ck.seed = cfg_.seed;
    ck.clock = clock;
    save_core_state(core_.state(), ck);
    ck.server_rng = rng_.state();
    for (const auto& l : links_) ck.link_rngs.push_back(l.rng_state());
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      fl::FlClient::PersistentState ps = clients_[i].persistent_state();
      compress::DgcCompressor::State ds = compressors_[i].state();
      ServerCheckpoint::ClientState c;
      c.loader_rng = ps.loader.rng;
      c.loader_cursor = ps.loader.cursor;
      c.loader_indices = std::move(ps.loader.indices);
      c.dgc_u = std::move(ds.u);
      c.dgc_v = std::move(ds.v);
      c.c_local = std::move(ps.c_local);
      ck.clients.push_back(std::move(c));
    }
    save_server_checkpoint(cfg_.checkpoint_path, ck);
  };

  int start_round = 1;
  if (cfg_.resume) {
    ADAFL_CHECK_MSG(ckpt, "AdaFlSyncTrainer: resume requires checkpoint_path");
    ServerCheckpoint ck = load_server_checkpoint(cfg_.checkpoint_path);
    auto reject = [this](const std::string& why) {
      throw std::runtime_error("server checkpoint " + cfg_.checkpoint_path +
                               ": " + why +
                               "; delete the checkpoint or rerun without "
                               "resume");
    };
    if (ck.producer != "adafl-sync")
      reject("written by '" + ck.producer + "', expected 'adafl-sync'");
    if (ck.seed != cfg_.seed) reject("seed mismatch");
    if (ck.total_rounds != static_cast<std::uint32_t>(cfg_.rounds))
      reject("round count mismatch");
    if (ck.next_round > ck.total_rounds)
      reject("run already complete (all " + std::to_string(ck.total_rounds) +
             " rounds done); nothing to resume");
    if (ck.global.size() != core_.global().size())
      reject("model dimension mismatch");
    if (!ck.adafl) reject("missing AdaFL server state");
    if (ck.clients.size() != clients_.size()) reject("client count mismatch");
    if (ck.link_rngs.size() != links_.size()) reject("link count mismatch");
    if (!ck.server_rng) reject("missing server RNG state");
    try {
      core_.restore(take_core_state(ck));
      rng_.set_state(*ck.server_rng);
      for (std::size_t i = 0; i < links_.size(); ++i)
        links_[i].set_rng_state(ck.link_rngs[i]);
      for (std::size_t i = 0; i < clients_.size(); ++i) {
        fl::FlClient::PersistentState ps;
        ps.loader.rng = ck.clients[i].loader_rng;
        ps.loader.cursor = ck.clients[i].loader_cursor;
        ps.loader.indices = std::move(ck.clients[i].loader_indices);
        ps.c_local = std::move(ck.clients[i].c_local);
        clients_[i].set_persistent_state(std::move(ps));
        compressors_[i].set_state({std::move(ck.clients[i].dgc_u),
                                   std::move(ck.clients[i].dgc_v)});
      }
    } catch (const CheckError& e) {
      reject(e.what());
    }
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
      if (ckpt) save(round);
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
    down_plus_compute_.assign(static_cast<std::size_t>(n), 0.0);
    scores_.resize(static_cast<std::size_t>(n));
    for (int id = 0; id < n; ++id) {
      if (!links_.empty())
        down_plus_compute_[static_cast<std::size_t>(id)] =
            links_[static_cast<std::size_t>(id)]
                .download(dense_bytes, clock)
                .duration;
      log.ledger.record_download(id, dense_bytes);
    }
    {
      metrics::PhaseScope prof("client-train");
      parallel_for(0, n, [&](std::int64_t i) {
        const auto id = static_cast<std::size_t>(i);
        auto& res = results_[id];
        clients_[id].train_from_into(core_.global(), res);
        down_plus_compute_[id] += res.compute_seconds;
        double up_bw = cfg_.params.utility.bw_ref;
        double down_bw = cfg_.params.utility.bw_ref;
        if (!links_.empty()) {
          up_bw = links_[id].up_bandwidth(clock);
          down_bw = links_[id].down_bandwidth(clock);
        }
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
      double up_t = 0.0;
      bool ok = true;
      if (!links_.empty()) {
        auto tr = links_[static_cast<std::size_t>(id)].upload(
            dl.msg.wire_bytes, clock);
        up_t = tr.duration;
        ok = tr.delivered;
      }
      log.ledger.record_upload(id, dl.msg.wire_bytes, ok);
      delivered_[static_cast<std::size_t>(id)] = ok ? 1 : 0;
      round_time = std::max(
          round_time, down_plus_compute_[static_cast<std::size_t>(id)] + up_t);
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

    const double round_mean_loss =
        out.delivered > 0 ? out.loss_sum / static_cast<double>(out.delivered)
                          : 0.0;
    const bool evaled = round % cfg_.eval_every == 0 || round == cfg_.rounds;
    if (evaled) {
      metrics::PhaseScope prof("eval");
      eval_model_.set_flat(core_.global());
      fl::RoundRecord rec;
      rec.round = round;
      rec.time = clock;
      if (eval_batch_.size() == 0) eval_batch_ = test_->all();
      rec.test_accuracy = eval_model_.accuracy(eval_batch_);
      rec.mean_train_loss = round_mean_loss;
      rec.participants = out.delivered;
      log.records.push_back(rec);
    }

    if (traced) {
      tracer->record(metrics::ev_round_end(
          round, out.delivered, round_mean_loss, evaled,
          evaled ? log.records.back().test_accuracy : 0.0, clock));
      // Round boundary = flush point; also the durability point the crash
      // stitcher relies on (the trace always covers at least as many rounds
      // as the checkpoint written right after).
      tracer->flush();
    }

    if (ckpt && (round % cfg_.checkpoint_every == 0 || round == cfg_.rounds)) {
      save(round + 1);
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
