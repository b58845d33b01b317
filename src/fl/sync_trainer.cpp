#include "fl/sync_trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "core/parallel.h"
#include "fl/trainer_common.h"

namespace adafl::fl {

namespace {

/// Simulated server-side aggregation overhead per round.
constexpr double kServerOverheadSeconds = 0.002;

}  // namespace

SyncTrainer::SyncTrainer(SyncConfig cfg, nn::ModelFactory factory,
                         const data::Dataset* train, data::Partition parts,
                         const data::Dataset* test,
                         std::vector<DeviceProfile> devices)
    : cfg_(std::move(cfg)),
      factory_(std::move(factory)),
      clients_(make_clients(factory_, train, parts, cfg_.client, devices,
                            cfg_.seed ^ 0xC11E57ULL)),
      eval_(factory_(), test),
      rng_(cfg_.seed),
      links_(cfg_.links, clients_.size(), rng_, 0xBEEF, "SyncTrainer"),
      global_(eval_.weights()) {
  ADAFL_CHECK_MSG(test != nullptr, "SyncTrainer: null test set");
  ADAFL_CHECK_MSG(cfg_.rounds > 0, "SyncTrainer: rounds must be positive");
  ADAFL_CHECK_MSG(cfg_.participation > 0.0 && cfg_.participation <= 1.0,
                  "SyncTrainer: participation in (0,1]");
}

std::vector<float> SyncTrainer::robust_aggregate(
    const std::vector<std::vector<float>>& deltas) const {
  ADAFL_CHECK_MSG(!deltas.empty(), "robust_aggregate: no deltas");
  const std::size_t d = deltas.front().size();
  const std::size_t n = deltas.size();
  std::vector<float> out(d, 0.0f);
  std::vector<float> column(n);
  std::size_t lo = 0, hi = n;  // [lo, hi) kept after trimming
  if (cfg_.aggregation == Aggregation::kTrimmedMean) {
    const auto cut = static_cast<std::size_t>(
        static_cast<double>(n) * cfg_.trim_fraction);
    lo = cut;
    hi = n - cut;
    if (lo >= hi) {  // over-trimmed: fall back to the median element
      lo = n / 2;
      hi = lo + 1;
    }
  }
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t k = 0; k < n; ++k) column[k] = deltas[k][i];
    std::sort(column.begin(), column.end());
    if (cfg_.aggregation == Aggregation::kCoordinateMedian) {
      out[i] = (n % 2 == 1) ? column[n / 2]
                            : 0.5f * (column[n / 2 - 1] + column[n / 2]);
    } else {
      double acc = 0.0;
      for (std::size_t k = lo; k < hi; ++k) acc += column[k];
      out[i] = static_cast<float>(acc / static_cast<double>(hi - lo));
    }
  }
  return out;
}

TrainLog SyncTrainer::run() {
  const std::int64_t d = static_cast<std::int64_t>(global_.size());
  const std::int64_t dense_bytes = dense_update_bytes(global_.size());
  const int n = static_cast<int>(clients_.size());
  const int per_round =
      std::max(1, static_cast<int>(std::ceil(n * cfg_.participation)));
  const int n_unreliable = static_cast<int>(
      std::lround(n * cfg_.faults.unreliable_fraction));

  TrainLog log;
  log.dense_update_bytes = dense_bytes;
  std::int64_t applied_total = 0;

  // FedAdam server optimizer / SCAFFOLD server control variate. The
  // optimizer is only constructed when the algorithm actually uses it, so
  // server_lr is free to stay unset for the other algorithms.
  // FedAdam uses the adaptive-FL server defaults from Reddi et al.:
  // beta2 = 0.99 and a LARGE epsilon (1e-3). With the conventional 1e-8 the
  // first rounds take ~lr-sized sign steps on every coordinate, which can
  // throw the model into a region it never recovers from.
  std::optional<nn::FlatAdam> server_adam;
  if (cfg_.algo == Algorithm::kFedAdam)
    server_adam.emplace(cfg_.server_lr, cfg_.server_beta1, cfg_.server_beta2,
                        cfg_.server_eps);
  std::vector<float> c_global;
  if (cfg_.algo == Algorithm::kScaffold)
    c_global.assign(static_cast<std::size_t>(d), 0.0f);

  // Pending (stale) updates for the data-loss fault.
  struct Pending {
    std::vector<float> delta;
    std::int64_t weight = 0;
    float loss = 0.0f;
  };
  std::vector<std::optional<Pending>> pending(clients_.size());

  double clock = 0.0;
  std::vector<int> ids(clients_.size());
  std::iota(ids.begin(), ids.end(), 0);

  // --- Crash recovery: durable checkpoint / resume / early stop.
  const bool ckpt = !cfg_.checkpoint_path.empty();
  if (ckpt) {
    ADAFL_CHECK_MSG(cfg_.checkpoint_every > 0,
                    "SyncTrainer: checkpoint_every must be positive");
    ADAFL_CHECK_MSG(cfg_.faults.kind != FaultKind::kDataLoss,
                    "SyncTrainer: checkpointing is incompatible with the "
                    "data-loss fault (pending stale updates are not "
                    "serialized)");
  }
  // The checkpoint at a round boundary: the shared run state plus the
  // server model, optimizer moments, SCAFFOLD variate and visit order.
  const auto pack = [&](int next_round) {
    core::ServerCheckpoint ck =
        pack_sim_run(std::string("sync-") + to_string(cfg_.algo), next_round,
                     cfg_.rounds, cfg_.seed, clock, rng_, links_, clients_);
    ck.global = global_;
    if (server_adam) {
      nn::FlatAdam::State st = server_adam->state();
      ck.adam = core::ServerCheckpoint::AdamState{std::move(st.m),
                                                  std::move(st.v), st.t};
    }
    if (cfg_.algo == Algorithm::kScaffold) ck.c_global = c_global;
    ck.schedule.assign(ids.begin(), ids.end());
    return ck;
  };
  const auto save = [&](int next_round) {
    core::save_server_checkpoint(cfg_.checkpoint_path, pack(next_round));
  };

  int start_round = 1;
  if (cfg_.resume) {
    ADAFL_CHECK_MSG(ckpt, "SyncTrainer: resume requires checkpoint_path");
    const core::ServerCheckpoint ck = core::resume_checkpoint(
        cfg_.checkpoint_path, pack(1), [&](core::ServerCheckpoint& ck) {
          unpack_sim_run(ck, rng_, links_, clients_);
          global_ = std::move(ck.global);
          if (ck.adam)
            server_adam->set_state(
                {std::move(ck.adam->m), std::move(ck.adam->v), ck.adam->t});
          if (ck.c_global) c_global = std::move(*ck.c_global);
          ids.assign(ck.schedule.begin(), ck.schedule.end());
        });
    clock = ck.clock;
    start_round = static_cast<int>(ck.next_round);
    log.ledger.record_recovery();
  }

  for (int round = start_round; round <= cfg_.rounds; ++round) {
    if (cfg_.stop && cfg_.stop->load(std::memory_order_acquire)) {
      // Round boundaries are the commit points: the interrupted round has
      // not touched any state yet, so it simply replays after resume.
      if (ckpt) save(round);
      log.interrupted = true;
      break;
    }
    rng_.shuffle(ids);
    std::vector<float> sum_delta(static_cast<std::size_t>(d), 0.0f);
    // Robust rules need every delivered delta, not just the running sum.
    const bool robust = cfg_.aggregation != Aggregation::kWeightedMean;
    std::vector<std::vector<float>> delivered_deltas;
    std::vector<float> sum_dc;  // SCAFFOLD
    if (cfg_.algo == Algorithm::kScaffold)
      sum_dc.assign(static_cast<std::size_t>(d), 0.0f);
    double weight_sum = 0.0;
    double loss_sum = 0.0;
    int delivered = 0;
    int scaffold_deliveries = 0;
    double round_time = 0.0;

    // The round runs in three phases so the selected clients can train in
    // parallel while every RNG stays on the main thread in the serial
    // schedule's draw order:
    //   A (serial, schedule order): decide each client's path and draw its
    //     download transfer — each link has its own RNG, and a client
    //     appears at most once per round, so the per-link draw sequence
    //     (download, then upload in phase C) matches the serial trainer.
    //   B (parallel): the independent local_train calls. Each task touches
    //     only its own client plus the read-only global (and SCAFFOLD c)
    //     vectors.
    //   C (serial, schedule order): fault draws on the main RNG, upload
    //     draws, and delta aggregation — identical order to the serial
    //     trainer, so the round is bitwise reproducible at any thread count.
    struct ClientSlot {
      int id = 0;
      bool unreliable = false;
      bool trains = false;
      double down_t = 0.0;
      FlClient::LocalResult res;
      std::vector<float> dc;  // SCAFFOLD control-variate delta
    };
    std::vector<ClientSlot> slots(static_cast<std::size_t>(per_round));

    // --- Phase A: schedule decisions + download legs.
    for (int k = 0; k < per_round; ++k) {
      ClientSlot& s = slots[static_cast<std::size_t>(k)];
      s.id = ids[static_cast<std::size_t>(k)];
      s.unreliable = s.id < n_unreliable;
      const bool dataloss_client =
          cfg_.faults.kind == FaultKind::kDataLoss && s.unreliable;
      // A data-loss client with a pending update only delivers this round;
      // everyone else downloads the global model and trains.
      s.trains = !(dataloss_client &&
                   pending[static_cast<std::size_t>(s.id)].has_value());
      if (!s.trains) continue;
      s.down_t = links_.download(s.id, dense_bytes, clock).duration;
      log.ledger.record_download(s.id, dense_bytes);
    }

    // --- Phase B: parallel local training.
    std::vector<std::size_t> training;
    for (std::size_t k = 0; k < slots.size(); ++k)
      if (slots[k].trains) training.push_back(k);
    core::parallel_for(
        0, static_cast<std::int64_t>(training.size()), [&](std::int64_t t) {
          ClientSlot& s = slots[training[static_cast<std::size_t>(t)]];
          FlClient& cl = clients_[static_cast<std::size_t>(s.id)];
          if (cfg_.algo == Algorithm::kScaffold)
            s.res = cl.train_scaffold(global_, c_global, &s.dc);
          else
            s.res = cl.train_from(global_);
        });

    // --- Phase C: faults, uploads, aggregation (schedule order).
    for (int k = 0; k < per_round; ++k) {
      ClientSlot& s = slots[static_cast<std::size_t>(k)];
      double t_client = 0.0;

      // Data-loss fault: alternate train-only / deliver-stale rounds.
      if (cfg_.faults.kind == FaultKind::kDataLoss && s.unreliable) {
        auto& slot = pending[static_cast<std::size_t>(s.id)];
        if (s.trains) {
          // Trained against the current global model; delivery happens on
          // the client's next participation, by which time it is stale.
          slot = Pending{std::move(s.res.delta), s.res.num_examples,
                         s.res.mean_loss};
          t_client = s.down_t + s.res.compute_seconds;
        } else {
          // Deliver the stale pending update.
          const net::TransferResult up =
              links_.upload(s.id, dense_bytes, clock);
          log.ledger.record_upload(s.id, dense_bytes, up.delivered);
          if (up.delivered) {
            const double w = static_cast<double>(slot->weight);
            for (std::size_t i = 0; i < sum_delta.size(); ++i)
              sum_delta[i] += static_cast<float>(w) * slot->delta[i];
            if (robust) delivered_deltas.push_back(slot->delta);
            weight_sum += w;
            loss_sum += slot->loss;
            ++delivered;
          }
          slot.reset();
          t_client = up.duration;
        }
        round_time = std::max(round_time, t_client);
        continue;
      }

      // Normal path (with optional dropout fault).
      bool deliver = true;
      if (cfg_.faults.kind == FaultKind::kDropout && s.unreliable)
        deliver = rng_.bernoulli(0.5);
      if (cfg_.faults.kind == FaultKind::kByzantine && s.unreliable) {
        // Sign-flip attack with amplification.
        for (auto& v : s.res.delta) v *= -3.0f;
      }

      double up_t = 0.0;
      if (deliver) {
        const net::TransferResult up = links_.upload(s.id, dense_bytes, clock);
        up_t = up.duration;
        log.ledger.record_upload(s.id, dense_bytes, up.delivered);
        if (up.delivered) {
          const double w = static_cast<double>(s.res.num_examples);
          for (std::size_t i = 0; i < sum_delta.size(); ++i)
            sum_delta[i] += static_cast<float>(w) * s.res.delta[i];
          if (robust) delivered_deltas.push_back(s.res.delta);
          weight_sum += w;
          loss_sum += s.res.mean_loss;
          ++delivered;
          if (cfg_.algo == Algorithm::kScaffold) {
            for (std::size_t i = 0; i < sum_dc.size(); ++i)
              sum_dc[i] += s.dc[i];
            ++scaffold_deliveries;
          }
        }
      }
      round_time =
          std::max(round_time, s.down_t + s.res.compute_seconds + up_t);
    }

    // --- Server aggregation.
    if (weight_sum > 0.0) {
      const float inv = static_cast<float>(1.0 / weight_sum);
      for (auto& v : sum_delta) v *= inv;
      if (robust) sum_delta = robust_aggregate(delivered_deltas);
      switch (cfg_.algo) {
        case Algorithm::kFedAvg:
        case Algorithm::kFedProx:
        case Algorithm::kScaffold:
          for (std::size_t i = 0; i < global_.size(); ++i)
            global_[i] -= sum_delta[i];
          break;
        case Algorithm::kFedAdam:
          server_adam->step(global_, sum_delta);
          break;
      }
      if (cfg_.algo == Algorithm::kScaffold && scaffold_deliveries > 0) {
        // c += (1/N) * sum(delta_c) — SCAFFOLD server update.
        const float s = 1.0f / static_cast<float>(n);
        for (std::size_t i = 0; i < c_global.size(); ++i)
          c_global[i] += s * sum_dc[i];
      }
    }

    applied_total += delivered;
    clock += round_time + kServerOverheadSeconds;

    eval_.end_round(log, global_, round, clock, delivered, loss_sum,
                    round % cfg_.eval_every == 0 || round == cfg_.rounds,
                    nullptr);

    if (ckpt && (round % cfg_.checkpoint_every == 0 || round == cfg_.rounds))
      save(round + 1);
    if (cfg_.on_round_end) cfg_.on_round_end(round);
  }
  log.total_time = clock;
  log.applied_updates = applied_total;
  return log;
}

}  // namespace adafl::fl
