#include "core/adafl_async.h"

#include <algorithm>
#include <cmath>


namespace adafl::core {

AdaFlAsyncTrainer::AdaFlAsyncTrainer(AdaFlAsyncConfig cfg,
                                     nn::ModelFactory factory,
                                     const data::Dataset* train,
                                     data::Partition parts,
                                     const data::Dataset* test,
                                     std::vector<fl::DeviceProfile> devices)
    : cfg_(std::move(cfg)),
      factory_(std::move(factory)),
      clients_(fl::make_clients(
          factory_, train, parts, cfg_.client,
          cfg_.faults.devices_for(std::move(devices), parts.size(),
                                  "AdaFlAsyncTrainer"),
          cfg_.seed ^ 0xADAFA51ULL)),
      eval_(factory_, test),
      rng_(cfg_.seed),
      links_(cfg_.links, clients_.size(), rng_, 0xA11F, "AdaFlAsyncTrainer"),
      global_(eval_.weights()),
      global_gradient_(global_.size(), 0.0f),
      controller_(cfg_.params.compression) {
  ADAFL_CHECK_MSG(test != nullptr, "AdaFlAsyncTrainer: null test set");
  ADAFL_CHECK_MSG(cfg_.duration > 0,
                  "AdaFlAsyncTrainer: duration must be positive");
  compressors_.reserve(clients_.size());
  for (std::size_t i = 0; i < clients_.size(); ++i)
    compressors_.emplace_back(static_cast<std::int64_t>(global_.size()),
                              cfg_.params.dgc);
  stats_.min_ratio_used = cfg_.params.compression.ratio_max;
}

fl::TrainLog AdaFlAsyncTrainer::run() {
  fl::TrainLog log;
  log_ = &log;
  dense_bytes_ = fl::dense_update_bytes(global_.size());
  log.dense_update_bytes = dense_bytes_;
  consecutive_skips_.assign(clients_.size(), 0);

  ticks_.run(
      queue_, rng_, static_cast<int>(clients_.size()),
      [this](int id) { start_cycle(id); }, cfg_.eval_interval, cfg_.duration,
      eval_, global_, log, cfg_.tracer);
  log_ = nullptr;
  return log;
}

void AdaFlAsyncTrainer::start_cycle(int client_id) {
  if (cfg_.max_updates > 0 && ticks_.applied() >= cfg_.max_updates) return;
  fl::FlClient& cl = clients_[static_cast<std::size_t>(client_id)];
  const std::int64_t version_at_start = version_;
  const bool unreliable = cfg_.faults.unreliable(client_id, clients_.size());

  // Download the fresh global model.
  const double down_t = cfg_.faults.stretch(
      links_.download(client_id, dense_bytes_, queue_.now()).duration,
      unreliable);
  log_->ledger.record_download(client_id, dense_bytes_);

  auto res = cl.train_from(global_);

  // Client-side utility gating (the client knows g_hat from consecutive
  // downloaded models, so this costs no extra traffic).
  const auto [up_bw, down_bw] = links_.bandwidths(
      client_id, queue_.now(), cfg_.params.utility.bw_ref);
  const double score = utility_score(cfg_.params.utility, res.delta,
                                     global_gradient_, up_bw, down_bw);
  // "Round" for warm-up purposes = accepted updates so far, scaled to the
  // fleet size so warm-up covers roughly warmup_rounds fleet-wide passes.
  const int pseudo_round =
      1 + ticks_.applied() /
              std::max<int>(1, static_cast<int>(clients_.size()));
  const bool warmup = controller_.in_warmup(pseudo_round);

  // Freshness guard: never skip indefinitely.
  auto& skips = consecutive_skips_[static_cast<std::size_t>(client_id)];
  const bool force_upload = cfg_.params.max_consecutive_skips > 0 &&
                            skips >= cfg_.params.max_consecutive_skips;

  if (!warmup && score < cfg_.params.tau && !force_upload) {
    ++skips;
    // Low utility: halt — accumulate locally, transmit nothing, and wait
    // for the next global model before training again.
    ++stats_.skipped_clients;
    if (cfg_.params.accumulate_unselected)
      compressors_[static_cast<std::size_t>(client_id)].accumulate(res.delta);
    queue_.schedule_in(down_t + res.compute_seconds,
                       [this, client_id] { start_cycle(client_id); });
    return;
  }

  skips = 0;
  // Normalized score for the compression controller: distance above tau.
  // A forced (freshness-guard) upload scores 0 -> maximum compression.
  const double span = 1.0 - cfg_.params.tau;
  const double norm =
      span > 1e-12 ? std::clamp((score - cfg_.params.tau) / span, 0.0, 1.0)
                   : 1.0;
  const double ratio = controller_.ratio_for(norm, pseudo_round);
  stats_.min_ratio_used = std::min(stats_.min_ratio_used, ratio);
  stats_.max_ratio_used = std::max(stats_.max_ratio_used, ratio);

  compress::EncodedGradient msg =
      compressors_[static_cast<std::size_t>(client_id)].compress(res.delta,
                                                                 ratio);
  const net::TransferResult up =
      links_.upload(client_id, msg.wire_bytes, queue_.now());
  const double up_t = cfg_.faults.stretch(up.duration, unreliable);
  bool ok = up.delivered;
  if (cfg_.faults.drops(unreliable, rng_)) ok = false;
  log_->ledger.record_upload(client_id, msg.wire_bytes, ok);

  const double arrival = down_t + res.compute_seconds + up_t;
  const float loss = res.mean_loss;
  const double delta_norm = tensor::l2_norm(res.delta);
  if (ok) {
    queue_.schedule_in(arrival, [this, client_id, msg = std::move(msg),
                                 delta_norm, version_at_start,
                                 loss]() mutable {
      on_arrival(client_id, std::move(msg), delta_norm, version_at_start,
                 loss);
    });
  } else {
    queue_.schedule_in(arrival, [this, client_id] { start_cycle(client_id); });
  }
}

void AdaFlAsyncTrainer::on_arrival(int client_id,
                                   compress::EncodedGradient msg,
                                   double delta_norm,
                                   std::int64_t version_at_start, float loss) {
  // The update cap applies to *applied* updates: in-flight arrivals beyond
  // the cap are discarded.
  if (cfg_.max_updates > 0 && ticks_.applied() >= cfg_.max_updates) return;
  const std::int64_t staleness = version_ - version_at_start;
  const float a =
      cfg_.alpha * std::pow(1.0f + static_cast<float>(staleness),
                            -cfg_.staleness_exponent);
  std::vector<float> decoded = msg.decode();
  if (cfg_.params.server_trust_clip) {
    // Trust region: a top-k message can carry accumulated residual mass far
    // larger than the round's raw delta; clip to the raw delta's norm.
    const double norm = tensor::l2_norm(decoded);
    if (norm > delta_norm && norm > 0.0) {
      const float s = static_cast<float>(delta_norm / norm);
      for (auto& v : decoded) v *= s;
    }
  }
  for (std::size_t i = 0; i < global_.size(); ++i)
    global_[i] -= a * decoded[i];
  // g_hat tracks the most recent applied global update (scaled).
  for (std::size_t i = 0; i < global_gradient_.size(); ++i)
    global_gradient_[i] = a * decoded[i];
  ++version_;
  ++stats_.selected_updates;
  ticks_.count(client_id, msg.wire_bytes, loss);
  start_cycle(client_id);
}

}  // namespace adafl::core
