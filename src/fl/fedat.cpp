#include "fl/fedat.h"

#include <algorithm>
#include <numeric>

#include "core/parallel.h"

namespace adafl::fl {

FedAtTrainer::FedAtTrainer(FedAtConfig cfg, nn::ModelFactory factory,
                           const data::Dataset* train, data::Partition parts,
                           const data::Dataset* test,
                           std::vector<DeviceProfile> devices)
    : cfg_(std::move(cfg)),
      factory_(std::move(factory)),
      clients_(make_clients(factory_, train, parts, cfg_.client, devices,
                            cfg_.seed ^ 0xFEDA7ULL)),
      eval_(factory_, test),
      rng_(cfg_.seed),
      links_(cfg_.links, clients_.size(), rng_, 0x7157, "FedAtTrainer"),
      global_(eval_.weights()),
      dense_bytes_(dense_update_bytes(global_.size())) {
  ADAFL_CHECK_MSG(test != nullptr, "FedAtTrainer: null test set");
  ADAFL_CHECK_MSG(cfg_.num_tiers >= 1, "FedAtTrainer: num_tiers >= 1");
  ADAFL_CHECK_MSG(cfg_.num_tiers <= static_cast<int>(clients_.size()),
                  "FedAtTrainer: more tiers than clients");
  ADAFL_CHECK_MSG(cfg_.duration > 0, "FedAtTrainer: duration must be positive");

  // --- Tiering: sort clients by estimated response time (one local round
  // on their device + a dense round trip on their link), then cut into
  // near-equal contiguous tiers — FedAT's profiling step.
  std::vector<double> response(clients_.size());
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const auto& cl = clients_[i];
    double t = cl.device().seconds_for(cfg_.client.local_steps *
                                       cfg_.client.batch_size);
    if (!links_.ideal()) {
      const auto& lc = cfg_.links[i];
      t += 2.0 * lc.latency + static_cast<double>(dense_bytes_) / lc.up_bw +
           static_cast<double>(dense_bytes_) / lc.down_bw;
    }
    response[i] = t;
  }
  std::vector<int> order(clients_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return response[static_cast<std::size_t>(a)] <
           response[static_cast<std::size_t>(b)];
  });
  tier_of_.assign(clients_.size(), 0);
  tiers_.assign(static_cast<std::size_t>(cfg_.num_tiers), {});
  for (std::size_t r = 0; r < order.size(); ++r) {
    const int tier = static_cast<int>(r * static_cast<std::size_t>(
                                              cfg_.num_tiers) /
                                      order.size());
    tier_of_[static_cast<std::size_t>(order[r])] = tier;
    tiers_[static_cast<std::size_t>(tier)].push_back(order[r]);
  }
  tier_model_.assign(static_cast<std::size_t>(cfg_.num_tiers), global_);
  tier_rounds_.assign(static_cast<std::size_t>(cfg_.num_tiers), 0);
}

TrainLog FedAtTrainer::run() {
  TrainLog log;
  log_ = &log;
  log.dense_update_bytes = dense_bytes_;

  ticks_.run(
      queue_, rng_, cfg_.num_tiers, [this](int t) { start_tier_round(t); },
      cfg_.eval_interval, cfg_.duration, eval_, global_, log, cfg_.tracer);
  log_ = nullptr;
  return log;
}

void FedAtTrainer::start_tier_round(int tier) {
  const auto& members = tiers_[static_cast<std::size_t>(tier)];
  const std::size_t m = members.size();
  // Intra-tier synchronous round against the tier's view of the global
  // model: all members train, the tier waits for its slowest member. As in
  // SyncTrainer, the members train on the pool between a serial download
  // phase and a serial upload + fold phase in member order, so each link
  // still draws its download before its upload and the weighted sum keeps
  // its order at any thread count.
  std::vector<double> down_t(m);
  results_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    const int id = members[k];
    down_t[k] = links_.download(id, dense_bytes_, queue_.now()).duration;
    log_->ledger.record_download(id, dense_bytes_);
  }
  core::parallel_for(0, static_cast<std::int64_t>(m), [&](std::int64_t i) {
    const auto k = static_cast<std::size_t>(i);
    clients_[static_cast<std::size_t>(members[k])].train_from_into(
        global_, results_[k]);
  });

  // Only delivered uploads are folded: a lost one spent its bytes and its
  // time but carries no delta.
  std::vector<float> sum_delta(global_.size(), 0.0f);
  double weight_sum = 0.0;
  double loss_sum = 0.0;
  int delivered = 0;
  double round_time = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    const int id = members[k];
    const FlClient::LocalResult& res = results_[k];
    const net::TransferResult up =
        links_.upload(id, dense_bytes_, queue_.now());
    log_->ledger.record_upload(id, dense_bytes_, up.delivered);
    round_time =
        std::max(round_time, down_t[k] + res.compute_seconds + up.duration);
    if (!up.delivered) continue;
    const float w = static_cast<float>(res.num_examples);
    for (std::size_t i = 0; i < sum_delta.size(); ++i)
      sum_delta[i] += w * res.delta[i];
    weight_sum += w;
    loss_sum += res.mean_loss;
    ++delivered;
  }
  if (delivered == 0) {
    // Every upload was lost: the tier applies nothing and starts its next
    // round once this one's time has passed.
    queue_.schedule_in(round_time, [this, tier] { start_tier_round(tier); });
    return;
  }
  const float inv = static_cast<float>(1.0 / weight_sum);
  for (auto& v : sum_delta) v *= inv;
  const float mean_loss =
      static_cast<float>(loss_sum / static_cast<double>(delivered));
  queue_.schedule_in(round_time,
                     [this, tier, delta = std::move(sum_delta), mean_loss]() mutable {
                       on_tier_arrival(tier, std::move(delta), mean_loss);
                     });
}

void FedAtTrainer::on_tier_arrival(int tier, std::vector<float> tier_delta,
                                   float loss) {
  // The tier's model advances from the global it trained against.
  auto& model = tier_model_[static_cast<std::size_t>(tier)];
  model = global_;
  for (std::size_t i = 0; i < model.size(); ++i) model[i] -= tier_delta[i];
  ++tier_rounds_[static_cast<std::size_t>(tier)];
  ticks_.count(tier, dense_bytes_, loss);
  rebuild_global();
  start_tier_round(tier);
}

void FedAtTrainer::rebuild_global() {
  // Inverse-frequency tier weighting (FedAT's T-weighting, normalized):
  // tiers that have updated more often get proportionally less weight, so
  // slow tiers' data is not drowned out.
  std::vector<double> w(tier_model_.size());
  double sum = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k) {
    w[k] = 1.0 / (1.0 + static_cast<double>(tier_rounds_[k]));
    sum += w[k];
  }
  std::fill(global_.begin(), global_.end(), 0.0f);
  for (std::size_t k = 0; k < tier_model_.size(); ++k) {
    const float p = static_cast<float>(w[k] / sum);
    const auto& m = tier_model_[k];
    for (std::size_t i = 0; i < global_.size(); ++i) global_[i] += p * m[i];
  }
}

}  // namespace adafl::fl
