// FedAT (Chai et al., SC'21) — tier-based semi-asynchronous FL, implemented
// as the protocol-level comparison point the paper cites in Related Work.
//
// Clients are grouped into tiers by response time (compute + link). Each
// tier runs its own synchronous FedAvg loop at its natural pace; the server
// combines tier models asynchronously, down-weighting tiers that update
// more often (inverse-frequency weighting) so fast tiers do not dominate.
#pragma once

#include "fl/client.h"
#include "fl/trainer_common.h"
#include "fl/types.h"
#include "net/event_queue.h"
#include "net/link.h"

namespace adafl::fl {

/// Configuration of one FedAT run.
struct FedAtConfig {
  int num_tiers = 3;
  double duration = 100.0;       ///< simulated seconds
  double eval_interval = 10.0;
  ClientTrainConfig client;
  std::vector<net::LinkConfig> links;  ///< empty = ideal network
  std::uint64_t seed = 1;
  /// Optional structured tracer: update_delivered per applied tier round
  /// (client field = tier id), round_end at each eval tick. Not owned.
  metrics::Tracer* tracer = nullptr;
};

/// Event-driven FedAT trainer.
class FedAtTrainer {
 public:
  FedAtTrainer(FedAtConfig cfg, nn::ModelFactory factory,
               const data::Dataset* train, data::Partition parts,
               const data::Dataset* test,
               std::vector<DeviceProfile> devices = {});

  TrainLog run();

  /// Tier id of each client (valid after construction).
  const std::vector<int>& tier_of() const { return tier_of_; }
  /// Per-tier completed rounds (valid after run()).
  const std::vector<std::int64_t>& tier_rounds() const { return tier_rounds_; }
  /// The global model (final after run()).
  const std::vector<float>& global() const { return global_; }

 private:
  void start_tier_round(int tier);
  void on_tier_arrival(int tier, std::vector<float> tier_delta, float loss);
  void rebuild_global();

  FedAtConfig cfg_;
  nn::ModelFactory factory_;
  std::vector<FlClient> clients_;
  Evaluator eval_;
  tensor::Rng rng_;
  ClientLinks links_;
  std::vector<float> global_;
  std::int64_t dense_bytes_;
  std::vector<int> tier_of_;
  std::vector<std::vector<int>> tiers_;   ///< client ids per tier
  std::vector<std::vector<float>> tier_model_;  ///< latest model per tier
  std::vector<std::int64_t> tier_rounds_;
  net::EventQueue queue_;

  /// Local results of the tier round being started, by member position;
  /// reused across tier rounds.
  std::vector<FlClient::LocalResult> results_;

  TrainLog* log_ = nullptr;
  EvalTicks ticks_;
};

}  // namespace adafl::fl
