// Synchronous FL driver: FedAvg, FedAdam, FedProx, SCAFFOLD, with client
// sampling, network simulation, and dropout / data-loss fault injection
// (paper §III empirical study and §V baselines).
#pragma once

#include <atomic>
#include <functional>
#include <string>

#include "fl/client.h"
#include "fl/trainer_common.h"
#include "fl/types.h"
#include "net/link.h"

namespace adafl::fl {

/// Fault model for the §III empirical study.
enum class FaultKind {
  kNone,
  /// Unreliable clients fail to deliver their update with probability 0.5
  /// per round (their contribution is simply missing).
  kDropout,
  /// Unreliable clients deliver only every other round, and what arrives
  /// was computed against the *previous* global model (stale straggler
  /// noise — the paper's harsher "data loss" condition).
  kDataLoss,
  /// Unreliable clients are adversarial: they deliver sign-flipped, 3x
  /// amplified deltas (a classic model-poisoning attack; pairs with the
  /// robust Aggregation options below).
  kByzantine,
};

/// Server-side aggregation rule over the delivered deltas.
enum class Aggregation {
  kWeightedMean,      ///< FedAvg: example-count weighted mean
  kTrimmedMean,       ///< per coordinate, drop the trim fraction at each end
  kCoordinateMedian,  ///< per coordinate median (unweighted)
};

struct SyncFaults {
  FaultKind kind = FaultKind::kNone;
  double unreliable_fraction = 0.0;  ///< first round(N*f) clients are unreliable
};

/// Configuration of one synchronous run.
struct SyncConfig {
  Algorithm algo = Algorithm::kFedAvg;
  int rounds = 40;
  double participation = 1.0;  ///< r_p: fraction of clients sampled per round
  /// FedAdam server optimizer (Reddi et al. adaptive-FL defaults, except
  /// beta1: server momentum mixes deltas from different client subsets and
  /// destabilized training at this scale, so it defaults off).
  float server_lr = 0.01f;
  float server_beta1 = 0.0f;
  float server_beta2 = 0.99f;
  float server_eps = 1e-3f;
  /// Aggregation rule; the robust rules defend against FaultKind::kByzantine.
  Aggregation aggregation = Aggregation::kWeightedMean;
  /// Fraction trimmed at EACH end for kTrimmedMean (0.2 = drop lowest 20%
  /// and highest 20% of each coordinate).
  double trim_fraction = 0.2;
  ClientTrainConfig client;
  SyncFaults faults;
  /// One link per client; empty = ideal network (zero transfer time).
  std::vector<net::LinkConfig> links;
  int eval_every = 1;
  std::uint64_t seed = 1;

  // --- Crash recovery (core/server_checkpoint.h). -------------------------
  /// When non-empty, write a durable checkpoint here every
  /// `checkpoint_every` completed rounds (and when `stop` fires), and allow
  /// `resume`. Not supported together with FaultKind::kDataLoss (its
  /// pending stale updates are not serialized).
  std::string checkpoint_path;
  int checkpoint_every = 1;
  /// Resume from checkpoint_path instead of starting at round 1.
  bool resume = false;
  /// Optional early-stop flag, polled at round boundaries (signal-safe).
  /// When it flips, the trainer checkpoints (if configured) and returns
  /// with TrainLog::interrupted set.
  const std::atomic<bool>* stop = nullptr;
  /// Test hook: runs after each round (and its cadence checkpoint, if any).
  std::function<void(int round)> on_round_end;
};

/// Runs a synchronous FL experiment and returns its TrainLog.
class SyncTrainer {
 public:
  /// `devices` is empty (all workstation()) or one per client.
  SyncTrainer(SyncConfig cfg, nn::ModelFactory factory,
              const data::Dataset* train, data::Partition parts,
              const data::Dataset* test,
              std::vector<DeviceProfile> devices = {});

  TrainLog run();

  /// Global model parameters (valid after run()).
  const std::vector<float>& global() const { return global_; }

 private:
  /// Applies cfg_.aggregation to the delivered per-client deltas
  /// (unweighted, as is standard for the robust estimators).
  std::vector<float> robust_aggregate(
      const std::vector<std::vector<float>>& deltas) const;

  SyncConfig cfg_;
  nn::ModelFactory factory_;
  std::vector<FlClient> clients_;
  Evaluator eval_;
  tensor::Rng rng_;
  ClientLinks links_;
  std::vector<float> global_;
};

}  // namespace adafl::fl
