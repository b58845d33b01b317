// AdaFL synchronous trainer (paper §IV, Fig. 2): utility-scored adaptive
// node selection (Algorithm 1) + per-client adaptive DGC compression, on top
// of FedAvg-style weighted aggregation.
//
// The server-side round logic (selection, ratio assignment, aggregation)
// lives in core::AdaFlServerCore, shared with the deployed TCP path
// (net/transport/session.h); this class adds the simulated network, local
// training, and evaluation around it.
#pragma once

#include <atomic>
#include <functional>
#include <string>

#include "compress/dgc.h"
#include "core/adafl_server.h"
#include "core/config.h"
#include "fl/sync_trainer.h"
#include "fl/trainer_common.h"

namespace adafl::core {

/// Configuration of one AdaFL synchronous run.
struct AdaFlSyncConfig {
  AdaFlParams params;
  int rounds = 40;
  fl::ClientTrainConfig client;
  std::vector<net::LinkConfig> links;  ///< empty = ideal network
  int eval_every = 1;
  std::uint64_t seed = 1;

  // --- Crash recovery (core/server_checkpoint.h). -------------------------
  /// When non-empty, write a durable checkpoint here every
  /// `checkpoint_every` completed rounds (and when `stop` fires).
  std::string checkpoint_path;
  int checkpoint_every = 1;
  /// Resume from checkpoint_path instead of starting at round 1. A resumed
  /// run is bitwise identical to one that was never interrupted.
  bool resume = false;
  /// Optional early-stop flag, polled at round boundaries (signal-safe).
  const std::atomic<bool>* stop = nullptr;
  /// Test hook: runs after each round (and its cadence checkpoint, if any).
  std::function<void(int round)> on_round_end;

  /// Optional structured tracer (metrics/trace.h). The trainer forwards it
  /// to the shared server core and emits round_start/round_end/checkpoint/
  /// resume events; `t` fields carry the *simulated* clock, so same-seed
  /// traces are byte-identical. Not owned; must outlive run().
  metrics::Tracer* tracer = nullptr;
};

/// Runs AdaFL in the synchronous (top-k topology) setting.
class AdaFlSyncTrainer {
 public:
  AdaFlSyncTrainer(AdaFlSyncConfig cfg, nn::ModelFactory factory,
                   const data::Dataset* train, data::Partition parts,
                   const data::Dataset* test,
                   std::vector<fl::DeviceProfile> devices = {});

  fl::TrainLog run();

  const AdaFlStats& stats() const { return core_.stats(); }
  const std::vector<float>& global() const { return core_.global(); }

 private:
  AdaFlSyncConfig cfg_;
  nn::ModelFactory factory_;
  std::vector<fl::FlClient> clients_;
  fl::Evaluator eval_;
  tensor::Rng rng_;
  fl::ClientLinks links_;
  AdaFlServerCore core_;
  std::vector<compress::DgcCompressor> compressors_;

  // Per-client round buffers, reused across rounds: local results, delivery
  // slots (+ delivered flags, reset each round), scores, download+compute
  // times, and each client's position in the round's plan (-1 = skipped).
  // The parallel phases of run() write only their own client's entries.
  std::vector<fl::FlClient::LocalResult> results_;
  std::vector<AdaFlDelivery> delivery_slots_;
  std::vector<char> delivered_;
  std::vector<double> scores_;
  std::vector<double> down_plus_compute_;
  std::vector<int> plan_index_;
};

}  // namespace adafl::core
