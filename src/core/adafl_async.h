// AdaFL asynchronous trainer: fully-asynchronous operation (the server
// updates the global model on every accepted gradient arrival) with
// client-side utility gating and adaptive DGC compression (paper §V
// "Under asynchronous context, AdaFL adapts fully asynchronous FL").
#pragma once

#include "compress/dgc.h"
#include "core/adafl_sync.h"  // AdaFlStats
#include "core/config.h"
#include "fl/async_trainer.h"

namespace adafl::core {

/// Configuration of one AdaFL asynchronous run.
struct AdaFlAsyncConfig {
  AdaFlParams params;
  double duration = 2000.0;
  int max_updates = 0;             ///< stop after this many accepted updates (0 = off)
  float alpha = 0.6f;              ///< staleness-aware mixing base
  float staleness_exponent = 0.5f;
  fl::ClientTrainConfig client;
  std::vector<net::LinkConfig> links;
  double eval_interval = 50.0;
  std::uint64_t seed = 1;
  fl::AsyncFaults faults;
  /// Optional structured tracer: update_delivered per accepted upload
  /// (bytes = compressed wire size), round_end at each eval tick. Not owned.
  metrics::Tracer* tracer = nullptr;
};

/// Event-driven AdaFL in the fully-asynchronous setting. Clients gate their
/// own uploads on the utility score (low-utility clients halt and wait for
/// the next global model instead of transmitting), and compress accepted
/// uploads at a score-dependent DGC ratio.
class AdaFlAsyncTrainer {
 public:
  AdaFlAsyncTrainer(AdaFlAsyncConfig cfg, nn::ModelFactory factory,
                    const data::Dataset* train, data::Partition parts,
                    const data::Dataset* test,
                    std::vector<fl::DeviceProfile> devices = {});

  fl::TrainLog run();

  const AdaFlStats& stats() const { return stats_; }
  const std::vector<float>& global() const { return global_; }

 private:
  void start_cycle(int client_id);
  void on_arrival(int client_id, compress::EncodedGradient msg,
                  double delta_norm, std::int64_t version_at_start,
                  float loss);

  AdaFlAsyncConfig cfg_;
  nn::ModelFactory factory_;
  std::vector<fl::FlClient> clients_;
  fl::Evaluator eval_;
  tensor::Rng rng_;
  fl::ClientLinks links_;
  std::vector<float> global_;
  std::vector<float> global_gradient_;
  std::vector<compress::DgcCompressor> compressors_;
  CompressionController controller_;
  std::int64_t version_ = 0;
  net::EventQueue queue_;
  AdaFlStats stats_;

  fl::TrainLog* log_ = nullptr;
  std::vector<int> consecutive_skips_;
  std::int64_t dense_bytes_ = 0;
  fl::EvalTicks ticks_;
};

}  // namespace adafl::core
