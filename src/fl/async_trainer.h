// Event-driven asynchronous FL: FedAsync (Xie et al.) and FedBuff (Nguyen
// et al.), with straggler (staleness) and dropout fault injection for the
// paper's §III async study.
#pragma once

#include <cmath>
#include <future>
#include <memory>

#include "fl/client.h"
#include "fl/trainer_common.h"
#include "fl/types.h"
#include "net/event_queue.h"
#include "net/link.h"

namespace adafl::fl {

/// Fault model for asynchronous runs.
struct AsyncFaults {
  double unreliable_fraction = 0.0;  ///< first round(N*f) clients affected
  /// > 1 slows unreliable clients' compute AND transfers by this factor —
  /// the paper's "3x slower" staleness condition.
  double straggler_slowdown = 1.0;
  /// Probability an unreliable client's upload is lost — the dropout
  /// condition.
  double dropout_prob = 0.0;

  /// Whether client `id` of `n` is in the unreliable prefix.
  bool unreliable(int id, std::size_t n) const {
    return id < static_cast<int>(
                    std::lround(static_cast<double>(n) * unreliable_fraction));
  }
  /// `seconds` of transfer, slowed down for an unreliable client.
  double stretch(double seconds, bool unreliable) const {
    return unreliable && straggler_slowdown > 1.0
               ? seconds * straggler_slowdown
               : seconds;
  }
  /// Whether an unreliable client's upload is dropped; draws from `rng`
  /// only when the dropout condition applies.
  bool drops(bool unreliable, tensor::Rng& rng) const {
    return unreliable && dropout_prob > 0.0 && rng.bernoulli(dropout_prob);
  }
  /// One device per client of `n`: `devices` (empty = all workstation())
  /// with the unreliable prefix slowed down. `who` names the trainer in the
  /// error.
  std::vector<DeviceProfile> devices_for(std::vector<DeviceProfile> devices,
                                         std::size_t n, const char* who) const;
};

/// Configuration of one asynchronous run. The run stops at `duration`
/// simulated seconds, or earlier once `max_updates` deliveries were applied
/// (0 = no cap).
struct AsyncConfig {
  AsyncAlgorithm algo = AsyncAlgorithm::kFedAsync;
  double duration = 2000.0;
  int max_updates = 0;
  float alpha = 0.6f;              ///< FedAsync base mixing weight
  float staleness_exponent = 0.5f; ///< poly-staleness a: alpha*(1+s)^-a
  int buffer_size = 5;             ///< FedBuff K
  float server_lr = 1.0f;          ///< FedBuff aggregate step
  ClientTrainConfig client;
  std::vector<net::LinkConfig> links;  ///< empty = ideal network
  double eval_interval = 50.0;
  std::uint64_t seed = 1;
  AsyncFaults faults;
  /// Optional structured tracer: update_delivered per applied update,
  /// round_end at each eval tick (t = simulated seconds). Not owned.
  metrics::Tracer* tracer = nullptr;
};

/// Runs an asynchronous FL experiment on a discrete-event simulator.
class AsyncTrainer {
 public:
  AsyncTrainer(AsyncConfig cfg, nn::ModelFactory factory,
               const data::Dataset* train, data::Partition parts,
               const data::Dataset* test,
               std::vector<DeviceProfile> devices = {});

  TrainLog run();

  const std::vector<float>& global() const { return global_; }

 private:
  /// One client's local training running on the thread pool. The task
  /// trains against a snapshot of the global model taken when the cycle
  /// started (exactly what the serial schedule trains on), and fills res /
  /// local; the future's completion publishes them to the main thread.
  struct PendingTrain {
    std::future<void> done;
    FlClient::LocalResult res;
    std::vector<float> local;          ///< snapshot - delta
    double predicted_seconds = 0.0;    ///< must match res.compute_seconds
  };

  void start_cycle(int client_id);
  void on_arrival(int client_id, std::vector<float> local,
                  std::vector<float> delta, std::int64_t version_at_start,
                  float loss);
  void apply_fedasync(std::span<const float> local, std::int64_t staleness);
  void apply_fedbuff(std::span<const float> delta, std::int64_t staleness);
  /// Blocks until client_id's in-flight training (if any) finished and
  /// returns it; the slot is cleared.
  std::unique_ptr<PendingTrain> take_training(int client_id);

  AsyncConfig cfg_;
  nn::ModelFactory factory_;
  std::vector<FlClient> clients_;
  Evaluator eval_;
  tensor::Rng rng_;
  ClientLinks links_;
  std::vector<float> global_;
  std::int64_t version_ = 0;
  net::EventQueue queue_;

  // Run-scoped accumulators (reset in run()).
  TrainLog* log_ = nullptr;
  std::int64_t dense_bytes_ = 0;
  EvalTicks ticks_;
  // FedBuff buffer.
  std::vector<float> buffer_sum_;
  int buffered_ = 0;
  // Per-client in-flight training tasks (at most one per client: a client's
  // next cycle starts only after its previous result was consumed).
  std::vector<std::unique_ptr<PendingTrain>> training_;
};

}  // namespace adafl::fl
