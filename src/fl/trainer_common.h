// What the simulated trainers share: the dense message size, the client
// links, the evaluate-and-record step (ServerSession's too), the periodic
// evaluation of the event-driven trainers, and the run state the
// round-synchronous trainers checkpoint.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/server_checkpoint.h"
#include "fl/client.h"
#include "fl/types.h"
#include "net/event_queue.h"
#include "net/link.h"

namespace adafl::metrics {
class Tracer;
}

namespace adafl::fl {

/// Wire size of one dense model transfer of `params` weights: an 8-byte
/// message header plus 4 bytes per weight.
inline std::int64_t dense_update_bytes(std::size_t params) {
  return 8 + 4 * static_cast<std::int64_t>(params);
}

/// Each client's simulated link; with no link configs, an ideal network on
/// which every transfer takes no time and arrives. Link i draws from fork
/// i + 1 of rng.fork(salt), taken even for an ideal network, so `rng`
/// advances the same either way.
class ClientLinks {
 public:
  /// `configs` holds 0 or `clients` entries; `who` names the trainer in the
  /// error.
  ClientLinks(const std::vector<net::LinkConfig>& configs, std::size_t clients,
              tensor::Rng& rng, std::uint64_t salt, const char* who);

  bool ideal() const { return links_.empty(); }
  net::TransferResult download(int id, std::int64_t bytes, double now) {
    return ideal() ? net::TransferResult{} : at(id).download(bytes, now);
  }
  net::TransferResult upload(int id, std::int64_t bytes, double now) {
    return ideal() ? net::TransferResult{} : at(id).upload(bytes, now);
  }
  /// Client `id`'s up and down bandwidths at `now`; `ideal_bw` for both on
  /// an ideal network.
  std::pair<double, double> bandwidths(int id, double now,
                                       double ideal_bw) const {
    if (ideal()) return {ideal_bw, ideal_bw};
    const net::Link& l = links_[static_cast<std::size_t>(id)];
    return {l.up_bandwidth(now), l.down_bandwidth(now)};
  }

  /// Each link's RNG state, as a checkpoint holds it.
  std::vector<tensor::RngState> rng_states() const;
  void set_rng_states(const std::vector<tensor::RngState>& states);

 private:
  net::Link& at(int id) { return links_[static_cast<std::size_t>(id)]; }

  std::vector<net::Link> links_;
};

/// Evaluates global models on the test set, materialised on first use and
/// reused by every later evaluation. EvalTicks' events hold its address.
///
/// The test batch is scored in nn::Model::kEvalChunk-sample chunks, and the
/// pool's lanes take contiguous runs of chunks, each lane on a model of its
/// own. A sample's logits do not depend on its chunk or lane, so accuracy
/// has the same bits at every thread count.
class Evaluator {
 public:
  /// Builds one model from `factory` now and one per further pool lane at
  /// the first evaluation. `test` may be null: every record then carries
  /// accuracy 0.
  Evaluator(const nn::ModelFactory& factory, const data::Dataset* test);
  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  /// The first lane's weights; before any record, the run's initial global
  /// model.
  std::vector<float> weights() const { return lanes_.front().get_flat(); }

  /// Ends round `round` (or an evaluation tick) at `time`, after which
  /// `participants` updates with training losses summing to `loss_sum` were
  /// applied: records the test accuracy of `global` into `log` when
  /// `evaluate`, then traces a round_end and flushes the trace (the round's
  /// durability point) when `tracer` is enabled.
  void end_round(TrainLog& log, std::span<const float> global, int round,
                 double time, int participants, double loss_sum,
                 bool evaluate, metrics::Tracer* tracer);

 private:
  /// Correct predictions of `global` on the test batch, its chunks split
  /// across the pool's lanes.
  std::int64_t count_correct(std::span<const float> global);

  nn::ModelFactory factory_;
  std::vector<nn::Model> lanes_;  ///< indexed by parallel chunk
  std::vector<std::int64_t> lane_correct_;
  const data::Dataset* test_;
  nn::Batch batch_;
};

/// The event loop and periodic evaluation of an event-driven run
/// (AsyncTrainer, AdaFlAsyncTrainer, FedAtTrainer). It counts and traces the
/// updates applied to the global model; each tick evaluates the model with
/// the updates applied since the previous tick.
class EvalTicks {
 public:
  EvalTicks() = default;
  EvalTicks(const EvalTicks&) = delete;  // its queued ticks hold `this`
  EvalTicks& operator=(const EvalTicks&) = delete;

  /// Zeroes the counts, starts actor i of `actors` at a time drawn from
  /// `rng` in [0, 0.01) in actor order, ticks at every multiple of
  /// `interval`, and runs `queue` to `duration`. Fills the run's simulated
  /// time and applied updates into `log`. Events are traced to `tracer`
  /// when it is enabled.
  void run(net::EventQueue& queue, tensor::Rng& rng, int actors,
           const std::function<void(int)>& start, double interval,
           double duration, Evaluator& eval, const std::vector<float>& global,
           TrainLog& log, metrics::Tracer* tracer);

  /// Counts one update applied to the global model and traces its
  /// update_delivered: `client` sent `bytes`, trained to loss `loss`.
  void count(int client, std::int64_t bytes, double loss);

  /// Updates applied since the run started.
  int applied() const { return applied_; }

 private:
  metrics::Tracer* tracer_ = nullptr;
  int applied_ = 0;
  int since_tick_ = 0;
  double loss_sum_ = 0.0;
};

// --- Crash recovery of the round-synchronous trainers. -------------------

/// The checkpoint of the run state SyncTrainer and AdaFlSyncTrainer share:
/// meta (producer, rounds, seed, simulated clock), the server RNG, each
/// link's RNG, and each client's batch loader and SCAFFOLD control variate.
/// The trainer adds its server state.
core::ServerCheckpoint pack_sim_run(std::string producer, int next_round,
                                    int rounds, std::uint64_t seed,
                                    double clock, const tensor::Rng& rng,
                                    const ClientLinks& links,
                                    const std::vector<FlClient>& clients);

/// Restores what pack_sim_run saved from a checkpoint that
/// core::resume_checkpoint has checked against this run's.
void unpack_sim_run(core::ServerCheckpoint& ck, tensor::Rng& rng,
                    ClientLinks& links, std::vector<FlClient>& clients);

}  // namespace adafl::fl
