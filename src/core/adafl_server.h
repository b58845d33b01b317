// Server-side AdaFL round state machine (paper Algorithm 1 + §IV server
// aggregation), factored out of the simulator so the simulated path
// (core/adafl_sync.cpp) and the deployed path (net/transport/session.h)
// execute the exact same selection, ratio assignment, aggregation order,
// and trust-region arithmetic — same seeds and inputs give bitwise
// identical global weights on both.
//
// A round is two calls:
//   plan  = core.plan_round(scores, present, round);  // selection + ratios
//   out   = core.apply_round(plan, deliveries);       // ordered aggregation
// `present` marks which clients reported a utility score this round; in the
// simulator that is everyone, in a deployment a crashed or partitioned
// client simply drops out of the mask and the round degrades gracefully.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "compress/codec.h"
#include "core/compression_ctrl.h"
#include "core/config.h"
#include "core/partial_agg.h"
#include "core/selection.h"

namespace adafl::metrics {
class Tracer;
}

namespace adafl::core {

struct ServerCheckpoint;

/// Seed salt for AdaFL client construction: every path that instantiates
/// clients for an AdaFL run (simulator, flclient, tests) must derive client
/// seeds from `run_seed ^ kAdaFlClientSeedSalt` so deployed clients train
/// bitwise identically to their simulated twins.
constexpr std::uint64_t kAdaFlClientSeedSalt = 0xADAF1ULL;

/// Aggregate statistics specific to AdaFL (used by Tables I/II columns).
struct AdaFlStats {
  std::int64_t selected_updates = 0;  ///< compressed uploads applied
  std::int64_t skipped_clients = 0;   ///< train-but-no-upload occurrences
  double min_ratio_used = 0.0;        ///< smallest compression ratio applied
  double max_ratio_used = 0.0;        ///< largest compression ratio applied
  double mean_selected_per_round = 0.0;
};

/// Output of the selection phase for one round.
struct AdaFlRoundPlan {
  int round = 0;
  bool warmup = false;
  SelectionResult sel;         ///< selected client ids, aggregation order
  std::vector<double> ratios;  ///< compression ratio per selected client
};

/// One client's delivered update (already decoded from the wire).
struct AdaFlDelivery {
  compress::EncodedGradient msg;  ///< kTopK sparse message
  std::int64_t num_examples = 0;  ///< FedAvg weight
  float mean_loss = 0.0f;
  /// L2 norm of the client's RAW (uncompressed) delta — the trust-region
  /// input. Clients report it with their update; the simulator computes it
  /// directly.
  double raw_delta_norm = 0.0;
  /// Hierarchical deployments: the client's coordinates travelled inside a
  /// relay's pre-summed UPDATE-AGG partial, so only the per-client metadata
  /// above is populated (msg carries wire_bytes for the trace but no
  /// indices/values). Requires agg_group > 0 and a wire partial covering
  /// the client's group.
  bool meta_only = false;
};

/// Result of applying one round.
struct AdaFlRoundOutcome {
  int delivered = 0;       ///< updates aggregated
  double loss_sum = 0.0;   ///< sum of delivered clients' mean losses
  bool applied = false;    ///< false when nothing was delivered
};

class AdaFlServerCore {
 public:
  /// `initial_global` is the factory-initialized model (round 0 weights).
  AdaFlServerCore(AdaFlParams params, std::vector<float> initial_global);

  /// Runs Algorithm 1 over the clients with present[i] == true.
  /// `scores[i]` must be a valid utility score in [0,1] wherever present[i]
  /// is set (other entries are ignored). Updates the selection/ratio stats.
  AdaFlRoundPlan plan_round(const std::vector<double>& scores,
                            const std::vector<bool>& present, int round);

  /// Aggregates the deliveries of `plan`'s selected clients (keyed by
  /// client id; missing ids were lost in transit) in selection order, then
  /// applies the trust-clipped FedAvg step to the global model.
  AdaFlRoundOutcome apply_round(const AdaFlRoundPlan& plan,
                                const std::map<int, AdaFlDelivery>& deliveries);

  /// apply_round with the deliveries behind a lookup: `find(id)` returns the
  /// client's delivery or nullptr if it was lost in transit. Lets callers
  /// keep deliveries in reused per-client slots instead of building a map
  /// every round; aggregation order and arithmetic are identical.
  AdaFlRoundOutcome apply_round(
      const AdaFlRoundPlan& plan,
      const std::function<const AdaFlDelivery*(int)>& find);

  /// Hierarchical variant: `wire_partial(base)` returns the relay-computed
  /// partial covering client-id group [base, base+agg_group), or nullptr to
  /// have the group's partial computed locally from the full deliveries.
  /// Requires params().agg_group > 0 when any wire partial is supplied; a
  /// group served by a wire partial must contain only meta-only deliveries
  /// and vice versa (CheckError otherwise).
  AdaFlRoundOutcome apply_round(
      const AdaFlRoundPlan& plan,
      const std::function<const AdaFlDelivery*(int)>& find,
      const std::function<const compress::EncodedGradient*(int)>&
          wire_partial);

  /// Complete serializable server-side round state for crash recovery.
  /// params/controller are pure functions of the config and are rebuilt from
  /// it, so restoring a State resumes plan/apply bitwise.
  struct State {
    std::vector<float> global;
    std::vector<float> g_hat;
    AdaFlStats stats;
    std::int64_t selected_sum = 0;
    int rounds_planned = 0;
  };
  State state() const {
    return {global_, g_hat_, stats_, selected_sum_, rounds_planned_};
  }
  /// Restores a state() snapshot. The dimensions must match this core's.
  void restore(State s);

  /// Attaches a structured tracer. Both the simulated and the deployed
  /// caller hand their tracer to the core, which is what makes the
  /// selection/ratio/delivery events of the two paths identical by
  /// construction: they are emitted from the same code in the same order
  /// (selection order, not arrival order). nullptr detaches.
  void set_tracer(metrics::Tracer* tracer) { tracer_ = tracer; }

  const std::vector<float>& global() const { return global_; }
  /// g_hat: the last aggregated update, the similarity reference for
  /// utility scoring (zeros until the first applied round).
  const std::vector<float>& g_hat() const { return g_hat_; }
  const AdaFlParams& params() const { return params_; }
  const CompressionController& controller() const { return controller_; }
  const AdaFlStats& stats() const { return stats_; }

 private:
  AdaFlParams params_;
  CompressionController controller_;
  std::vector<float> global_;
  std::vector<float> g_hat_;
  AdaFlStats stats_;
  std::int64_t selected_sum_ = 0;
  int rounds_planned_ = 0;
  std::vector<float> sum_delta_;  ///< per-round aggregation buffer, reused
  /// Deliveries of the current round in selection order; reused across
  /// rounds so the sharded aggregation allocates nothing in steady state.
  std::vector<const AdaFlDelivery*> delivered_ptrs_;
  /// Grouped-association (agg_group > 0) working state, reused per round.
  std::vector<std::pair<int, const AdaFlDelivery*>> delivered_by_id_;
  PartialAggregator partial_agg_;
  std::vector<compress::EncodedGradient> group_partials_;
  std::vector<const compress::EncodedGradient*> group_ptrs_;
  metrics::Tracer* tracer_ = nullptr;
};

/// Stores a state() snapshot in a server checkpoint: the weights in
/// `ck.global`, the rest in `ck.adafl`. This pair is the one mapping
/// between the core's state and the checkpoint's, for the simulator and the
/// deployed server alike.
void save_core_state(AdaFlServerCore::State st, ServerCheckpoint& ck);

/// The inverse of save_core_state: moves the state out of `ck.global` and
/// `ck.adafl` (CheckError if the checkpoint has no AdaFL section).
AdaFlServerCore::State take_core_state(ServerCheckpoint& ck);

}  // namespace adafl::core
