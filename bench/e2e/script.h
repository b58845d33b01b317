// Workload shapes, the decomposed AdaFL loop, and replay scripts.
//
// The decomposed loop makes the same calls in the same order as
// AdaFlSyncTrainer::run (train every client, score, plan, compress the
// selected, accumulate the rest, apply), one layer call at a time, so each
// call can be timed and its inputs recorded. Deployed workloads run it
// first to record a Script — every client's SCORE and every selected
// client's UPDATE bytes per round — and then replay those bytes into the
// real ServerSession, so a deployed round costs the server's work alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cli/task.h"
#include "common.h"
#include "compress/dgc.h"
#include "core/adafl_server.h"
#include "fl/client.h"
#include "net/transport/udp.h"
#include "spans.h"

namespace adafl::bench {

/// Everything a workload's inputs are made from.
struct Shape {
  std::string workload;
  cli::TaskSpec spec;
  fl::ClientTrainConfig client;
  core::AdaFlParams params;
  /// kWarmRounds + timed rounds.
  int rounds = 0;
  /// Rounds the script records; later rounds replay its post-warm-up
  /// rounds cyclically (see Script::source_round).
  int script_rounds = 0;
};

/// Builds the workload's shape. The number of timed rounds is
/// ceil(seconds / reference round time), so a run does a fixed amount of
/// work whatever the build's speed (1 timed round with --smoke).
Shape make_shape(const Options& opt);

/// Recorded client behaviour of a deployed workload.
struct Script {
  struct Round {
    std::vector<double> scores;      ///< SCORE of every client
    std::vector<int> selected;       ///< plan order
    std::vector<double> ratios;      ///< aligned with `selected`
    std::vector<int> slot;           ///< client -> index in selected, or -1
    /// Encoded UPDATE payload per client; empty unless selected.
    std::vector<std::vector<std::uint8_t>> updates;
  };
  int clients = 0;
  /// AdaFL warm-up rounds (every client selected); never replayed cyclically.
  int warmup_rounds = 0;
  std::vector<Round> rounds;
  /// weights-crc32 of the decomposed loop after the last recorded round.
  std::uint32_t final_crc = 0;

  /// Script round replayed at session round `r` (1-based): r itself while
  /// recorded, then the post-warm-up rounds in a cycle.
  int source_round(int r) const;
  const Round& at(int r) const {
    return rounds[static_cast<std::size_t>(source_round(r) - 1)];
  }
  std::size_t bytes() const;
};

/// The decomposed AdaFL loop over a task.
class DecomposedLoop {
 public:
  /// `parallel_clients`: train/compress clients concurrently on the pool
  /// (bitwise identical; used to record scripts quickly). Otherwise clients
  /// run one after another exactly like the trainer.
  DecomposedLoop(const Shape& shape, const cli::TaskBundle& task,
                 bool parallel_clients);

  /// Runs round `r`; appends it to `script` when non-null, and records one
  /// span per layer call into `spans` when non-null (`eval` also evaluates
  /// the test set, as the trainer does every round).
  void round(int r, Script* script, SpanLog* spans, bool eval);

  const std::vector<float>& global() const { return core_.global(); }

 private:
  const Shape& shape_;
  const cli::TaskBundle& task_;
  bool parallel_;
  std::vector<fl::FlClient> clients_;
  std::vector<compress::DgcCompressor> compressors_;
  nn::Model eval_model_;
  nn::Batch eval_batch_;
  core::AdaFlServerCore core_;
  std::vector<fl::FlClient::LocalResult> results_;
  std::vector<core::AdaFlDelivery> slots_;
  std::vector<char> delivered_;
  std::vector<char> is_selected_;
  std::vector<double> scores_;
};

/// Records `shape.script_rounds` rounds with a client-parallel loop; with
/// `spans`, one span per layer call of each recorded round.
Script record_script(const Shape& shape, const cli::TaskBundle& task,
                     SpanLog* spans);

/// lossy_udp's FEC shape: RS(8+8) over 1200-byte shards, as in
/// scripts/loss_sweep.sh.
net::transport::UdpFecConfig lossy_fec();
/// i.i.d. datagram loss of lossy_udp's client->server links, and of the
/// FEC reassembly replay on every workload.
inline constexpr double kDatagramLoss = 0.10;

/// Mixes a seed with a stream index (splitmix64 finaliser).
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

/// Per-round costs of the layer calls a round makes, measured by replaying
/// them single-threaded on the workload's recorded inputs. Every workload
/// gets every layer, so a layer it bypasses still reports what it would
/// cost on this workload's data.
struct LayerCosts {
  /// Rounds [first_round, rounds] are averaged (the timed ones).
  int first_round = 1;
  /// Non-null: also pass each averaged round's frames (MODEL, SCORE,
  /// SELECT/SKIP, UPDATE for every client) through a loopback transport
  /// timed into `link`, with its spans recorded here. For sim_cnn, which
  /// has no transport of its own.
  SpanLog* link_spans = nullptr;

  // Outputs: per-round sums over the averaged rounds, in milliseconds.
  int averaged_rounds = 0;
  double plan_ms = 0, apply_ms = 0, decode_ms = 0, eval_ms = 0;
  double model_encode_ms = 0, partial_sum_ms = 0, agg_codec_ms = 0;
  // Throughputs: bytes processed and seconds spent.
  double crc_bytes = 0, crc_s = 0, parse_bytes = 0, parse_s = 0;
  double frag_bytes = 0, frag_s = 0, reasm_bytes = 0, reasm_s = 0;
  int reasm_failures = 0;
  TransportCounters link;
};

/// Feeds rounds 1..`rounds` of the script into a fresh AdaFlServerCore —
/// exactly what the session's core sees — and returns the resulting
/// weights. Checks that every round's plan equals the script's and that the
/// state after the last recorded round matches the script's CRC; any
/// mismatch is reported through `r.fail`. With `costs` the layer calls are
/// also timed (evaluating `task.test` each round, like the session): MODEL
/// encode, CRC and parse, FEC fragmentation and reassembly of the MODEL
/// frame with kDatagramLoss of its datagrams dropped, plan, UPDATE decode,
/// the relay tier's group partials and UPDATE_AGG codec (groups of
/// agg_group, or one group of every client), apply and eval.
std::vector<float> reference_replay(const Shape& shape, const Script& script,
                                    const cli::TaskBundle& task, int rounds,
                                    Result& r, LayerCosts* costs);

/// Sets the frame, codec, fec rate and relay cost metrics from a replay.
void set_replay_metrics(Result& r, const LayerCosts& costs);

/// Sets the transport.* metrics from timed connections, per round.
void set_transport_metrics(Result& r, const TransportCounters& c,
                           double rounds);

}  // namespace adafl::bench
