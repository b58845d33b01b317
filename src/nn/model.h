// Model: a network + loss with flat parameter/gradient access.
//
// FL protocols exchange whole-model parameter vectors; Model provides the
// flat view (get_flat/set_flat/flat_grad) that src/fl and src/core operate
// on, plus batch-level train/eval helpers.
#pragma once

#include <functional>
#include <memory>

#include "nn/layer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace adafl::nn {

/// Batch of supervised examples: images [N, C, H, W] (or any rank-2+ input)
/// paired with N integer labels.
struct Batch {
  Tensor inputs;
  std::vector<std::int32_t> labels;

  std::int64_t size() const { return static_cast<std::int64_t>(labels.size()); }
};

/// Owns a network and exposes training primitives over it. Move-only.
class Model {
 public:
  explicit Model(std::unique_ptr<Layer> net);

  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Runs the network; `training` enables dropout etc.
  Tensor forward(const Tensor& x, bool training = false);

  /// Forward + loss + backward_params, leaving gradients in the parameters
  /// (accumulated on top of whatever is there); no input gradient is
  /// computed. Returns the mean batch loss.
  float compute_gradients(const Batch& batch);

  /// zero_grad + compute_gradients + optimizer step. Returns the batch loss.
  float train_batch(const Batch& batch, Optimizer& opt);

  /// Samples per evaluation chunk. A paper-CNN sample's activations take
  /// about 20 KB at 16x16 input (the first conv's output is 11.5 KB of it),
  /// so a chunk's stay in L2 where a whole test batch's would not.
  static constexpr std::int64_t kEvalChunk = 25;

  /// Correct predictions (argmax of logits) among samples [begin, end) of
  /// `batch`, evaluated kEvalChunk samples at a time from `begin`. Each
  /// sample's logits are the same bits whatever chunk it shares.
  std::int64_t count_correct(const Batch& batch, std::int64_t begin,
                             std::int64_t end);

  /// Fraction of `batch` classified correctly: count_correct over the
  /// whole batch.
  double accuracy(const Batch& batch);

  void zero_grad();

  std::span<const ParamRef> params() const { return params_; }

  /// Total number of scalar parameters.
  std::int64_t param_count() const { return param_count_; }

  /// Copies all parameters into a fresh flat vector (layer declaration order).
  std::vector<float> get_flat() const;

  /// get_flat into a caller-owned vector (resized to param_count(); reuses
  /// its capacity, so steady-state calls allocate nothing).
  void get_flat_into(std::vector<float>& out) const;

  /// Overwrites all parameters from `flat`; length must equal param_count().
  void set_flat(std::span<const float> flat);

  /// Copies all gradients into a fresh flat vector.
  std::vector<float> get_flat_grad() const;

  /// Adds `delta` (flat, length param_count()) scaled by `alpha` to the
  /// parameters: w += alpha * delta.
  void add_flat(std::span<const float> delta, float alpha);

  /// The model's workspace: activation/gradient storage reused across
  /// batches (compute_gradients marks and rewinds it per batch).
  tensor::Workspace& workspace() { return ws_; }

  /// The network, for callers that run its forward() and full backward()
  /// chain on a workspace of their own.
  Layer& net() { return *net_; }

 private:
  std::unique_ptr<Layer> net_;
  std::vector<ParamRef> params_;
  std::int64_t param_count_ = 0;
  tensor::Workspace ws_;
};

/// Factory producing independent, identically-architected models. Clients in
/// an FL run each build one and then load the global weights.
using ModelFactory = std::function<Model()>;

}  // namespace adafl::nn
