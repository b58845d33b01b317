// Layer abstraction: explicit forward/backward with cached activations.
//
// adafl deliberately uses layer-local backprop instead of a tape-based
// autograd: the FL algorithms in this repo only ever need whole-model
// gradients of feed-forward networks, and explicit backward passes keep the
// numerical semantics exact and testable.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace adafl::nn {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;
using tensor::Workspace;

/// Non-owning reference to one trainable parameter and its gradient buffer.
/// Both tensors are owned by the layer and share a shape.
struct ParamRef {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Base class for all layers. A layer owns its parameters and the
/// activations cached between forward() and backward(); outputs and input
/// gradients live in the caller's Workspace, so steady-state training
/// allocates nothing.
///
/// Contract: backward(grad_out) or backward_params(grad_out) may only be
/// called after forward() on the same input batch, and accumulates into the
/// parameter gradients (callers zero them via zero_grad()). The returned
/// references stay valid until the workspace is rewound past them; a layer
/// may also return a reference to its input or to an internal cache.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the layer output; `training` toggles train-only behaviour
  /// (e.g. dropout). Output storage is drawn from `ws`.
  virtual const Tensor& forward(const Tensor& x, bool training,
                                Workspace& ws) = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput (storage drawn from `ws`). A model's first layer with
  /// parameters runs backward_params() instead, which skips dLoss/dInput.
  virtual const Tensor& backward(const Tensor& grad_out, Workspace& ws) = 0;

  /// The params-only entry: accumulates exactly the parameter gradients
  /// backward() would, bit for bit, and need not compute dLoss/dInput.
  /// Default: backward(), its input gradient discarded.
  virtual void backward_params(const Tensor& grad_out, Workspace& ws) {
    (void)backward(grad_out, ws);
  }

  /// Allocating convenience wrappers over the workspace virtuals: run the
  /// layer against a lazily-created private workspace and return a copy of
  /// the result. Bitwise identical to the workspace path (same loops, same
  /// zero-filled output). Derived classes re-expose these with
  /// `using Layer::forward; using Layer::backward;`.
  Tensor forward(const Tensor& x, bool training = false);
  Tensor backward(const Tensor& grad_out);

  /// Appends references to this layer's parameters (default: none).
  virtual void collect_params(std::vector<ParamRef>& out) { (void)out; }

  /// Short diagnostic name, e.g. "Conv2d(1->20,k5)".
  virtual std::string name() const = 0;

 private:
  std::unique_ptr<Workspace> compat_ws_;  ///< backs the allocating wrappers
};

}  // namespace adafl::nn
