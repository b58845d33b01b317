// Sequential container and residual block.
#pragma once

#include <memory>

#include "nn/layer.h"

namespace adafl::nn {

/// Owns an ordered list of layers; forward applies them in order, backward
/// in reverse. backward_params stops at the first layer with parameters:
/// that layer runs its own backward_params, and the layers before it run
/// nothing.
class Sequential final : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining.
  Sequential& add(std::unique_ptr<Layer> layer);

  /// Constructs a layer in place: seq.emplace<Linear>(8, 4, rng).
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  using Layer::forward;
  using Layer::backward;
  const Tensor& forward(const Tensor& x, bool training,
                        Workspace& ws) override;
  const Tensor& backward(const Tensor& grad_out, Workspace& ws) override;
  void backward_params(const Tensor& grad_out, Workspace& ws) override;
  void collect_params(std::vector<ParamRef>& out) override;
  std::string name() const override;

  std::size_t size() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  /// Index of the first layer with parameters; size() while there is none.
  std::size_t first_param_ = 0;
};

/// Residual block: y = ReLU(F(x) + P(x)) where F is the owned body and P is
/// either identity (when shapes match) or a 1x1 projection conv. This is the
/// structural element that makes `make_resnet_lite` a faithful stand-in for
/// the paper's ResNet-50.
class ResidualBlock final : public Layer {
 public:
  /// `body` maps [N,in_c,H,W] -> [N,out_c,H/stride,W/stride]. If in_c !=
  /// out_c or stride != 1 a projection conv is added on the skip path.
  ResidualBlock(std::unique_ptr<Layer> body, std::int64_t in_c,
                std::int64_t out_c, std::int64_t stride, Rng& rng);

  using Layer::forward;
  using Layer::backward;
  const Tensor& forward(const Tensor& x, bool training,
                        Workspace& ws) override;
  const Tensor& backward(const Tensor& grad_out, Workspace& ws) override;
  void collect_params(std::vector<ParamRef>& out) override;
  std::string name() const override { return "ResidualBlock"; }

 private:
  std::unique_ptr<Layer> body_;
  std::unique_ptr<Layer> projection_;  ///< null for identity skip
  Tensor relu_mask_;
};

}  // namespace adafl::nn
