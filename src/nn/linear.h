// Fully-connected layer: y = x W^T + b.
#pragma once

#include "nn/layer.h"

namespace adafl::nn {

/// Linear layer over [N, in_features] inputs producing [N, out_features].
class Linear final : public Layer {
 public:
  /// Weights are Kaiming-uniform initialized from `rng`; bias is zero.
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  using Layer::forward;
  using Layer::backward;
  const Tensor& forward(const Tensor& x, bool training,
                        Workspace& ws) override;
  const Tensor& backward(const Tensor& grad_out, Workspace& ws) override;
  /// backward() without the dX GEMM.
  void backward_params(const Tensor& grad_out, Workspace& ws) override;
  void collect_params(std::vector<ParamRef>& out) override;
  std::string name() const override;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }

 private:
  std::int64_t in_ = 0, out_ = 0;
  Tensor w_;        ///< [out, in]
  Tensor b_;        ///< [out]
  Tensor w_grad_;   ///< [out, in]
  Tensor b_grad_;   ///< [out]
  Tensor input_;    ///< cached forward input [N, in]
};

}  // namespace adafl::nn
