// 1-D convolution and pooling for time-series (e.g. wearable sensor)
// models. Signals are carried in the library's standard NCHW tensors with
// H = 1: [N, channels, 1, length].
#pragma once

#include "nn/layer.h"

namespace adafl::nn {

/// Temporal convolution over [N, in_c, 1, L] producing [N, out_c, 1, L'].
class Conv1d final : public Layer {
 public:
  Conv1d(std::int64_t in_c, std::int64_t out_c, std::int64_t kernel,
         Rng& rng, std::int64_t stride = 1, std::int64_t pad = 0);

  using Layer::forward;
  using Layer::backward;
  const Tensor& forward(const Tensor& x, bool training,
                        Workspace& ws) override;
  const Tensor& backward(const Tensor& grad_out, Workspace& ws) override;
  /// backward() without the input-gradient scatter.
  void backward_params(const Tensor& grad_out, Workspace& ws) override;
  void collect_params(std::vector<ParamRef>& out) override;
  std::string name() const override;

 private:
  /// Accumulates the parameter gradients, and dLoss/dInput into `dx` (a
  /// zero-filled tensor of the input's shape) unless it is null.
  void accumulate_grads(const Tensor& grad_out, Tensor* dx);

  std::int64_t in_c_, out_c_, kernel_, stride_, pad_;
  Tensor w_;       ///< [out_c, in_c * kernel]
  Tensor b_;       ///< [out_c]
  Tensor w_grad_, b_grad_;
  Tensor input_;
};

/// Temporal max pooling over [N, C, 1, L]; stride defaults to the window.
class MaxPool1d final : public Layer {
 public:
  explicit MaxPool1d(std::int64_t window, std::int64_t stride = 0);

  using Layer::forward;
  using Layer::backward;
  const Tensor& forward(const Tensor& x, bool training,
                        Workspace& ws) override;
  const Tensor& backward(const Tensor& grad_out, Workspace& ws) override;
  std::string name() const override;

 private:
  std::int64_t window_, stride_;
  Shape in_shape_;
  std::vector<std::int64_t> argmax_;
};

}  // namespace adafl::nn
