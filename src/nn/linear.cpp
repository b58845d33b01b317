#include "nn/linear.h"

#include "nn/init.h"
#include "tensor/ops.h"

namespace adafl::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      w_({out_features, in_features}),
      b_({out_features}),
      w_grad_({out_features, in_features}),
      b_grad_({out_features}) {
  ADAFL_CHECK_MSG(in_features > 0 && out_features > 0,
                  "Linear: features must be positive");
  kaiming_uniform(w_, in_features, rng);
}

const Tensor& Linear::forward(const Tensor& x, bool /*training*/,
                              Workspace& ws) {
  ADAFL_CHECK_MSG(x.shape().rank() == 2 && x.shape()[1] == in_,
                  "Linear::forward: input " << x.shape().to_string()
                                            << " expected [N, " << in_ << "]");
  input_ = x;
  // y = x * W^T + b
  const std::int64_t n = x.shape()[0];
  Tensor& y = ws.get({n, out_});
  tensor::matmul_nt_into(x, w_, y);
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = 0; j < out_; ++j) y[i * out_ + j] += b_[j];
  return y;
}

const Tensor& Linear::backward(const Tensor& grad_out, Workspace& ws) {
  backward_params(grad_out, ws);
  // dX = dY * W
  Tensor& dx = ws.get({grad_out.shape()[0], in_});
  tensor::matmul_into(grad_out, w_, dx);
  return dx;
}

void Linear::backward_params(const Tensor& grad_out, Workspace& ws) {
  ADAFL_CHECK_MSG(!input_.empty(), "Linear::backward before forward");
  ADAFL_CHECK(grad_out.shape().rank() == 2 && grad_out.shape()[1] == out_);
  // dW = dY^T * X, accumulated.
  Tensor& dw = ws.get(w_.shape());
  tensor::matmul_tn_into(grad_out, input_, dw);
  w_grad_ += dw;
  const std::int64_t n = grad_out.shape()[0];
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = 0; j < out_; ++j)
      b_grad_[j] += grad_out[i * out_ + j];
}

void Linear::collect_params(std::vector<ParamRef>& out) {
  out.push_back({&w_, &w_grad_});
  out.push_back({&b_, &b_grad_});
}

std::string Linear::name() const {
  return "Linear(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

}  // namespace adafl::nn
