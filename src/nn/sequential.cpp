#include "nn/sequential.h"

#include "nn/conv2d.h"
#include "tensor/ops.h"

namespace adafl::nn {

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  ADAFL_CHECK_MSG(layer != nullptr, "Sequential::add: null layer");
  if (first_param_ == layers_.size()) {
    std::vector<ParamRef> params;
    layer->collect_params(params);
    if (params.empty()) ++first_param_;
  }
  layers_.push_back(std::move(layer));
  return *this;
}

const Tensor& Sequential::forward(const Tensor& x, bool training,
                                  Workspace& ws) {
  const Tensor* cur = &x;
  for (auto& l : layers_) cur = &l->forward(*cur, training, ws);
  return *cur;
}

const Tensor& Sequential::backward(const Tensor& grad_out, Workspace& ws) {
  const Tensor* cur = &grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    cur = &(*it)->backward(*cur, ws);
  return *cur;
}

void Sequential::backward_params(const Tensor& grad_out, Workspace& ws) {
  if (first_param_ == layers_.size()) return;  // no parameters at all
  const Tensor* cur = &grad_out;
  for (std::size_t i = layers_.size() - 1; i > first_param_; --i)
    cur = &layers_[i]->backward(*cur, ws);
  layers_[first_param_]->backward_params(*cur, ws);
}

void Sequential::collect_params(std::vector<ParamRef>& out) {
  for (auto& l : layers_) l->collect_params(out);
}

std::string Sequential::name() const {
  std::string s = "Sequential[";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i) s += ", ";
    s += layers_[i]->name();
  }
  return s + "]";
}

ResidualBlock::ResidualBlock(std::unique_ptr<Layer> body, std::int64_t in_c,
                             std::int64_t out_c, std::int64_t stride,
                             Rng& rng)
    : body_(std::move(body)) {
  ADAFL_CHECK_MSG(body_ != nullptr, "ResidualBlock: null body");
  if (in_c != out_c || stride != 1)
    projection_ = std::make_unique<Conv2d>(in_c, out_c, /*kernel=*/1, rng,
                                           stride, /*pad=*/0);
}

const Tensor& ResidualBlock::forward(const Tensor& x, bool training,
                                     Workspace& ws) {
  const Tensor& f = body_->forward(x, training, ws);
  const Tensor& skip = projection_ ? projection_->forward(x, training, ws) : x;
  ADAFL_CHECK_MSG(f.shape() == skip.shape(),
                  "ResidualBlock: body output " << f.shape().to_string()
                                                << " vs skip "
                                                << skip.shape().to_string());
  Tensor& out = ws.get(f.shape());
  tensor::add_into(f, skip, out);
  relu_mask_.resize(out.shape());
  // In-place relu over the sum (relu_into tolerates out aliasing its input).
  tensor::relu_into(out, out, relu_mask_);
  return out;
}

const Tensor& ResidualBlock::backward(const Tensor& grad_out, Workspace& ws) {
  ADAFL_CHECK_MSG(!relu_mask_.empty(), "ResidualBlock::backward before forward");
  ADAFL_CHECK(grad_out.shape() == relu_mask_.shape());
  Tensor& g = ws.get(grad_out.shape());
  tensor::mul_into(grad_out, relu_mask_, g);
  const Tensor& dx_body = body_->backward(g, ws);
  const Tensor& dx_skip = projection_ ? projection_->backward(g, ws) : g;
  Tensor& dx = ws.get(dx_body.shape());
  tensor::add_into(dx_body, dx_skip, dx);
  return dx;
}

void ResidualBlock::collect_params(std::vector<ParamRef>& out) {
  body_->collect_params(out);
  if (projection_) projection_->collect_params(out);
}

}  // namespace adafl::nn
