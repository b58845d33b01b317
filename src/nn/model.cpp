#include "nn/model.h"

#include <algorithm>

namespace adafl::nn {

Model::Model(std::unique_ptr<Layer> net) : net_(std::move(net)) {
  ADAFL_CHECK_MSG(net_ != nullptr, "Model: null network");
  net_->collect_params(params_);
  for (const auto& p : params_) {
    ADAFL_CHECK(p.value != nullptr && p.grad != nullptr);
    ADAFL_CHECK(p.value->shape() == p.grad->shape());
    param_count_ += p.value->size();
  }
}

Tensor Model::forward(const Tensor& x, bool training) {
  const tensor::Workspace::Mark m = ws_.mark();
  Tensor out = net_->forward(x, training, ws_);
  ws_.rewind(m);
  return out;
}

float Model::compute_gradients(const Batch& batch) {
  ADAFL_CHECK_MSG(batch.size() > 0, "compute_gradients: empty batch");
  // Per-batch mark/rewind: all activations, the loss gradient and every
  // layer's input gradient live in ws_ and are recycled next batch.
  const tensor::Workspace::Mark m = ws_.mark();
  const Tensor& logits = net_->forward(batch.inputs, /*training=*/true, ws_);
  Tensor& grad = ws_.get(logits.shape());
  const float loss =
      softmax_cross_entropy_into(logits, batch.labels, grad, ws_);
  // Nothing reads the input gradient of the first layer with parameters,
  // so it is not computed.
  net_->backward_params(grad, ws_);
  ws_.rewind(m);
  return loss;
}

float Model::train_batch(const Batch& batch, Optimizer& opt) {
  zero_grad();
  const float loss = compute_gradients(batch);
  opt.step(params_);
  return loss;
}

std::int64_t Model::count_correct(const Batch& batch, std::int64_t begin,
                                  std::int64_t end) {
  ADAFL_CHECK_MSG(0 <= begin && begin <= end && end <= batch.size(),
                  "count_correct: range [" << begin << ", " << end
                                           << ") of " << batch.size());
  std::int64_t correct = 0;
  if (begin == end) return correct;
  const tensor::Shape& in = batch.inputs.shape();
  ADAFL_CHECK(in.rank() >= 2 && in[0] == batch.size());
  const std::int64_t sample = in.numel() / in[0];
  for (std::int64_t s0 = begin; s0 < end; s0 += kEvalChunk) {
    const std::int64_t len = std::min(kEvalChunk, end - s0);
    const tensor::Workspace::Mark m = ws_.mark();
    std::vector<std::int64_t> dims = in.dims();
    dims[0] = len;
    Tensor& x = ws_.get(tensor::Shape(dims));
    std::copy_n(batch.inputs.data() + s0 * sample, len * sample, x.data());
    const Tensor& logits = net_->forward(x, /*training=*/false, ws_);
    const std::int64_t c = logits.shape()[1];
    ADAFL_CHECK(logits.shape()[0] == len);
    for (std::int64_t i = 0; i < len; ++i) {
      const float* row = logits.data() + i * c;
      std::int64_t best = 0;
      for (std::int64_t j = 1; j < c; ++j)
        if (row[j] > row[best]) best = j;
      if (best == batch.labels[static_cast<std::size_t>(s0 + i)]) ++correct;
    }
    ws_.rewind(m);
  }
  return correct;
}

double Model::accuracy(const Batch& batch) {
  ADAFL_CHECK_MSG(batch.size() > 0, "accuracy: empty batch");
  return static_cast<double>(count_correct(batch, 0, batch.size())) /
         static_cast<double>(batch.size());
}

void Model::zero_grad() {
  for (const auto& p : params_) p.grad->fill(0.0f);
}

std::vector<float> Model::get_flat() const {
  std::vector<float> out;
  get_flat_into(out);
  return out;
}

void Model::get_flat_into(std::vector<float>& out) const {
  out.resize(static_cast<std::size_t>(param_count_));
  std::size_t off = 0;
  for (const auto& p : params_) {
    const auto v = p.value->flat();
    std::copy(v.begin(), v.end(), out.begin() + static_cast<std::ptrdiff_t>(off));
    off += v.size();
  }
}

void Model::set_flat(std::span<const float> flat) {
  ADAFL_CHECK_MSG(static_cast<std::int64_t>(flat.size()) == param_count_,
                  "set_flat: length " << flat.size() << " vs param_count "
                                      << param_count_);
  std::size_t off = 0;
  for (const auto& p : params_) {
    auto v = p.value->flat();
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(off),
              flat.begin() + static_cast<std::ptrdiff_t>(off + v.size()),
              v.begin());
    off += v.size();
  }
}

std::vector<float> Model::get_flat_grad() const {
  std::vector<float> out(static_cast<std::size_t>(param_count_));
  std::size_t off = 0;
  for (const auto& p : params_) {
    const auto g = p.grad->flat();
    std::copy(g.begin(), g.end(), out.begin() + static_cast<std::ptrdiff_t>(off));
    off += g.size();
  }
  return out;
}

void Model::add_flat(std::span<const float> delta, float alpha) {
  ADAFL_CHECK_MSG(static_cast<std::int64_t>(delta.size()) == param_count_,
                  "add_flat: length " << delta.size() << " vs param_count "
                                      << param_count_);
  std::size_t off = 0;
  for (const auto& p : params_) {
    auto v = p.value->flat();
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] += alpha * delta[off + i];
    off += v.size();
  }
}

}  // namespace adafl::nn
