#include "nn/conv1d.h"

#include "nn/init.h"

namespace adafl::nn {

namespace {

void require_signal(const Tensor& x, std::int64_t channels, const char* who) {
  ADAFL_CHECK_MSG(x.shape().rank() == 4 && x.shape()[2] == 1 &&
                      (channels < 0 || x.shape()[1] == channels),
                  who << ": expected [N, C, 1, L] signal, got "
                      << x.shape().to_string());
}

}  // namespace

Conv1d::Conv1d(std::int64_t in_c, std::int64_t out_c, std::int64_t kernel,
               Rng& rng, std::int64_t stride, std::int64_t pad)
    : in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      w_({out_c, in_c * kernel}),
      b_({out_c}),
      w_grad_({out_c, in_c * kernel}),
      b_grad_({out_c}) {
  ADAFL_CHECK_MSG(in_c > 0 && out_c > 0 && kernel > 0 && stride > 0 &&
                      pad >= 0,
                  "Conv1d: invalid geometry");
  kaiming_uniform(w_, in_c * kernel, rng);
}

const Tensor& Conv1d::forward(const Tensor& x, bool /*training*/,
                              Workspace& ws) {
  require_signal(x, in_c_, "Conv1d::forward");
  input_ = x;
  const std::int64_t n = x.shape()[0], len = x.shape()[3];
  const std::int64_t out_len = (len + 2 * pad_ - kernel_) / stride_ + 1;
  ADAFL_CHECK_MSG(len + 2 * pad_ >= kernel_ && out_len > 0,
                  "Conv1d: kernel longer than padded input");
  Tensor& y = ws.get({n, out_c_, 1, out_len});
  for (std::int64_t i = 0; i < n; ++i) {
    const float* xi = x.data() + i * in_c_ * len;
    float* yi = y.data() + i * out_c_ * out_len;
    for (std::int64_t oc = 0; oc < out_c_; ++oc) {
      const float* wk = w_.data() + oc * in_c_ * kernel_;
      for (std::int64_t t = 0; t < out_len; ++t) {
        double acc = b_[oc];
        const std::int64_t t0 = t * stride_ - pad_;
        for (std::int64_t c = 0; c < in_c_; ++c)
          for (std::int64_t k = 0; k < kernel_; ++k) {
            const std::int64_t pos = t0 + k;
            if (pos >= 0 && pos < len)
              acc += static_cast<double>(wk[c * kernel_ + k]) *
                     xi[c * len + pos];
          }
        yi[oc * out_len + t] = static_cast<float>(acc);
      }
    }
  }
  return y;
}

const Tensor& Conv1d::backward(const Tensor& grad_out, Workspace& ws) {
  ADAFL_CHECK_MSG(!input_.empty(), "Conv1d::backward before forward");
  // dx accumulates via scatter, so it relies on ws.get()'s zero-fill.
  Tensor& dx = ws.get(input_.shape());
  accumulate_grads(grad_out, &dx);
  return dx;
}

void Conv1d::backward_params(const Tensor& grad_out, Workspace& /*ws*/) {
  ADAFL_CHECK_MSG(!input_.empty(), "Conv1d::backward before forward");
  accumulate_grads(grad_out, nullptr);
}

void Conv1d::accumulate_grads(const Tensor& grad_out, Tensor* dx) {
  const std::int64_t n = input_.shape()[0], len = input_.shape()[3];
  const std::int64_t out_len = (len + 2 * pad_ - kernel_) / stride_ + 1;
  ADAFL_CHECK(grad_out.shape() == Shape({n, out_c_, 1, out_len}));
  for (std::int64_t i = 0; i < n; ++i) {
    const float* xi = input_.data() + i * in_c_ * len;
    const float* dyi = grad_out.data() + i * out_c_ * out_len;
    float* dxi = dx != nullptr ? dx->data() + i * in_c_ * len : nullptr;
    for (std::int64_t oc = 0; oc < out_c_; ++oc) {
      const float* wk = w_.data() + oc * in_c_ * kernel_;
      float* dwk = w_grad_.data() + oc * in_c_ * kernel_;
      for (std::int64_t t = 0; t < out_len; ++t) {
        const float dy = dyi[oc * out_len + t];
        if (dy == 0.0f) continue;
        b_grad_[oc] += dy;
        const std::int64_t t0 = t * stride_ - pad_;
        for (std::int64_t c = 0; c < in_c_; ++c)
          for (std::int64_t k = 0; k < kernel_; ++k) {
            const std::int64_t pos = t0 + k;
            if (pos >= 0 && pos < len) {
              dwk[c * kernel_ + k] += dy * xi[c * len + pos];
              if (dxi != nullptr)
                dxi[c * len + pos] += dy * wk[c * kernel_ + k];
            }
          }
      }
    }
  }
}

void Conv1d::collect_params(std::vector<ParamRef>& out) {
  out.push_back({&w_, &w_grad_});
  out.push_back({&b_, &b_grad_});
}

std::string Conv1d::name() const {
  return "Conv1d(" + std::to_string(in_c_) + "->" + std::to_string(out_c_) +
         ",k" + std::to_string(kernel_) + ")";
}

MaxPool1d::MaxPool1d(std::int64_t window, std::int64_t stride)
    : window_(window), stride_(stride == 0 ? window : stride) {
  ADAFL_CHECK_MSG(window_ > 0 && stride_ > 0, "MaxPool1d: invalid geometry");
}

const Tensor& MaxPool1d::forward(const Tensor& x, bool /*training*/,
                                 Workspace& ws) {
  require_signal(x, -1, "MaxPool1d::forward");
  in_shape_ = x.shape();
  const std::int64_t n = x.shape()[0], c = x.shape()[1], len = x.shape()[3];
  ADAFL_CHECK_MSG(len >= window_, "MaxPool1d: window longer than signal");
  const std::int64_t out_len = (len - window_) / stride_ + 1;
  Tensor& y = ws.get({n, c, 1, out_len});
  argmax_.assign(static_cast<std::size_t>(n * c * out_len), 0);
  std::int64_t oidx = 0;
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* row = x.data() + (i * c + ch) * len;
      for (std::int64_t t = 0; t < out_len; ++t) {
        const std::int64_t t0 = t * stride_;
        std::int64_t best = t0;
        for (std::int64_t k = 1; k < window_; ++k)
          if (row[t0 + k] > row[best]) best = t0 + k;
        y[oidx] = row[best];
        argmax_[static_cast<std::size_t>(oidx)] = (i * c + ch) * len + best;
        ++oidx;
      }
    }
  return y;
}

const Tensor& MaxPool1d::backward(const Tensor& grad_out, Workspace& ws) {
  ADAFL_CHECK_MSG(in_shape_.rank() == 4, "MaxPool1d::backward before forward");
  ADAFL_CHECK(grad_out.size() == static_cast<std::int64_t>(argmax_.size()));
  Tensor& dx = ws.get(in_shape_);
  for (std::size_t k = 0; k < argmax_.size(); ++k)
    dx[argmax_[k]] += grad_out[static_cast<std::int64_t>(k)];
  return dx;
}

std::string MaxPool1d::name() const {
  return "MaxPool1d(" + std::to_string(window_) + ")";
}

}  // namespace adafl::nn
