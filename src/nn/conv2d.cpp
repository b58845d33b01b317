#include "nn/conv2d.h"

#include <algorithm>

#include "core/parallel.h"
#include "nn/init.h"

namespace adafl::nn {

using tensor::Conv2dGeom;

namespace {

// Output positions a block aims for: four 16-lane column tiles per GEMM
// row, so a layer with few positions per sample (the paper CNN's second
// conv has 4) stops paying a masked tile for every sample.
constexpr std::int64_t kBlockCols = 64;

// Cap on one block's column matrix (256 KB of floats), so im2col, the GEMM
// and the weight-gradient fold find it in cache.
constexpr std::int64_t kBlockFloats = 1 << 16;

std::size_t at(std::int64_t i) { return static_cast<std::size_t>(i); }

/// Reshapes a reused buffer only when its shape changes (a reshape
/// zero-fills).
void ensure_shape(Tensor& t, const tensor::Shape& shape) {
  if (t.shape() != shape) t.resize(shape);
}

}  // namespace

Conv2d::Conv2d(std::int64_t in_c, std::int64_t out_c, std::int64_t kernel,
               Rng& rng, std::int64_t stride, std::int64_t pad)
    : in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      w_({out_c, in_c * kernel * kernel}),
      b_({out_c}),
      w_grad_({out_c, in_c * kernel * kernel}),
      b_grad_({out_c}) {
  ADAFL_CHECK_MSG(in_c > 0 && out_c > 0 && kernel > 0 && stride > 0 && pad >= 0,
                  "Conv2d: invalid geometry");
  kaiming_uniform(w_, in_c * kernel * kernel, rng);
}

std::int64_t Conv2d::block_size(std::int64_t n) const {
  const std::int64_t p = geom_.out_h() * geom_.out_w();
  std::int64_t b = (kBlockCols + p - 1) / p;
  b = std::min(b, kBlockFloats / (in_c_ * kernel_ * kernel_ * p));
  // A nested region runs on one lane; otherwise every lane gets a block.
  const std::int64_t lanes =
      core::in_parallel_region() ? 1 : core::num_threads();
  b = std::min(b, (n + lanes - 1) / lanes);
  return std::max<std::int64_t>(b, 1);
}

const Tensor& Conv2d::forward(const Tensor& x, bool training, Workspace& ws) {
  ADAFL_CHECK_MSG(x.shape().rank() == 4 && x.shape()[1] == in_c_,
                  "Conv2d::forward: input " << x.shape().to_string());
  input_ = x;
  const std::int64_t n = x.shape()[0], h = x.shape()[2], w = x.shape()[3];
  geom_ = Conv2dGeom{in_c_, h, w, kernel_, stride_, pad_};
  const std::int64_t oh = geom_.out_h(), ow = geom_.out_w();
  ADAFL_CHECK_MSG(oh > 0 && ow > 0, "Conv2d: output would be empty for input "
                                        << x.shape().to_string());
  Tensor& out = ws.get({n, out_c_, oh, ow});
  const std::int64_t p = oh * ow;
  const std::int64_t rows = in_c_ * kernel_ * kernel_;
  block_ = block_size(n);
  const std::int64_t nblocks = (n + block_ - 1) / block_;
  cols_valid_ = training;
  // Training keeps every block's columns for backward(); eval passes draw
  // theirs from the per-chunk table.
  if (training && static_cast<std::int64_t>(cols_cache_.size()) < nblocks)
    cols_cache_.resize(at(nblocks));
  const auto nchunks = at(core::num_threads());
  if (chunk_cols_.size() < nchunks) chunk_cols_.resize(nchunks);
  if (chunk_out_.size() < nchunks) chunk_out_.resize(nchunks);
  const std::int64_t img = in_c_ * h * w;
  const std::int64_t oimg = out_c_ * p;
  // Blocks are independent: each writes its own samples' outputs (and cache
  // slot), so the batch splits across the pool with no ordering effects.
  core::parallel_for_blocked_indexed(
      0, nblocks, [&](std::int64_t chunk, std::int64_t bb, std::int64_t be) {
        for (std::int64_t blk = bb; blk < be; ++blk) {
          const std::int64_t s0 = blk * block_;
          const std::int64_t bs = std::min(block_, n - s0);
          Tensor& cols = training ? cols_cache_[at(blk)] : chunk_cols_[at(chunk)];
          ensure_shape(cols, {rows, bs * p});
          for (std::int64_t s = 0; s < bs; ++s)
            tensor::im2col(
                {x.data() + (s0 + s) * img, static_cast<std::size_t>(img)},
                geom_, cols, s * p);
          if (bs == 1) {
            // out arrives zero-filled from the workspace, so accumulating
            // the product then adding the bias in place matches the
            // historical "fresh product + bias" copy bit for bit.
            float* dst = out.data() + s0 * oimg;
            tensor::matmul_into(w_, cols,
                                {dst, static_cast<std::size_t>(oimg)});
            for (std::int64_t c = 0; c < out_c_; ++c) {
              const float bias = b_[c];
              for (std::int64_t q = 0; q < p; ++q) dst[c * p + q] += bias;
            }
            continue;
          }
          // The block's product is [out_c, bs*P] with sample s in columns
          // [s*P, (s+1)*P); each element is the same chain the one-sample
          // product computes, so scattering it plus the bias to NCHW gives
          // the same bits.
          Tensor& prod = chunk_out_[at(chunk)];
          prod.resize({out_c_, bs * p});
          tensor::matmul_into(w_, cols, prod);
          for (std::int64_t c = 0; c < out_c_; ++c) {
            const float bias = b_[c];
            const float* src = prod.data() + c * bs * p;
            for (std::int64_t s = 0; s < bs; ++s) {
              float* dst = out.data() + (s0 + s) * oimg + c * p;
              for (std::int64_t q = 0; q < p; ++q)
                dst[q] = src[s * p + q] + bias;
            }
          }
        }
      });
  return out;
}

const Tensor& Conv2d::backward(const Tensor& grad_out, Workspace& ws) {
  ADAFL_CHECK_MSG(!input_.empty(), "Conv2d::backward before forward");
  const std::int64_t n = input_.shape()[0];
  const std::int64_t oh = geom_.out_h(), ow = geom_.out_w();
  ADAFL_CHECK(grad_out.shape() ==
              tensor::Shape({n, out_c_, oh, ow}));
  Tensor& dx = ws.get(input_.shape());
  const std::int64_t p = oh * ow;
  const std::int64_t rows = in_c_ * kernel_ * kernel_;
  const std::int64_t img = geom_.in_c * geom_.in_h * geom_.in_w;
  const std::int64_t oimg = out_c_ * p;
  const std::int64_t nblocks = (n + block_ - 1) / block_;
  const bool cached = cols_valid_;
  if (static_cast<std::int64_t>(cols_cache_.size()) < nblocks)
    cols_cache_.resize(at(nblocks));
  if (static_cast<std::int64_t>(dy_blocks_.size()) < nblocks)
    dy_blocks_.resize(at(nblocks));
  const auto nchunks = at(core::num_threads());
  if (chunk_dcols_.size() < nchunks) chunk_dcols_.resize(nchunks);
  // Phase 1 (parallel): every block's dY laid side by side, its column
  // gradients W^T * dY, and col2im into its own samples of dx — all writes
  // disjoint per block. A forward that ran with training == false left no
  // columns, so they are rebuilt here into the cache.
  core::parallel_for_blocked_indexed(
      0, nblocks, [&](std::int64_t chunk, std::int64_t bb, std::int64_t be) {
        Tensor& dcols = chunk_dcols_[at(chunk)];
        for (std::int64_t blk = bb; blk < be; ++blk) {
          const std::int64_t s0 = blk * block_;
          const std::int64_t bs = std::min(block_, n - s0);
          Tensor& dy = dy_blocks_[at(blk)];
          ensure_shape(dy, {out_c_, bs * p});
          for (std::int64_t c = 0; c < out_c_; ++c)
            for (std::int64_t s = 0; s < bs; ++s)
              std::copy_n(grad_out.data() + (s0 + s) * oimg + c * p, p,
                          dy.data() + (c * bs + s) * p);
          if (!cached) {
            Tensor& cols = cols_cache_[at(blk)];
            ensure_shape(cols, {rows, bs * p});
            for (std::int64_t s = 0; s < bs; ++s)
              tensor::im2col({input_.data() + (s0 + s) * img,
                              static_cast<std::size_t>(img)},
                             geom_, cols, s * p);
          }
          // matmul_tn accumulates, so dcols is re-zeroed per block (a
          // capacity-reusing fill, not an allocation).
          dcols.resize({rows, bs * p});
          tensor::matmul_tn_into(w_, dy, dcols);
          for (std::int64_t s = 0; s < bs; ++s)
            tensor::col2im(
                dcols, geom_,
                {dx.data() + (s0 + s) * img, static_cast<std::size_t>(img)},
                s * p);
        }
      });
  cols_valid_ = true;
  // Phase 2: fold the per-sample weight contributions in sample order; the
  // fold splits the weight gradient across the pool and walks every block
  // per cell, so the result is bitwise identical at every thread count and
  // block size. The bias sums fold serially, in the same order.
  tensor::matmul_nt_fold_into({dy_blocks_.data(), at(nblocks)},
                              {cols_cache_.data(), at(nblocks)}, w_grad_, p);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t c = 0; c < out_c_; ++c) {
      const float* row = grad_out.data() + i * oimg + c * p;
      double acc = 0.0;
      for (std::int64_t q = 0; q < p; ++q) acc += row[q];
      b_grad_[c] += static_cast<float>(acc);
    }
  }
  return dx;
}

void Conv2d::collect_params(std::vector<ParamRef>& out) {
  out.push_back({&w_, &w_grad_});
  out.push_back({&b_, &b_grad_});
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(in_c_) + "->" + std::to_string(out_c_) +
         ",k" + std::to_string(kernel_) + ",s" + std::to_string(stride_) +
         ",p" + std::to_string(pad_) + ")";
}

}  // namespace adafl::nn
