// 2-D convolution over NCHW tensors via im2col + matmul.
#pragma once

#include "nn/layer.h"
#include "tensor/ops.h"

namespace adafl::nn {

/// Square-kernel 2-D convolution. Input [N, in_c, H, W], output
/// [N, out_c, out_h, out_w]. Weight layout is [out_c, in_c*k*k].
///
/// The batch runs in blocks of samples. One im2col pass lays a block's
/// columns side by side in a [in_c*k*k, samples*P] matrix (P = out_h*out_w),
/// and one GEMM per block gives its outputs (W * cols) and its column
/// gradients (W^T * dY). Every output element keeps its own ascending-k
/// chain, so outputs, input gradients and the bias gradient do not depend on
/// how the batch is blocked. The weight gradient folds each sample's
/// product in sample order (tensor::matmul_nt_fold_into), bit for bit the
/// per-sample product-then-add. So the block size follows speed alone.
class Conv2d final : public Layer {
 public:
  Conv2d(std::int64_t in_c, std::int64_t out_c, std::int64_t kernel,
         Rng& rng, std::int64_t stride = 1, std::int64_t pad = 0);

  using Layer::forward;
  using Layer::backward;
  const Tensor& forward(const Tensor& x, bool training,
                        Workspace& ws) override;
  const Tensor& backward(const Tensor& grad_out, Workspace& ws) override;
  /// backward() without W^T * dY and col2im.
  void backward_params(const Tensor& grad_out, Workspace& ws) override;
  void collect_params(std::vector<ParamRef>& out) override;
  std::string name() const override;

 private:
  /// The gradients of backward(); dx is drawn from `ws` and returned, or
  /// skipped (nullptr) when `ws` is null.
  Tensor* backward_into(const Tensor& grad_out, Workspace* ws);

  /// Samples per block for a batch of n, from the output positions per
  /// sample, a cache budget on the column block and the pool's lane count.
  std::int64_t block_size(std::int64_t n) const;

  std::int64_t in_c_ = 0, out_c_ = 0, kernel_ = 0, stride_ = 1, pad_ = 0;
  Tensor w_;       ///< [out_c, in_c*k*k]
  Tensor b_;       ///< [out_c]
  Tensor w_grad_;
  Tensor b_grad_;
  Tensor input_;   ///< cached [N, in_c, H, W]
  std::int64_t block_ = 1;  ///< samples per block of the last forward
  /// Column blocks of the last forward, one per block, so backward() skips
  /// the im2col recompute; valid only when forward() ran with training ==
  /// true (backward() rebuilds them otherwise). Memory cost: N * (in_c*k*k)
  /// * P floats, a few MB at most for this library's shapes. Grow-only:
  /// slots are reused across batches, never shrunk, so steady-state
  /// training touches no allocator.
  std::vector<Tensor> cols_cache_;
  bool cols_valid_ = false;  ///< cols_cache_ matches the last forward
  std::vector<Tensor> dy_blocks_;  ///< backward's dY per block, side by side
  /// Per-chunk scratch for the parallel regions, indexed by the chunk id of
  /// parallel_for_blocked_indexed (sized to num_threads() up front, grown
  /// lazily per chunk): eval-mode column blocks, forward GEMM blocks and
  /// backward column gradients.
  std::vector<Tensor> chunk_cols_;
  std::vector<Tensor> chunk_out_;
  std::vector<Tensor> chunk_dcols_;
  tensor::Conv2dGeom geom_;
};

}  // namespace adafl::nn
