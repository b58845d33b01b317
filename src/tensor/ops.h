// Dense kernels shared by the nn/ layers: matmul, im2col/col2im, pooling,
// softmax. All tensors are row-major float32.
#pragma once

#include "tensor/tensor.h"

namespace adafl::tensor {

/// C[m,n] = A[m,k] * B[k,n]. Shapes are validated.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C[m,n] = A[k,m]^T * B[k,n] — A is consumed transposed (used in backward
/// passes; avoids materializing the transpose).
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// C[m,n] = A[m,k] * B[n,k]^T.
Tensor matmul_nt(const Tensor& a, const Tensor& b);

// ---- _into variants ----
// Each writes into caller-provided output storage whose shape must already
// match; the loop bodies are shared with the allocating wrappers above, so
// results are bitwise identical. matmul_into / matmul_tn_into ACCUMULATE
// into the output (the allocating forms start from a zero-initialized
// tensor), so the output must be zero-filled on entry — Workspace::get()
// and Tensor::resize() both hand it over that way. matmul_nt_into fully
// overwrites its output. The span overloads take a raw destination of
// exactly m*n floats (used for slices of a batched output tensor).

void matmul_into(const Tensor& a, const Tensor& b, Tensor& c);
void matmul_into(const Tensor& a, const Tensor& b, std::span<float> c);
void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& c);
void matmul_tn_into(const Tensor& a, const Tensor& b, std::span<float> c);
void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& c);
void matmul_nt_into(const Tensor& a, const Tensor& b, std::span<float> c);

/// C[m,n] += sum over s of A_s * B_s^T for A [m,k], B [n,k], where A_s and
/// B_s are the s-th k-segment of length `seg` (k a multiple of seg > 0),
/// added to C in segment order. Bitwise equal to matmul_nt_into of every
/// segment into a temporary followed by C += temporary, one segment after
/// another, on either backend — so per-sample weight gradients laid side by
/// side fold in sample order without a per-sample buffer.
void matmul_nt_fold_into(const Tensor& a, const Tensor& b, Tensor& c,
                         std::int64_t seg);

/// The same fold over a sequence of blocks a[i] [m, k_i], b[i] [n, k_i],
/// block after block, as if their columns sat side by side in one A and one
/// B. C is split across the pool in cells of rows and columns, and each
/// lane walks every block for its cells, so the result does not depend on
/// the thread count.
void matmul_nt_fold_into(std::span<const Tensor> a, std::span<const Tensor> b,
                         Tensor& c, std::int64_t seg);

// ---- Elementwise _into kernels (shapes must match exactly) ----

/// out[i] = a[i] + b[i].
void add_into(const Tensor& a, const Tensor& b, Tensor& out);
/// out[i] = a[i] * b[i] (Hadamard product).
void mul_into(const Tensor& a, const Tensor& b, Tensor& out);
/// out[i] = s * a[i].
void scale_into(const Tensor& a, float s, Tensor& out);
/// out[i] = max(a[i], 0); mask[i] = 1 if a[i] > 0 else 0.
void relu_into(const Tensor& a, Tensor& out, Tensor& mask);

/// Transpose of a rank-2 tensor.
Tensor transpose2d(const Tensor& a);

/// Geometry of a 2-D convolution / pooling window.
struct Conv2dGeom {
  std::int64_t in_c = 0, in_h = 0, in_w = 0;
  std::int64_t kernel = 1;   ///< square kernel size
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  std::int64_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::int64_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
};

/// im2col for one image: input [C,H,W] -> its out_h*out_w columns, written
/// at columns [col0, col0 + out_h*out_w) of `cols` [C*k*k, width]. A block
/// of images shares one column matrix, image i at col0 = i*out_h*out_w;
/// width == out_h*out_w and col0 == 0 is the single-image matrix.
void im2col(std::span<const float> image, const Conv2dGeom& g, Tensor& cols,
            std::int64_t col0 = 0);

/// col2im: scatters the gradient columns [col0, col0 + out_h*out_w) of
/// `cols` [C*k*k, width] back into an image gradient [C,H,W]
/// (accumulating). The adjoint of im2col with the same col0.
void col2im(const Tensor& cols, const Conv2dGeom& g,
            std::span<float> image_grad, std::int64_t col0 = 0);

/// Row-wise softmax of a [n, c] tensor.
Tensor softmax_rows(const Tensor& logits);

/// Row-wise log-softmax of a [n, c] tensor (numerically stable).
Tensor log_softmax_rows(const Tensor& logits);

/// log_softmax_rows into a caller-provided [n, c] output (fully overwritten;
/// bitwise identical to the allocating form).
void log_softmax_rows_into(const Tensor& logits, Tensor& out);

}  // namespace adafl::tensor
