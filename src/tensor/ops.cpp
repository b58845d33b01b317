#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/parallel.h"
#include "tensor/dispatch.h"

namespace adafl::tensor {

namespace {

void require_rank2(const Tensor& t, const char* who) {
  ADAFL_CHECK_MSG(t.shape().rank() == 2,
                  who << ": expected rank-2 tensor, got "
                      << t.shape().to_string());
}

// The fold splits C across the pool only above the kernels' serial grain
// (multiply-adds), so small folds pay no fork-join.
constexpr std::int64_t kFoldGrainFlops = 1 << 18;

// Validated (m, k, n) for each matmul flavor. The numeric kernels live in
// kernels_scalar.cpp / kernels_avx2.cpp behind the dispatch table; the entry
// points here keep all shape validation so every backend sees only valid
// inputs.
struct MatmulDims {
  std::int64_t m = 0, k = 0, n = 0;
};

MatmulDims matmul_dims(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul");
  require_rank2(b, "matmul");
  const std::int64_t m = a.shape()[0], k = a.shape()[1];
  ADAFL_CHECK_MSG(b.shape()[0] == k, "matmul: inner dims " << k << " vs "
                                                           << b.shape()[0]);
  return {m, k, b.shape()[1]};
}

MatmulDims matmul_tn_dims(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul_tn");
  require_rank2(b, "matmul_tn");
  const std::int64_t k = a.shape()[0], m = a.shape()[1];
  ADAFL_CHECK_MSG(b.shape()[0] == k, "matmul_tn: inner dims " << k << " vs "
                                                              << b.shape()[0]);
  return {m, k, b.shape()[1]};
}

MatmulDims matmul_nt_dims(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul_nt");
  require_rank2(b, "matmul_nt");
  const std::int64_t m = a.shape()[0], k = a.shape()[1];
  ADAFL_CHECK_MSG(b.shape()[1] == k, "matmul_nt: inner dims " << k << " vs "
                                                              << b.shape()[1]);
  return {m, k, b.shape()[0]};
}

void require_out_shape(const Tensor& c, const MatmulDims& d, const char* who) {
  ADAFL_CHECK_MSG(c.shape() == Shape({d.m, d.n}),
                  who << ": output shape " << c.shape().to_string()
                      << " vs expected [" << d.m << ", " << d.n << "]");
}

void require_out_span(std::span<float> c, const MatmulDims& d,
                      const char* who) {
  ADAFL_CHECK_MSG(static_cast<std::int64_t>(c.size()) == d.m * d.n,
                  who << ": output span size " << c.size() << " vs expected "
                      << d.m * d.n);
}

void require_same_shape(const Tensor& a, const Tensor& out, const char* who) {
  ADAFL_CHECK_MSG(out.shape() == a.shape(),
                  who << ": output shape " << out.shape().to_string() << " vs "
                      << a.shape().to_string());
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  const MatmulDims d = matmul_dims(a, b);
  Tensor c({d.m, d.n});
  active_kernels().matmul(a.data(), b.data(), c.data(), d.m, d.k, d.n);
  return c;
}

void matmul_into(const Tensor& a, const Tensor& b, Tensor& c) {
  const MatmulDims d = matmul_dims(a, b);
  require_out_shape(c, d, "matmul_into");
  active_kernels().matmul(a.data(), b.data(), c.data(), d.m, d.k, d.n);
}

void matmul_into(const Tensor& a, const Tensor& b, std::span<float> c) {
  const MatmulDims d = matmul_dims(a, b);
  require_out_span(c, d, "matmul_into");
  active_kernels().matmul(a.data(), b.data(), c.data(), d.m, d.k, d.n);
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  const MatmulDims d = matmul_tn_dims(a, b);
  Tensor c({d.m, d.n});
  active_kernels().matmul_tn(a.data(), b.data(), c.data(), d.m, d.k, d.n);
  return c;
}

void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& c) {
  const MatmulDims d = matmul_tn_dims(a, b);
  require_out_shape(c, d, "matmul_tn_into");
  active_kernels().matmul_tn(a.data(), b.data(), c.data(), d.m, d.k, d.n);
}

void matmul_tn_into(const Tensor& a, const Tensor& b, std::span<float> c) {
  const MatmulDims d = matmul_tn_dims(a, b);
  require_out_span(c, d, "matmul_tn_into");
  active_kernels().matmul_tn(a.data(), b.data(), c.data(), d.m, d.k, d.n);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  const MatmulDims d = matmul_nt_dims(a, b);
  Tensor c({d.m, d.n});
  active_kernels().matmul_nt(a.data(), b.data(), c.data(), d.m, d.k, d.n);
  return c;
}

void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& c) {
  const MatmulDims d = matmul_nt_dims(a, b);
  require_out_shape(c, d, "matmul_nt_into");
  active_kernels().matmul_nt(a.data(), b.data(), c.data(), d.m, d.k, d.n);
}

void matmul_nt_into(const Tensor& a, const Tensor& b, std::span<float> c) {
  const MatmulDims d = matmul_nt_dims(a, b);
  require_out_span(c, d, "matmul_nt_into");
  active_kernels().matmul_nt(a.data(), b.data(), c.data(), d.m, d.k, d.n);
}

void matmul_nt_fold_into(const Tensor& a, const Tensor& b, Tensor& c,
                         std::int64_t seg) {
  matmul_nt_fold_into(std::span<const Tensor>(&a, 1),
                      std::span<const Tensor>(&b, 1), c, seg);
}

void matmul_nt_fold_into(std::span<const Tensor> a, std::span<const Tensor> b,
                         Tensor& c, std::int64_t seg) {
  ADAFL_CHECK_MSG(!a.empty() && a.size() == b.size(),
                  "matmul_nt_fold_into: " << a.size() << " A blocks vs "
                                          << b.size() << " B blocks");
  std::int64_t depth = 0;
  MatmulDims d;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = matmul_nt_dims(a[i], b[i]);
    require_out_shape(c, d, "matmul_nt_fold_into");
    ADAFL_CHECK_MSG(seg > 0 && d.k % seg == 0,
                    "matmul_nt_fold_into: segment " << seg
                                                    << " does not divide k = "
                                                    << d.k);
    depth += d.k;
  }
  const std::int64_t m = d.m, n = d.n;
  const KernelTable& kt = active_kernels();
  // Cells: whole column tiles of the kernel, split into row groups only
  // when there are fewer tiles than lanes.
  const std::int64_t col_w = kt.fold_col_tile > 0 ? kt.fold_col_tile : n;
  const std::int64_t col_tiles = (n + col_w - 1) / col_w;
  const std::int64_t lanes = m * n * depth < kFoldGrainFlops ||
                                     core::in_parallel_region()
                                 ? 1
                                 : core::num_threads();
  const std::int64_t row_groups =
      std::clamp<std::int64_t>((lanes + col_tiles - 1) / col_tiles, 1, m);
  const std::int64_t group_rows = (m + row_groups - 1) / row_groups;
  // A cell folds every block into a stack copy of its part of C, so lanes
  // share no cache line of C while they walk the blocks (the copies are
  // exact). Cells larger than the copy go in pieces of whole tiles.
  const auto cells = [&](std::int64_t r0, std::int64_t r1, std::int64_t c0,
                         std::int64_t c1) {
    constexpr std::int64_t kCopyFloats = 4096;
    alignas(64) float copy[kCopyFloats];
    const std::int64_t quantum = std::max<std::int64_t>(kt.fold_col_tile, 1);
    const std::int64_t piece_rows = kCopyFloats / quantum;
    for (std::int64_t rs = r0; rs < r1; rs += piece_rows) {
      const std::int64_t re = std::min(r1, rs + piece_rows);
      const std::int64_t piece_cols =
          kCopyFloats / (re - rs) / quantum * quantum;
      for (std::int64_t cs = c0; cs < c1; cs += piece_cols) {
        const std::int64_t cw = std::min(c1, cs + piece_cols) - cs;
        for (std::int64_t r = rs; r < re; ++r)
          std::copy_n(c.data() + r * n + cs, cw, copy + (r - rs) * cw);
        for (std::size_t i = 0; i < a.size(); ++i) {
          const std::int64_t k = a[i].shape()[1];
          kt.matmul_nt_fold(a[i].data() + rs * k, b[i].data() + cs * k, copy,
                            re - rs, k, cw, cw, seg);
        }
        for (std::int64_t r = rs; r < re; ++r)
          std::copy_n(copy + (r - rs) * cw, cw, c.data() + r * n + cs);
      }
    }
  };
  if (lanes == 1) {
    cells(0, m, 0, n);
    return;
  }
  // Cell t is column tile t / row_groups, row group t % row_groups; with one
  // row group a lane's cells merge into one column range.
  core::parallel_for_blocked(
      0, col_tiles * row_groups, [&](std::int64_t tb, std::int64_t te) {
        if (row_groups == 1) {
          cells(0, m, tb * col_w, std::min(n, te * col_w));
          return;
        }
        for (std::int64_t t = tb; t < te; ++t) {
          const std::int64_t ct = t / row_groups, rg = t % row_groups;
          cells(rg * group_rows, std::min(m, (rg + 1) * group_rows),
                ct * col_w, std::min(n, (ct + 1) * col_w));
        }
      });
}

void add_into(const Tensor& a, const Tensor& b, Tensor& out) {
  ADAFL_CHECK_MSG(a.shape() == b.shape(),
                  "add_into: shape mismatch " << a.shape().to_string() << " vs "
                                              << b.shape().to_string());
  require_same_shape(a, out, "add_into");
  active_kernels().add(a.data(), b.data(), out.data(), a.size());
}

void mul_into(const Tensor& a, const Tensor& b, Tensor& out) {
  ADAFL_CHECK_MSG(a.shape() == b.shape(),
                  "mul_into: shape mismatch " << a.shape().to_string() << " vs "
                                              << b.shape().to_string());
  require_same_shape(a, out, "mul_into");
  active_kernels().mul(a.data(), b.data(), out.data(), a.size());
}

void scale_into(const Tensor& a, float s, Tensor& out) {
  require_same_shape(a, out, "scale_into");
  active_kernels().scale(a.data(), s, out.data(), a.size());
}

void relu_into(const Tensor& a, Tensor& out, Tensor& mask) {
  require_same_shape(a, out, "relu_into");
  require_same_shape(a, mask, "relu_into(mask)");
  active_kernels().relu(a.data(), out.data(), mask.data(), a.size());
}

Tensor transpose2d(const Tensor& a) {
  require_rank2(a, "transpose2d");
  const std::int64_t m = a.shape()[0], n = a.shape()[1];
  Tensor t({n, m});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j)
      t[j * m + i] = a[i * n + j];
  return t;
}

namespace {

/// The output columns oj whose input column oj*stride + kj - pad lies in
/// [0, in_w): [lo, hi), possibly empty.
struct ColSpan {
  std::int64_t lo = 0, hi = 0;
};

ColSpan in_bounds_cols(const Conv2dGeom& g, std::int64_t kj) {
  const std::int64_t ow = g.out_w();
  const std::int64_t off = kj - g.pad;  // input column of oj == 0
  // Smallest oj with oj*s + off >= 0, and one past the largest with
  // oj*s + off <= in_w - 1.
  std::int64_t lo = 0, hi = 0;
  if (g.stride == 1) {
    lo = -off;
    hi = g.in_w - off;
  } else {
    lo = off >= 0 ? 0 : (-off + g.stride - 1) / g.stride;
    const std::int64_t last = g.in_w - 1 - off;
    hi = last < 0 ? 0 : last / g.stride + 1;
  }
  lo = std::clamp<std::int64_t>(lo, 0, ow);
  return {lo, std::clamp(hi, lo, ow)};
}

void require_cols_block(const Tensor& cols, const Conv2dGeom& g,
                        std::int64_t col0, const char* who) {
  ADAFL_CHECK_MSG(cols.shape().rank() == 2 &&
                      cols.shape()[0] == g.in_c * g.kernel * g.kernel &&
                      col0 >= 0 &&
                      col0 + g.out_h() * g.out_w() <= cols.shape()[1],
                  who << ": cols shape " << cols.shape().to_string()
                      << " cannot hold columns from " << col0);
}

}  // namespace

// Each (channel, kernel tap, output row) writes one row segment of out_w
// columns: the in-bounds span is a copy (a memcpy when long and contiguous)
// and the padding on either side is zero, so no element tests its own
// bounds.
void im2col(std::span<const float> image, const Conv2dGeom& g, Tensor& cols,
            std::int64_t col0) {
  require_cols_block(cols, g, col0, "im2col");
  ADAFL_CHECK(static_cast<std::int64_t>(image.size()) ==
              g.in_c * g.in_h * g.in_w);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t ld = cols.shape()[1];
  float* row = cols.data() + col0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    const float* img_c = image.data() + c * g.in_h * g.in_w;
    for (std::int64_t ki = 0; ki < g.kernel; ++ki) {
      for (std::int64_t kj = 0; kj < g.kernel; ++kj, row += ld) {
        float* out = row;
        if (g.pad == 0) {  // every tap lands inside the image
          for (std::int64_t oi = 0; oi < oh; ++oi, out += ow) {
            const float* src = img_c + (oi * g.stride + ki) * g.in_w + kj;
            for (std::int64_t oj = 0; oj < ow; ++oj, src += g.stride)
              out[oj] = *src;
          }
          continue;
        }
        const ColSpan js = in_bounds_cols(g, kj);
        for (std::int64_t oi = 0; oi < oh; ++oi, out += ow) {
          const std::int64_t ii = oi * g.stride + ki - g.pad;
          if (ii < 0 || ii >= g.in_h || js.lo == js.hi) {
            std::fill(out, out + ow, 0.0f);
            continue;
          }
          std::fill(out, out + js.lo, 0.0f);
          const float* src =
              img_c + ii * g.in_w + js.lo * g.stride + kj - g.pad;
          if (g.stride == 1 && js.hi - js.lo >= 16) {
            std::memcpy(out + js.lo, src,
                        static_cast<std::size_t>(js.hi - js.lo) * sizeof(float));
          } else {  // short spans are cheaper than a memcpy call
            for (std::int64_t oj = js.lo; oj < js.hi; ++oj, src += g.stride)
              out[oj] = *src;
          }
          std::fill(out + js.hi, out + ow, 0.0f);
        }
      }
    }
  }
}

// The same walk as im2col, adding each in-bounds column back into its input
// pixel. Every pixel receives its terms in the order of the original
// per-element loop (channel, tap, output row, output column), so skipping
// the padding changes no bit.
void col2im(const Tensor& cols, const Conv2dGeom& g,
            std::span<float> image_grad, std::int64_t col0) {
  require_cols_block(cols, g, col0, "col2im");
  ADAFL_CHECK(static_cast<std::int64_t>(image_grad.size()) ==
              g.in_c * g.in_h * g.in_w);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t ld = cols.shape()[1];
  const float* row = cols.data() + col0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    float* img_c = image_grad.data() + c * g.in_h * g.in_w;
    for (std::int64_t ki = 0; ki < g.kernel; ++ki) {
      for (std::int64_t kj = 0; kj < g.kernel; ++kj, row += ld) {
        const float* in = row;
        if (g.pad == 0) {  // every tap lands inside the image
          for (std::int64_t oi = 0; oi < oh; ++oi, in += ow) {
            float* dst = img_c + (oi * g.stride + ki) * g.in_w + kj;
            for (std::int64_t oj = 0; oj < ow; ++oj, dst += g.stride)
              *dst += in[oj];
          }
          continue;
        }
        const ColSpan js = in_bounds_cols(g, kj);
        for (std::int64_t oi = 0; oi < oh; ++oi, in += ow) {
          const std::int64_t ii = oi * g.stride + ki - g.pad;
          if (ii < 0 || ii >= g.in_h || js.lo == js.hi) continue;
          float* __restrict__ dst =
              img_c + ii * g.in_w + js.lo * g.stride + kj - g.pad;
          const float* __restrict__ src = in + js.lo;
          if (g.stride == 1) {
            for (std::int64_t q = 0; q < js.hi - js.lo; ++q) dst[q] += src[q];
          } else {
            for (std::int64_t q = 0; q < js.hi - js.lo; ++q)
              dst[q * g.stride] += src[q];
          }
        }
      }
    }
  }
}

Tensor softmax_rows(const Tensor& logits) {
  Tensor p = log_softmax_rows(logits);
  for (auto& v : p.flat()) v = std::exp(v);
  return p;
}

Tensor log_softmax_rows(const Tensor& logits) {
  require_rank2(logits, "log_softmax_rows");
  Tensor out(logits.shape());
  log_softmax_rows_into(logits, out);
  return out;
}

void log_softmax_rows_into(const Tensor& logits, Tensor& out) {
  require_rank2(logits, "log_softmax_rows");
  const std::int64_t n = logits.shape()[0], c = logits.shape()[1];
  ADAFL_CHECK(c > 0);
  require_same_shape(logits, out, "log_softmax_rows_into");
  active_kernels().log_softmax_rows(logits.data(), out.data(), n, c);
}

}  // namespace adafl::tensor
