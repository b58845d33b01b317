// AVX2/FMA/PCLMUL kernel backend.
//
// Compiled with -mavx2 -mfma -mpclmul (per-file flags in
// src/tensor/CMakeLists.txt); the implementation is guarded so a toolchain
// or target without those features still links (avx2_kernel_table_or_null()
// returns nullptr and the dispatcher never selects this backend).
//
// Numerics contract (pinned by tests/test_simd_kernels.cpp):
//   * matmul / matmul_tn / matmul_nt: epsilon-equivalent to scalar (FMA and
//     16-lane accumulation change rounding), but bitwise deterministic at any
//     thread count within this backend — every C element accumulates over an
//     ascending-k FMA chain whose structure depends only on (k, its j-tile),
//     never on the row partition or the register-tile height.
//   * add / mul / scale / relu, abs_bits, scan_abs_gt / scan_abs_eq,
//     qsgd_ratios / qsgd_unpack, log_softmax_rows: bitwise identical to the
//     scalar reference (same per-element operations in the same order).
//   * crc32: identical to the scalar table CRC for every input (carry-less
//     folding is exact arithmetic over GF(2)).
//   * gf256_mul_add: identical to scalar (the same two nibble lookups per
//     byte, 32 bytes per vpshufb pair).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/parallel.h"
#include "tensor/dispatch.h"

#if defined(__AVX2__) && defined(__FMA__) && defined(__PCLMUL__)

#include <immintrin.h>

namespace adafl::tensor {

namespace {

// Same serial/parallel grain as the scalar backend: the decision is a
// constant, so results stay independent of the configured thread count.
constexpr std::int64_t kParallelGrainFlops = 1 << 18;

// Depth blocking for the GEMM kernels. At block boundaries the C tile round-
// trips through memory (float rounding), which is part of this backend's
// deterministic accumulation chain definition.
constexpr std::int64_t kKc = 256;

// Widest register tile: 6 rows x 16 columns = 12 ymm accumulators, leaving
// registers for two B vectors and the A broadcast.
constexpr int kTileRows = 6;

// Lane masks for n-tails: mask_for(c) enables the first c of 8 lanes. c is
// clamped to [0, 8] so the load stays inside kMaskTable when a full tile
// passes its remaining width (> 8 lanes) unclamped.
alignas(32) constexpr std::int32_t kMaskTable[16] = {
    -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};

inline __m256i mask_for(std::int64_t active_lanes) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
      kMaskTable + 8 - std::clamp<std::int64_t>(active_lanes, 0, 8)));
}

// One H x 16 tile of C over a depth block of klen:
//   c(h, j) (+)= sum_kk a(h, kk) * b(kk, j)
// a(h, kk) = a[h * a_row + kk * a_dep]; b(kk, *) is 16 floats at b + kk *
// b_row; c rows have stride c_row. With Tail, the j range is masked by
// mlo/mhi (B and C loads/stores skip disabled lanes, so no out-of-bounds
// access). init_zero starts the accumulators at zero (overwrite semantics of
// the first depth block of matmul_nt) instead of loading C.
template <int H, bool Tail>
inline void gemm_tile(const float* a, std::int64_t a_row, std::int64_t a_dep,
                      const float* b, std::int64_t b_row, float* c,
                      std::int64_t c_row, std::int64_t klen, bool init_zero,
                      __m256i mlo, __m256i mhi) {
  // The h loops must unroll for the accumulators to live in registers; left
  // rolled, GCC keeps them on the stack and every FMA round-trips memory.
  __m256 acc0[H], acc1[H];
#pragma GCC unroll 8
  for (int h = 0; h < H; ++h) {
    if (init_zero) {
      acc0[h] = _mm256_setzero_ps();
      acc1[h] = _mm256_setzero_ps();
    } else if (Tail) {
      acc0[h] = _mm256_maskload_ps(c + h * c_row, mlo);
      acc1[h] = _mm256_maskload_ps(c + h * c_row + 8, mhi);
    } else {
      acc0[h] = _mm256_loadu_ps(c + h * c_row);
      acc1[h] = _mm256_loadu_ps(c + h * c_row + 8);
    }
  }
  for (std::int64_t kk = 0; kk < klen; ++kk) {
    __m256 b0, b1;
    if (Tail) {
      b0 = _mm256_maskload_ps(b + kk * b_row, mlo);
      b1 = _mm256_maskload_ps(b + kk * b_row + 8, mhi);
    } else {
      b0 = _mm256_loadu_ps(b + kk * b_row);
      b1 = _mm256_loadu_ps(b + kk * b_row + 8);
    }
#pragma GCC unroll 8
    for (int h = 0; h < H; ++h) {
      const __m256 av = _mm256_broadcast_ss(a + h * a_row + kk * a_dep);
      acc0[h] = _mm256_fmadd_ps(av, b0, acc0[h]);
      acc1[h] = _mm256_fmadd_ps(av, b1, acc1[h]);
    }
  }
#pragma GCC unroll 8
  for (int h = 0; h < H; ++h) {
    if (Tail) {
      _mm256_maskstore_ps(c + h * c_row, mlo, acc0[h]);
      _mm256_maskstore_ps(c + h * c_row + 8, mhi, acc1[h]);
    } else {
      _mm256_storeu_ps(c + h * c_row, acc0[h]);
      _mm256_storeu_ps(c + h * c_row + 8, acc1[h]);
    }
  }
}

// Row-count dispatch for the sub-kTileRows tail of a row chunk.
template <bool Tail>
inline void gemm_tile_rows(int rows, const float* a, std::int64_t a_row,
                           std::int64_t a_dep, const float* b,
                           std::int64_t b_row, float* c, std::int64_t c_row,
                           std::int64_t klen, bool init_zero, __m256i mlo,
                           __m256i mhi) {
  switch (rows) {
    case 6:
      gemm_tile<6, Tail>(a, a_row, a_dep, b, b_row, c, c_row, klen, init_zero,
                         mlo, mhi);
      break;
    case 5:
      gemm_tile<5, Tail>(a, a_row, a_dep, b, b_row, c, c_row, klen, init_zero,
                         mlo, mhi);
      break;
    case 4:
      gemm_tile<4, Tail>(a, a_row, a_dep, b, b_row, c, c_row, klen, init_zero,
                         mlo, mhi);
      break;
    case 3:
      gemm_tile<3, Tail>(a, a_row, a_dep, b, b_row, c, c_row, klen, init_zero,
                         mlo, mhi);
      break;
    case 2:
      gemm_tile<2, Tail>(a, a_row, a_dep, b, b_row, c, c_row, klen, init_zero,
                         mlo, mhi);
      break;
    case 1:
      gemm_tile<1, Tail>(a, a_row, a_dep, b, b_row, c, c_row, klen, init_zero,
                         mlo, mhi);
      break;
    default:
      break;
  }
}

// Shared accumulate-GEMM driver for matmul (a_row=k, a_dep=1) and matmul_tn
// (a_row=1, a_dep=m): C[m,n] += op(A) * B with B accessed directly at row
// stride n. C must hold the starting values on entry.
void gemm_accumulate(const float* pa, std::int64_t a_row, std::int64_t a_dep,
                     const float* pb, float* pc, std::int64_t m,
                     std::int64_t k, std::int64_t n) {
  auto rows = [&](std::int64_t ib, std::int64_t ie) {
    for (std::int64_t jt = 0; jt < n; jt += 16) {
    const std::int64_t rem = n - jt;
    const bool tail = rem < 16;
    const __m256i mlo = mask_for(rem);
    const __m256i mhi = mask_for(rem - 8);
    for (std::int64_t kb = 0; kb < k; kb += kKc) {
      const std::int64_t klen = std::min(kKc, k - kb);
      const float* bblk = pb + kb * n + jt;
      std::int64_t i = ib;
      for (; i + kTileRows <= ie; i += kTileRows) {
        const float* ablk = pa + i * a_row + kb * a_dep;
        float* cblk = pc + i * n + jt;
        if (tail)
          gemm_tile<kTileRows, true>(ablk, a_row, a_dep, bblk, n, cblk, n,
                                     klen, false, mlo, mhi);
        else
          gemm_tile<kTileRows, false>(ablk, a_row, a_dep, bblk, n, cblk, n,
                                      klen, false, mlo, mhi);
      }
      if (i < ie) {
        const float* ablk = pa + i * a_row + kb * a_dep;
        float* cblk = pc + i * n + jt;
        const int h = static_cast<int>(ie - i);
        if (tail)
          gemm_tile_rows<true>(h, ablk, a_row, a_dep, bblk, n, cblk, n, klen,
                               false, mlo, mhi);
        else
          gemm_tile_rows<false>(h, ablk, a_row, a_dep, bblk, n, cblk, n,
                                klen, false, mlo, mhi);
      }
    }
  }
};
if (m * k * n < kParallelGrainFlops)
  rows(0, m);
else
  core::parallel_for_blocked(0, m, rows);
}

void matmul_avx2(const float* pa, const float* pb, float* pc, std::int64_t m,
                 std::int64_t k, std::int64_t n) {
  gemm_accumulate(pa, /*a_row=*/k, /*a_dep=*/1, pb, pc, m, k, n);
}

void matmul_tn_avx2(const float* pa, const float* pb, float* pc,
                    std::int64_t m, std::int64_t k, std::int64_t n) {
  gemm_accumulate(pa, /*a_row=*/1, /*a_dep=*/m, pb, pc, m, k, n);
}

// C[m,n] = A[m,k] * B[n,k]^T; fully overwrites C. B rows are the reduction
// axis here, so a depth block of a 16-column tile is transpose-packed into a
// contiguous (klen x 16) panel once per (chunk, j-tile, depth block) and
// served from L1 for every row of the chunk — this is what closes matmul_nt's
// historical gap vs matmul. The first depth block starts accumulators at
// zero; later blocks resume from C.
void matmul_nt_avx2(const float* pa, const float* pb, float* pc,
                    std::int64_t m, std::int64_t k, std::int64_t n) {
  auto rows = [&](std::int64_t ib, std::int64_t ie) {
    if (k == 0) {  // overwrite semantics: an empty reduction writes zeros
      for (std::int64_t i = ib; i < ie; ++i)
        std::memset(pc + i * n, 0, static_cast<std::size_t>(n) * sizeof(float));
      return;
    }
    alignas(32) float bp[kKc * 16];
    for (std::int64_t jt = 0; jt < n; jt += 16) {
      const std::int64_t rem = n - jt;
      const std::int64_t jw = std::min<std::int64_t>(rem, 16);
      const bool tail = rem < 16;
      const __m256i mlo = mask_for(rem);
      const __m256i mhi = mask_for(rem - 8);
      for (std::int64_t kb = 0; kb < k; kb += kKc) {
        const std::int64_t klen = std::min(kKc, k - kb);
        for (std::int64_t jj = 0; jj < jw; ++jj) {
          const float* bsrc = pb + (jt + jj) * k + kb;
          for (std::int64_t kk = 0; kk < klen; ++kk)
            bp[kk * 16 + jj] = bsrc[kk];
        }
        if (jw < 16) {  // zero-pad ghost columns so full-width loads are safe
          for (std::int64_t kk = 0; kk < klen; ++kk)
            for (std::int64_t jj = jw; jj < 16; ++jj) bp[kk * 16 + jj] = 0.0f;
        }
        const bool first = kb == 0;
        std::int64_t i = ib;
        for (; i + kTileRows <= ie; i += kTileRows) {
          const float* ablk = pa + i * k + kb;
          float* cblk = pc + i * n + jt;
          if (tail)
            gemm_tile<kTileRows, true>(ablk, k, 1, bp, 16, cblk, n, klen,
                                       first, mlo, mhi);
          else
            gemm_tile<kTileRows, false>(ablk, k, 1, bp, 16, cblk, n, klen,
                                        first, mlo, mhi);
        }
        if (i < ie) {
          const float* ablk = pa + i * k + kb;
          float* cblk = pc + i * n + jt;
          const int h = static_cast<int>(ie - i);
          if (tail)
            gemm_tile_rows<true>(h, ablk, k, 1, bp, 16, cblk, n, klen, first,
                                 mlo, mhi);
          else
            gemm_tile_rows<false>(h, ablk, k, 1, bp, 16, cblk, n, klen, first,
                                  mlo, mhi);
        }
      }
    }
  };
  if (m * k * n < kParallelGrainFlops)
    rows(0, m);
  else
    core::parallel_for_blocked(0, m, rows);
}

// Rows of C per pass when a segment is deeper than one panel, so the
// running sums of its rows wait in a bounded stack buffer between depth
// blocks (a multiple of kTileRows).
constexpr std::int64_t kFoldPass = 60;

// Writes the transpose of an 8x8 block: dst row r (ldd apart) = src column
// r (src rows lds apart).
inline void transpose8x8(const float* src, std::int64_t lds, float* dst,
                         std::int64_t ldd) {
  __m256 r[8], t[8];
#pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * lds);
#pragma GCC unroll 4
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
#pragma GCC unroll 2
  for (int i = 0; i < 8; i += 4) {
    r[i] = _mm256_shuffle_ps(t[i], t[i + 2], 0x44);
    r[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], 0xEE);
    r[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0x44);
    r[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0xEE);
  }
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    _mm256_storeu_ps(dst + i * ldd, _mm256_permute2f128_ps(r[i], r[i + 4], 0x20));
    _mm256_storeu_ps(dst + (i + 4) * ldd,
                     _mm256_permute2f128_ps(r[i], r[i + 4], 0x31));
  }
}

// Packs `rows` (<= 16) rows of B, lds apart, over klen depth into a
// (klen x 16) panel: panel[kk * 16 + r] = src[r * lds + kk], ghost columns
// zero. Whole 8x8 blocks go through register transposes.
void pack_panel(const float* src, std::int64_t lds, int rows,
                std::int64_t klen, float* panel) {
  for (int r0 = 0; r0 < 16; r0 += 8) {
    std::int64_t kk = 0;
    if (r0 + 8 <= rows)
      for (; kk + 8 <= klen; kk += 8)
        transpose8x8(src + r0 * lds + kk, lds, panel + kk * 16 + r0, 16);
    for (int r = r0; r < r0 + 8; ++r) {
      const float* row = src + r * lds;
      for (std::int64_t q = kk; q < klen; ++q)
        panel[q * 16 + r] = r < rows ? row[q] : 0.0f;
    }
  }
}

// One H x 16 fold tile: rows of A (lda apart, kk contiguous) against the
// packed B panel, over nseg segments of len. Each segment's sums start at
// zero, chain ascending-k FMAs exactly as gemm_tile does for matmul_nt, and
// are added to C (rows ldc apart) at the segment's end. When a segment is
// deeper than one panel, the depth block is one piece of it: the sums then
// resume from `carry` (carry_in) and, unless the piece ends the segment, are
// parked there again (carry_out) instead of reaching C.
template <int H, bool Tail>
inline void fold_tile(const float* a, std::int64_t lda, const float* bp,
                      float* c, std::int64_t ldc, std::int64_t nseg,
                      std::int64_t len, float* carry, bool carry_in,
                      bool carry_out, __m256i mlo, __m256i mhi) {
  // As in gemm_tile, the h loops unroll to keep the sums in registers.
  for (std::int64_t s = 0; s < nseg; ++s) {
    __m256 t0[H], t1[H];
#pragma GCC unroll 8
    for (int h = 0; h < H; ++h) {
      t0[h] = carry_in ? _mm256_load_ps(carry + h * 16) : _mm256_setzero_ps();
      t1[h] = carry_in ? _mm256_load_ps(carry + h * 16 + 8)
                       : _mm256_setzero_ps();
    }
    const float* prow = bp + s * len * 16;
    const float* acol = a + s * len;
    for (std::int64_t kk = 0; kk < len; ++kk, prow += 16) {
      const __m256 b0 = _mm256_load_ps(prow);
      const __m256 b1 = _mm256_load_ps(prow + 8);
#pragma GCC unroll 8
      for (int h = 0; h < H; ++h) {
        const __m256 av = _mm256_broadcast_ss(acol + h * lda + kk);
        t0[h] = _mm256_fmadd_ps(av, b0, t0[h]);
        t1[h] = _mm256_fmadd_ps(av, b1, t1[h]);
      }
    }
#pragma GCC unroll 8
    for (int h = 0; h < H; ++h) {
      float* crow = c + h * ldc;
      if (carry_out) {
        _mm256_store_ps(carry + h * 16, t0[h]);
        _mm256_store_ps(carry + h * 16 + 8, t1[h]);
      } else if (Tail) {
        _mm256_maskstore_ps(
            crow, mlo, _mm256_add_ps(_mm256_maskload_ps(crow, mlo), t0[h]));
        _mm256_maskstore_ps(
            crow + 8, mhi,
            _mm256_add_ps(_mm256_maskload_ps(crow + 8, mhi), t1[h]));
      } else {
        _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), t0[h]));
        _mm256_storeu_ps(crow + 8,
                         _mm256_add_ps(_mm256_loadu_ps(crow + 8), t1[h]));
      }
    }
  }
}

// Row-count dispatch for fold tiles.
template <bool Tail>
inline void fold_tile_rows(int rows, const float* a, std::int64_t lda,
                           const float* bp, float* c, std::int64_t ldc,
                           std::int64_t nseg, std::int64_t len, float* carry,
                           bool carry_in, bool carry_out, __m256i mlo,
                           __m256i mhi) {
  switch (rows) {
#define ADAFL_FOLD_CASE(h)                                                 \
  case h:                                                                  \
    fold_tile<h, Tail>(a, lda, bp, c, ldc, nseg, len, carry, carry_in,     \
                       carry_out, mlo, mhi);                               \
    break;
    ADAFL_FOLD_CASE(6)
    ADAFL_FOLD_CASE(5)
    ADAFL_FOLD_CASE(4)
    ADAFL_FOLD_CASE(3)
    ADAFL_FOLD_CASE(2)
    ADAFL_FOLD_CASE(1)
#undef ADAFL_FOLD_CASE
    default:
      break;
  }
}

// C[m,n] += sum_s A_s * B_s^T over k-segments of length seg, C's rows ldc
// apart. Every element's segment sum is matmul_nt_avx2's chain —
// ascending-k FMAs from zero, the same operands — and is added to C in
// segment order, so the result is bitwise that of matmul_nt per segment
// followed by C += product. Like matmul_nt, B is packed per 16-column tile
// and depth block and served to every row of A. Serial: the ops.h entry
// point splits C across the pool.
void matmul_nt_fold_avx2(const float* pa, const float* pb, float* pc,
                         std::int64_t m, std::int64_t k, std::int64_t n,
                         std::int64_t ldc, std::int64_t seg) {
  // Depth blocks hold whole segments; a segment deeper than a panel is cut
  // into panel-deep pieces whose running sums park in `carry`.
  const bool split = seg > kKc;
  const std::int64_t span = split ? seg : (kKc / seg) * seg;
  const std::int64_t pass = split ? kFoldPass : m;
  alignas(32) float panel[kKc * 16];
  alignas(32) float carry[kFoldPass * 16];
  for (std::int64_t jt = 0; jt < n; jt += 16) {
    const std::int64_t rem = n - jt;
    const int jw = static_cast<int>(std::min<std::int64_t>(rem, 16));
    const bool tail = rem < 16;
    const __m256i mlo = mask_for(rem);
    const __m256i mhi = mask_for(rem - 8);
    for (std::int64_t ip = 0; ip < m; ip += pass) {
      const std::int64_t ipe = std::min(m, ip + pass);
      for (std::int64_t s0 = 0; s0 < k; s0 += span) {
        const std::int64_t send = std::min(k, s0 + span);
        for (std::int64_t kb = s0; kb < send; kb += kKc) {
          const std::int64_t klen = std::min(kKc, send - kb);
          pack_panel(pb + jt * k + kb, k, jw, klen, panel);
          const std::int64_t nseg = split ? 1 : klen / seg;
          const std::int64_t len = split ? klen : seg;
          const bool carry_in = split && kb > s0;
          const bool carry_out = split && kb + klen < send;
          for (std::int64_t i = ip; i < ipe; i += kTileRows) {
            const int h =
                static_cast<int>(std::min<std::int64_t>(kTileRows, ipe - i));
            const float* ablk = pa + i * k + kb;
            float* cblk = pc + i * ldc + jt;
            float* cc = split ? carry + (i - ip) * 16 : nullptr;
            if (tail)
              fold_tile_rows<true>(h, ablk, k, panel, cblk, ldc, nseg, len,
                                   cc, carry_in, carry_out, mlo, mhi);
            else
              fold_tile_rows<false>(h, ablk, k, panel, cblk, ldc, nseg, len,
                                    cc, carry_in, carry_out, mlo, mhi);
          }
        }
      }
    }
  }
}

void add_avx2(const float* pa, const float* pb, float* po, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(
        po + i, _mm256_add_ps(_mm256_loadu_ps(pa + i), _mm256_loadu_ps(pb + i)));
  for (; i < n; ++i) po[i] = pa[i] + pb[i];
}

void mul_avx2(const float* pa, const float* pb, float* po, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(
        po + i, _mm256_mul_ps(_mm256_loadu_ps(pa + i), _mm256_loadu_ps(pb + i)));
  for (; i < n; ++i) po[i] = pa[i] * pb[i];
}

void scale_avx2(const float* pa, float s, float* po, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(po + i, _mm256_mul_ps(vs, _mm256_loadu_ps(pa + i)));
  for (; i < n; ++i) po[i] = s * pa[i];
}

void relu_avx2(const float* pa, float* po, float* pm, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(pa + i);
    // GT_OQ is false for NaN, matching the scalar `a > 0` predicate; and_ps
    // with the mask reproduces `pos ? x : 0` exactly (including -0 -> +0).
    const __m256 gt = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(pm + i, _mm256_and_ps(gt, one));
    _mm256_storeu_ps(po + i, _mm256_and_ps(gt, v));
  }
  for (; i < n; ++i) {
    const bool pos = pa[i] > 0.0f;
    pm[i] = pos ? 1.0f : 0.0f;
    po[i] = pos ? pa[i] : 0.0f;
  }
}

void log_softmax_rows_avx2(const float* logits, float* out, std::int64_t n,
                           std::int64_t c) {
  // The exp/log reduction stays scalar-double (it IS the numerics contract:
  // this kernel is bitwise identical to the reference); SIMD covers the max
  // scan and the final broadcast-subtract. Max is exact, subtraction is a
  // single correctly-rounded op per element, so bit-equality holds.
  auto rows = [&](std::int64_t ib, std::int64_t ie) {
    for (std::int64_t i = ib; i < ie; ++i) {
      const float* row = logits + i * c;
      float* orow = out + i * c;
      float mx;
      {
        std::int64_t j = 0;
        if (c >= 8) {
          __m256 vmax = _mm256_loadu_ps(row);
          for (j = 8; j + 8 <= c; j += 8)
            vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row + j));
          alignas(32) float lanes[8];
          _mm256_store_ps(lanes, vmax);
          mx = lanes[0];
          for (int l = 1; l < 8; ++l) mx = std::max(mx, lanes[l]);
        } else {
          mx = row[0];
          j = 1;
        }
        for (; j < c; ++j) mx = std::max(mx, row[j]);
      }
      double sum = 0.0;
      for (std::int64_t j = 0; j < c; ++j) sum += std::exp(row[j] - mx);
      const float lse = mx + static_cast<float>(std::log(sum));
      const __m256 vlse = _mm256_set1_ps(lse);
      std::int64_t j = 0;
      for (; j + 8 <= c; j += 8)
        _mm256_storeu_ps(orow + j,
                         _mm256_sub_ps(_mm256_loadu_ps(row + j), vlse));
      for (; j < c; ++j) orow[j] = row[j] - lse;
    }
  };
  if (n * c < 1 << 14)
    rows(0, n);
  else
    core::parallel_for_blocked(0, n, rows);
}

void abs_bits_avx2(const float* v, std::uint32_t* out, std::int64_t n) {
  const __m256i absmask = _mm256_set1_epi32(0x7fffffff);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bits = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)), absmask);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), bits);
  }
  for (; i < n; ++i)
    out[i] = std::bit_cast<std::uint32_t>(v[i]) & 0x7fffffffu;
}

// Abs-bits values are <= 0x7fffffff, i.e. non-negative as int32, so the
// signed SIMD compares below order them exactly like unsigned compares.
std::int64_t scan_abs_gt_avx2(const float* v, std::int64_t n,
                              std::uint32_t threshold, std::uint32_t* out) {
  const __m256i absmask = _mm256_set1_epi32(0x7fffffff);
  const __m256i thr = _mm256_set1_epi32(static_cast<std::int32_t>(threshold));
  std::int64_t cnt = 0;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bits = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)), absmask);
    unsigned mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(bits, thr))));
    while (mask != 0) {
      const int lane = __builtin_ctz(mask);
      out[cnt++] = static_cast<std::uint32_t>(i + lane);
      mask &= mask - 1;
    }
  }
  for (; i < n; ++i) {
    if ((std::bit_cast<std::uint32_t>(v[i]) & 0x7fffffffu) > threshold)
      out[cnt++] = static_cast<std::uint32_t>(i);
  }
  return cnt;
}

std::int64_t scan_abs_eq_avx2(const float* v, std::int64_t n,
                              std::uint32_t threshold, std::uint32_t* out,
                              std::int64_t max_out) {
  const __m256i absmask = _mm256_set1_epi32(0x7fffffff);
  const __m256i thr = _mm256_set1_epi32(static_cast<std::int32_t>(threshold));
  std::int64_t cnt = 0;
  std::int64_t i = 0;
  for (; i + 8 <= n && cnt < max_out; i += 8) {
    const __m256i bits = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)), absmask);
    unsigned mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(bits, thr))));
    while (mask != 0 && cnt < max_out) {
      const int lane = __builtin_ctz(mask);
      out[cnt++] = static_cast<std::uint32_t>(i + lane);
      mask &= mask - 1;
    }
  }
  for (; i < n && cnt < max_out; ++i) {
    if ((std::bit_cast<std::uint32_t>(v[i]) & 0x7fffffffu) == threshold)
      out[cnt++] = static_cast<std::uint32_t>(i);
  }
  return cnt;
}

void qsgd_ratios_avx2(const float* g, double norm, double s, double* out,
                      std::int64_t n) {
  // float abs then exact promotion commutes with promote-then-clear-sign;
  // divide and multiply are single correctly-rounded ops in the scalar
  // order, so this is bitwise identical to the reference.
  const __m256d vnorm = _mm256_set1_pd(norm);
  const __m256d vs = _mm256_set1_pd(s);
  const __m256d signbit = _mm256_set1_pd(-0.0);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_cvtps_pd(_mm_loadu_ps(g + i));
    const __m256d a = _mm256_andnot_pd(signbit, d);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_div_pd(a, vnorm), vs));
  }
  for (; i < n; ++i)
    out[i] = static_cast<double>(std::abs(g[i])) / norm * s;
}

void qsgd_unpack_avx2(const std::int8_t* levels, float scale, float denom,
                      float* out, std::int64_t n) {
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vdenom = _mm256_set1_ps(denom);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i b8 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(levels + i));
    const __m256 f = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b8));
    _mm256_storeu_ps(out + i,
                     _mm256_div_ps(_mm256_mul_ps(vscale, f), vdenom));
  }
  for (; i < n; ++i)
    out[i] = scale * static_cast<float>(levels[i]) / denom;
}

// CRC-32 by carry-less multiplication folding (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel,
// 2009), in the bit-reflected domain. Four 128-bit lanes fold 64 bytes per
// step; they fold into one lane, which then takes one 16-byte block per
// step. The lane is reduced 128 -> 64 -> 32 bits, the last step a Barrett
// reduction. Inputs under 64 bytes and the final tail under 16 bytes go to
// the scalar kernel.
std::uint32_t crc32_avx2(std::uint32_t crc, const std::uint8_t* p,
                         std::size_t n) {
  const auto scalar = scalar_kernel_table().crc32;
  if (n < 64) return scalar(crc, p, n);
  // Folding constants x^e mod P(x) (bit-reflected, shifted left by one) for
  // a 4x128-bit fold (e = 4*128 +- 32), a 128-bit fold (e = 128 +- 32) and
  // the 64-bit step (e = 64); then P'(x) and the Barrett quotient
  // mu = floor(x^64 / P(x)).
  const __m128i fold4 = _mm_set_epi64x(0x01C6E41596, 0x0154442BD4);
  const __m128i fold1 = _mm_set_epi64x(0x00CCAA009E, 0x01751997D0);
  const __m128i fold64 = _mm_set_epi64x(0, 0x0163CD6124);
  const __m128i barrett = _mm_set_epi64x(0x01F7011641, 0x01DB710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  // a * x^128 + b, folded: a's halves times the constant's halves.
  const auto fold = [](__m128i a, __m128i k, __m128i b) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                       _mm_clmulepi64_si128(a, k, 0x11)),
                         b);
  };
  const auto load = [](const std::uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };

  __m128i x0 = _mm_xor_si128(load(p),
                             _mm_cvtsi32_si128(static_cast<int>(~crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, fold4, load(p));
    x1 = fold(x1, fold4, load(p + 16));
    x2 = fold(x2, fold4, load(p + 32));
    x3 = fold(x3, fold4, load(p + 48));
  }
  x0 = fold(x0, fold1, x1);
  x0 = fold(x0, fold1, x2);
  x0 = fold(x0, fold1, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, fold1, load(p));

  // 128 -> 64 bits: the low half times x^(128-32) joins the high half.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, fold1, 0x10));
  // 64 -> 32 bits, leaving the remainder's 64-bit form in the low half.
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), fold64, 0x00));
  // Barrett: q = floor(r * mu / x^32), r ^= q * P; the CRC is bits 32..63.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  x0 = _mm_xor_si128(x0, q);
  const auto folded = static_cast<std::uint32_t>(_mm_extract_epi32(x0, 1));
  return scalar(~folded, p, n);
}

// Split-nibble GF(256) multiply (Plank, Greenan and Miller, "Screaming Fast
// Galois Field Arithmetic Using Intel SIMD Instructions", FAST 2013): each
// 16-entry half of the table sits in both 128-bit lanes, and vpshufb looks
// up 32 low nibbles and 32 high nibbles at once. Tails under 32 bytes go to
// the scalar kernel.
void gf256_mul_add_avx2(const std::uint8_t* tbl, const std::uint8_t* src,
                        std::uint8_t* dst, std::size_t n) {
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tbl)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tbl + 16)));
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i prod = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(s, nibble)),
        _mm256_shuffle_epi8(
            hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), nibble)));
    auto* d = reinterpret_cast<__m256i*>(dst + i);
    _mm256_storeu_si256(d, _mm256_xor_si256(_mm256_loadu_si256(d), prod));
  }
  scalar_kernel_table().gf256_mul_add(tbl, src + i, dst + i, n - i);
}

}  // namespace

const KernelTable* avx2_kernel_table_or_null() {
  static const KernelTable table = {
      /*matmul=*/matmul_avx2,
      /*matmul_tn=*/matmul_tn_avx2,
      /*matmul_nt=*/matmul_nt_avx2,
      /*matmul_nt_fold=*/matmul_nt_fold_avx2,
      /*fold_col_tile=*/16,
      /*add=*/add_avx2,
      /*mul=*/mul_avx2,
      /*scale=*/scale_avx2,
      /*relu=*/relu_avx2,
      /*log_softmax_rows=*/log_softmax_rows_avx2,
      /*abs_bits=*/abs_bits_avx2,
      /*scan_abs_gt=*/scan_abs_gt_avx2,
      /*scan_abs_eq=*/scan_abs_eq_avx2,
      /*qsgd_ratios=*/qsgd_ratios_avx2,
      /*qsgd_unpack=*/qsgd_unpack_avx2,
      /*crc32=*/crc32_avx2,
      /*gf256_mul_add=*/gf256_mul_add_avx2,
  };
  return &table;
}

}  // namespace adafl::tensor

#else  // !(__AVX2__ && __FMA__ && __PCLMUL__)

namespace adafl::tensor {

const KernelTable* avx2_kernel_table_or_null() { return nullptr; }

}  // namespace adafl::tensor

#endif
