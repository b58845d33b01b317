// Scalar reference backend.
//
// These are the historical loop bodies, moved verbatim out of ops.cpp and
// codec.cpp so they can sit behind the kernel table, plus the slicing-by-8
// CRC-32. They define the bitwise reference semantics every other backend
// is tested against; do not "clean up" operation order here — it is the
// contract.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "core/parallel.h"
#include "tensor/dispatch.h"

namespace adafl::tensor {

namespace {

// Matmuls below this many multiply-adds run serially: the fork-join
// overhead of the pool (~a few microseconds) dominates on small shapes.
// The threshold is a constant, so the serial/parallel decision — and with
// it every result — is independent of the configured thread count.
constexpr std::int64_t kParallelGrainFlops = 1 << 18;

// C[m,n] += A[m,k] * B[k,n]; pc must hold the starting values (zeros for a
// plain product).
//
// The __restrict__ qualifiers (here and in matmul_tn) re-state what the
// ops.h entry points already guarantee — output storage is disjoint from
// the inputs. When these bodies lived inline in ops.cpp the compiler could
// prove that from the fresh Tensor allocation and auto-vectorize the inner
// j loop; behind a table function pointer it must be told, or the loop
// drops to scalar adds (~2.5x slower). Top-level restrict does not change
// the function type, so the table signature stays plain pointers, and
// per-element vectorization of `crow[j] += av * brow[j]` is bitwise
// neutral (no reassociation, no FMA at the base ISA).
void matmul_scalar(const float* __restrict__ pa, const float* __restrict__ pb,
                   float* __restrict__ pc, std::int64_t m, std::int64_t k,
                   std::int64_t n) {
  // ikj loop order: unit-stride access on B and C. Parallel over disjoint
  // row blocks of C; each element accumulates in ascending-k order, so the
  // result is bitwise independent of the partitioning.
  auto rows = [&](std::int64_t ib, std::int64_t ie) {
    for (std::int64_t i = ib; i < ie; ++i) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = pa[i * k + kk];
        if (av == 0.0f) continue;
        const float* __restrict__ brow = pb + kk * n;
        float* __restrict__ crow = pc + i * n;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  };
  if (m * k * n < kParallelGrainFlops)
    rows(0, m);
  else
    core::parallel_for_blocked(0, m, rows);
}

// C[m,n] += A[k,m]^T * B[k,n]; pc must hold the starting values.
void matmul_tn_scalar(const float* __restrict__ pa,
                      const float* __restrict__ pb, float* __restrict__ pc,
                      std::int64_t m, std::int64_t k, std::int64_t n) {
  // Row blocks of C are independent. Within a row, k ascends exactly as in
  // the historical kk-outer loop, so every element sums in the same order.
  auto rows = [&](std::int64_t ib, std::int64_t ie) {
    for (std::int64_t i = ib; i < ie; ++i) {
      float* __restrict__ crow = pc + i * n;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = pa[kk * m + i];
        if (av == 0.0f) continue;
        const float* __restrict__ brow = pb + kk * n;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  };
  if (m * k * n < kParallelGrainFlops)
    rows(0, m);
  else
    core::parallel_for_blocked(0, m, rows);
}

// C[m,n] = A[m,k] * B[n,k]^T; fully overwrites pc.
void matmul_nt_scalar(const float* pa, const float* pb, float* pc,
                      std::int64_t m, std::int64_t k, std::int64_t n) {
  // Cache-blocked dot-product kernel. B is walked in tiles of kBj rows so a
  // tile is served from cache for every row of the A block, and within a
  // tile four output columns accumulate in flight (independent double
  // accumulators -> instruction-level parallelism). Each element still sums
  // a_ik * b_jk in ascending-k order into one double, so the result is
  // bitwise identical to the naive triple loop at any block size or thread
  // count.
  constexpr std::int64_t kBj = 32;
  auto rows = [&](std::int64_t ib, std::int64_t ie) {
    for (std::int64_t jj = 0; jj < n; jj += kBj) {
      const std::int64_t je = std::min(jj + kBj, n);
      for (std::int64_t i = ib; i < ie; ++i) {
        const float* arow = pa + i * k;
        float* crow = pc + i * n;
        std::int64_t j = jj;
        for (; j + 4 <= je; j += 4) {
          const float* b0 = pb + j * k;
          const float* b1 = b0 + k;
          const float* b2 = b1 + k;
          const float* b3 = b2 + k;
          double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
          for (std::int64_t kk = 0; kk < k; ++kk) {
            const double av = static_cast<double>(arow[kk]);
            a0 += av * static_cast<double>(b0[kk]);
            a1 += av * static_cast<double>(b1[kk]);
            a2 += av * static_cast<double>(b2[kk]);
            a3 += av * static_cast<double>(b3[kk]);
          }
          crow[j] = static_cast<float>(a0);
          crow[j + 1] = static_cast<float>(a1);
          crow[j + 2] = static_cast<float>(a2);
          crow[j + 3] = static_cast<float>(a3);
        }
        for (; j < je; ++j) {
          const float* brow = pb + j * k;
          double acc = 0.0;
          for (std::int64_t kk = 0; kk < k; ++kk)
            acc +=
                static_cast<double>(arow[kk]) * static_cast<double>(brow[kk]);
          crow[j] = static_cast<float>(acc);
        }
      }
    }
  };
  if (m * k * n < kParallelGrainFlops)
    rows(0, m);
  else
    core::parallel_for_blocked(0, m, rows);
}

// C[m,n] += sum_s A_s * B_s^T over the k-segments of length seg, C's rows
// ldc apart. Each segment's element is matmul_nt_scalar's double chain from
// zero, rounded to float and added to C in segment order: bitwise what
// matmul_nt of every segment into a temporary, each followed by C +=
// temporary, gives. Serial: the ops.h entry point splits C across the pool.
void matmul_nt_fold_scalar(const float* pa, const float* pb, float* pc,
                           std::int64_t m, std::int64_t k, std::int64_t n,
                           std::int64_t ldc, std::int64_t seg) {
  constexpr std::int64_t kBj = 32;
  for (std::int64_t jj = 0; jj < n; jj += kBj) {
    const std::int64_t je = std::min(jj + kBj, n);
    for (std::int64_t i = 0; i < m; ++i) {
      const float* arow = pa + i * k;
      float* crow = pc + i * ldc;
      std::int64_t j = jj;
      for (; j + 4 <= je; j += 4) {
        const float* b0 = pb + j * k;
        const float* b1 = b0 + k;
        const float* b2 = b1 + k;
        const float* b3 = b2 + k;
        float c0 = crow[j], c1 = crow[j + 1], c2 = crow[j + 2],
              c3 = crow[j + 3];
        for (std::int64_t s = 0; s < k; s += seg) {
          double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
          for (std::int64_t kk = s; kk < s + seg; ++kk) {
            const double av = static_cast<double>(arow[kk]);
            a0 += av * static_cast<double>(b0[kk]);
            a1 += av * static_cast<double>(b1[kk]);
            a2 += av * static_cast<double>(b2[kk]);
            a3 += av * static_cast<double>(b3[kk]);
          }
          c0 += static_cast<float>(a0);
          c1 += static_cast<float>(a1);
          c2 += static_cast<float>(a2);
          c3 += static_cast<float>(a3);
        }
        crow[j] = c0;
        crow[j + 1] = c1;
        crow[j + 2] = c2;
        crow[j + 3] = c3;
      }
      for (; j < je; ++j) {
        const float* brow = pb + j * k;
        float cv = crow[j];
        for (std::int64_t s = 0; s < k; s += seg) {
          double acc = 0.0;
          for (std::int64_t kk = s; kk < s + seg; ++kk)
            acc +=
                static_cast<double>(arow[kk]) * static_cast<double>(brow[kk]);
          cv += static_cast<float>(acc);
        }
        crow[j] = cv;
      }
    }
  }
}

void add_scalar(const float* pa, const float* pb, float* po, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
}

void mul_scalar(const float* pa, const float* pb, float* po, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) po[i] = pa[i] * pb[i];
}

void scale_scalar(const float* pa, float s, float* po, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) po[i] = s * pa[i];
}

void relu_scalar(const float* pa, float* po, float* pm, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const bool pos = pa[i] > 0.0f;
    pm[i] = pos ? 1.0f : 0.0f;
    po[i] = pos ? pa[i] : 0.0f;
  }
}

void log_softmax_rows_scalar(const float* logits, float* out, std::int64_t n,
                             std::int64_t c) {
  // Rows are independent: parallel over disjoint row blocks.
  auto rows = [&](std::int64_t ib, std::int64_t ie) {
    for (std::int64_t i = ib; i < ie; ++i) {
      const float* row = logits + i * c;
      float* orow = out + i * c;
      const float mx = *std::max_element(row, row + c);
      double sum = 0.0;
      for (std::int64_t j = 0; j < c; ++j) sum += std::exp(row[j] - mx);
      const float lse = mx + static_cast<float>(std::log(sum));
      for (std::int64_t j = 0; j < c; ++j) orow[j] = row[j] - lse;
    }
  };
  if (n * c < 1 << 14)
    rows(0, n);
  else
    core::parallel_for_blocked(0, n, rows);
}

void abs_bits_scalar(const float* v, std::uint32_t* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i)
    out[i] = std::bit_cast<std::uint32_t>(v[i]) & 0x7fffffffu;
}

std::int64_t scan_abs_gt_scalar(const float* v, std::int64_t n,
                                std::uint32_t threshold, std::uint32_t* out) {
  std::int64_t cnt = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    if ((std::bit_cast<std::uint32_t>(v[i]) & 0x7fffffffu) > threshold)
      out[cnt++] = static_cast<std::uint32_t>(i);
  }
  return cnt;
}

std::int64_t scan_abs_eq_scalar(const float* v, std::int64_t n,
                                std::uint32_t threshold, std::uint32_t* out,
                                std::int64_t max_out) {
  std::int64_t cnt = 0;
  for (std::int64_t i = 0; i < n && cnt < max_out; ++i) {
    if ((std::bit_cast<std::uint32_t>(v[i]) & 0x7fffffffu) == threshold)
      out[cnt++] = static_cast<std::uint32_t>(i);
  }
  return cnt;
}

void qsgd_ratios_scalar(const float* g, double norm, double s, double* out,
                        std::int64_t n) {
  // Operation order matches the historical QsgdCodec loop exactly:
  // float abs, exact promotion to double, divide, multiply.
  for (std::int64_t i = 0; i < n; ++i)
    out[i] = static_cast<double>(std::abs(g[i])) / norm * s;
}

void qsgd_unpack_scalar(const std::int8_t* levels, float scale, float denom,
                        float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i)
    out[i] = scale * static_cast<float>(levels[i]) / denom;
}

// CRC-32 slicing-by-8 tables: row 0 is the classic byte table of the
// reflected polynomial 0xEDB88320, and row k maps a byte to its effect on
// the CRC k bytes further down the stream.
constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}();

// Eight bytes per step through eight independent lookups, the CRC's own
// bytes folded into the first four. Bytes are assembled explicitly, so the
// result does not depend on host byte order.
std::uint32_t crc32_scalar(std::uint32_t crc, const std::uint8_t* p,
                           std::size_t n) {
  const auto& t = kCrcTables;
  std::uint32_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo =
        c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
             std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
        t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return ~c;
}

// GF(256) is linear over GF(2), so c * x splits into the products of x's
// two nibbles: one lookup in each half of the table.
void gf256_mul_add_scalar(const std::uint8_t* tbl, const std::uint8_t* src,
                          std::uint8_t* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    dst[i] ^= static_cast<std::uint8_t>(tbl[src[i] & 0x0Fu] ^
                                        tbl[16 + (src[i] >> 4)]);
}

}  // namespace

const KernelTable& scalar_kernel_table() {
  static const KernelTable table = {
      /*matmul=*/matmul_scalar,
      /*matmul_tn=*/matmul_tn_scalar,
      /*matmul_nt=*/matmul_nt_scalar,
      /*matmul_nt_fold=*/matmul_nt_fold_scalar,
      /*fold_col_tile=*/0,
      /*add=*/add_scalar,
      /*mul=*/mul_scalar,
      /*scale=*/scale_scalar,
      /*relu=*/relu_scalar,
      /*log_softmax_rows=*/log_softmax_rows_scalar,
      /*abs_bits=*/abs_bits_scalar,
      /*scan_abs_gt=*/scan_abs_gt_scalar,
      /*scan_abs_eq=*/scan_abs_eq_scalar,
      /*qsgd_ratios=*/qsgd_ratios_scalar,
      /*qsgd_unpack=*/qsgd_unpack_scalar,
      /*crc32=*/crc32_scalar,
      /*gf256_mul_add=*/gf256_mul_add_scalar,
  };
  return table;
}

}  // namespace adafl::tensor
