// Runtime-dispatched kernel backends.
//
// Every hot loop in the tensor/compress stack is reachable through one
// process-wide KernelTable of raw-pointer kernels. Two backends exist:
//
//   * scalar — the historical loop bodies, unchanged. This is the bitwise
//     reference implementation: all golden/determinism/trace-equivalence
//     guarantees are stated against it, and it is the default when nothing
//     selects a backend explicitly.
//   * avx2   — AVX2/FMA/PCLMUL implementations (src/tensor/kernels_avx2.cpp,
//     compiled with -mavx2 -mfma -mpclmul) selected only when the CPU
//     reports the features at startup. Matmul-family results differ from
//     scalar by rounding (FMA + vector accumulation order) — epsilon
//     equivalent, pinned by tests/test_simd_kernels.cpp. The elementwise,
//     log-softmax, top-k scan, QSGD pack/unpack, CRC-32 and GF(256)
//     multiply-add kernels are bitwise identical to scalar by construction
//     (same per-element operations; log-softmax vectorizes only the max
//     scan and the broadcast-subtract, both exact; CRC-32 and GF(256) are
//     exact arithmetic).
//
// Determinism contract: WITHIN a backend, every kernel is bitwise
// deterministic at any thread count (per-element accumulation chains are
// independent of the parallel partition), so the PR-1 guarantee "same
// config, same bits, any thread count" holds per backend.
//
// Selection precedence: set_kernel_backend() (CLI --kernel-backend flag,
// tests) > ADAFL_KERNEL_BACKEND environment variable > scalar. "auto"
// resolves to avx2 when supported, scalar otherwise; requesting "avx2" on
// hardware without AVX2+FMA+PCLMUL is a hard error, never a silent
// fallback.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace adafl::tensor {

enum class KernelBackend { kScalar = 0, kAvx2 = 1 };

/// The dispatchable kernel set. All pointers are non-null in a registered
/// table. Shape/size validation happens in the ops.h / codec.h entry
/// points; these functions assume valid inputs.
struct KernelTable {
  // ---- matmul family (row-major; contracts match tensor/ops.h) ----
  /// C[m,n] += A[m,k] * B[k,n].
  void (*matmul)(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n);
  /// C[m,n] += A[k,m]^T * B[k,n].
  void (*matmul_tn)(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n);
  /// C[m,n] = A[m,k] * B[n,k]^T (fully overwrites C).
  void (*matmul_nt)(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n);
  /// C[m,n] += sum over s of A_s * B_s^T, where A_s and B_s are the s-th
  /// k-segment of length seg (k a multiple of seg > 0) and C's rows are ldc
  /// floats apart (ldc >= n, so C may be a column range of a wider matrix).
  /// Each segment's product is formed per element exactly as matmul_nt
  /// forms it, then added to C in segment order.
  void (*matmul_nt_fold)(const float* a, const float* b, float* c,
                         std::int64_t m, std::int64_t k, std::int64_t n,
                         std::int64_t ldc, std::int64_t seg);
  /// Columns per register tile of matmul_nt_fold, so C splits across lanes
  /// into whole tiles; every row block of a tile repacks its B panel, so
  /// rows split only when there are fewer tiles than lanes. 0: no column
  /// tiles and no packing, so C splits by rows.
  std::int64_t fold_col_tile;

  // ---- elementwise over n contiguous floats ----
  void (*add)(const float* a, const float* b, float* out, std::int64_t n);
  void (*mul)(const float* a, const float* b, float* out, std::int64_t n);
  void (*scale)(const float* a, float s, float* out, std::int64_t n);
  /// out[i] = max(a[i], 0); mask[i] = a[i] > 0 ? 1 : 0.
  void (*relu)(const float* a, float* out, float* mask, std::int64_t n);

  /// Row-wise log-softmax of an [n, c] matrix (fully overwrites out).
  void (*log_softmax_rows)(const float* logits, float* out, std::int64_t n,
                           std::int64_t c);

  // ---- compress-layer kernels ----
  /// out[i] = IEEE-754 bit pattern of |v[i]| (sign bit cleared). Non-negative
  /// floats order identically as unsigned integers, so magnitude comparisons
  /// downstream are integer compares.
  void (*abs_bits)(const float* v, std::uint32_t* out, std::int64_t n);
  /// Appends every index i with abs_bits(v[i]) > threshold to out (ascending
  /// index order); returns the count. Caller guarantees capacity.
  std::int64_t (*scan_abs_gt)(const float* v, std::int64_t n,
                              std::uint32_t threshold, std::uint32_t* out);
  /// Like scan_abs_gt but == threshold, stopping after max_out hits.
  std::int64_t (*scan_abs_eq)(const float* v, std::int64_t n,
                              std::uint32_t threshold, std::uint32_t* out,
                              std::int64_t max_out);
  /// QSGD pack half: out[i] = |double(g[i])| / norm * s  (norm > 0).
  void (*qsgd_ratios)(const float* g, double norm, double s, double* out,
                      std::int64_t n);
  /// QSGD/ternary unpack half: out[i] = scale * float(levels[i]) / denom.
  void (*qsgd_unpack)(const std::int8_t* levels, float scale, float denom,
                      float* out, std::int64_t n);

  // ---- byte-stream kernels ----
  /// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of n bytes,
  /// continuing `crc` in the zlib convention: 0 starts a stream, and a
  /// returned value passed back in continues it. Frames, datagrams,
  /// checkpoints and weight fingerprints all run through this entry.
  std::uint32_t (*crc32)(std::uint32_t crc, const std::uint8_t* data,
                         std::size_t n);
  /// GF(256) multiply-accumulate of n bytes: dst[i] ^= c * src[i], where
  /// `tbl` is c's 32-byte split-nibble product table (tbl[x] = c * x and
  /// tbl[16 + x] = c * (x << 4) for x < 16), so the kernel holds no field
  /// arithmetic of its own. src and dst do not overlap. Reed-Solomon encode
  /// and repair (net/fec/rs.h) are sums of this one kernel.
  void (*gf256_mul_add)(const std::uint8_t* tbl, const std::uint8_t* src,
                        std::uint8_t* dst, std::size_t n);
};

/// The scalar reference table (defined in kernels_scalar.cpp).
const KernelTable& scalar_kernel_table();

/// True when this build carries the AVX2 backend AND the CPU reports
/// AVX2 + FMA + PCLMUL at runtime.
bool cpu_supports_avx2();

/// Comma-separated CPU SIMD features detected at runtime (e.g.
/// "avx2,fma,pclmul,avx512f"); "none" when nothing relevant is present.
std::string cpu_feature_string();

/// Currently active backend. Before any explicit selection, the first call
/// resolves ADAFL_KERNEL_BACKEND (auto|scalar|avx2); unset means scalar.
KernelBackend kernel_backend();

/// The active kernel table (hot-path accessor: one relaxed atomic load).
const KernelTable& active_kernels();

/// Explicitly selects a backend. Throws adafl::CheckError when kAvx2 is
/// requested but unsupported. Not thread-safe against in-flight kernels;
/// call at startup or between rounds (tests).
void set_kernel_backend(KernelBackend b);

/// Parses "auto" | "scalar" | "avx2" ("" == "auto") into a concrete
/// backend: "auto" picks avx2 when supported, else scalar. Throws
/// adafl::CheckError on unknown names or an unsupported explicit "avx2".
KernelBackend resolve_kernel_backend(const std::string& name);

/// "scalar" or "avx2".
const char* kernel_backend_name(KernelBackend b);

/// kernel_backend_name(kernel_backend()).
const char* kernel_backend_name();

}  // namespace adafl::tensor
