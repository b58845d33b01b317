// SIMD kernel backend tests: avx2-vs-scalar twins, determinism, dispatch.
//
// The contract under test (see docs/performance.md "Kernel dispatch"):
//   - scalar is the bitwise reference; avx2 matmul-family results agree with
//     it to float epsilon (different accumulation order, same math);
//   - avx2 elementwise / log-softmax / top-k / QSGD / CRC-32 / GF(256)
//     multiply-add kernels are bitwise identical to scalar by construction;
//   - within any one backend, results are bitwise deterministic across
//     thread counts;
//   - the dispatched hot path keeps the steady-state zero-tensor-allocation
//     guarantee.
// Every avx2 case skips (not fails) on machines without AVX2+FMA+PCLMUL.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "compress/dgc.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "core/parallel.h"
#include "fl/client.h"
#include "fl_fixtures.h"
#include "gradcheck.h"
#include "nn/conv2d.h"
#include "net/fec/gf256.h"
#include "net/transport/crc32.h"
#include "nn/linear.h"
#include "nn/models.h"
#include "tensor/dispatch.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace adafl {
namespace {

using tensor::KernelBackend;
using tensor::Tensor;

/// RAII: run a scope under one backend, restore scalar after (tests in this
/// binary must not leak a backend into each other).
class BackendScope {
 public:
  explicit BackendScope(KernelBackend b) { tensor::set_kernel_backend(b); }
  ~BackendScope() { tensor::set_kernel_backend(KernelBackend::kScalar); }
};

#define SKIP_WITHOUT_AVX2()                                          \
  if (!tensor::cpu_supports_avx2()) {                                \
    GTEST_SKIP() << "no AVX2+FMA+PCLMUL on this machine ("           \
                 << tensor::cpu_feature_string() << ")";             \
  }

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.flat().data(), b.flat().data(),
                           a.flat().size() * sizeof(float)))
      << what << " differs bitwise between backends";
}

void expect_epsilon_equal(const Tensor& a, const Tensor& b, float rel,
                          const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const float ref = a.flat()[i];
    const float got = b.flat()[i];
    ASSERT_NEAR(ref, got, rel * std::max(1.0f, std::abs(ref)))
        << what << " at flat index " << i;
  }
}

TEST(SimdDispatch, ResolveAndQuery) {
  EXPECT_EQ(tensor::resolve_kernel_backend("scalar"), KernelBackend::kScalar);
  EXPECT_STREQ(tensor::kernel_backend_name(KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(tensor::kernel_backend_name(KernelBackend::kAvx2), "avx2");
  EXPECT_THROW((void)tensor::resolve_kernel_backend("neon"),
               CheckError);
  if (tensor::cpu_supports_avx2()) {
    EXPECT_EQ(tensor::resolve_kernel_backend("avx2"), KernelBackend::kAvx2);
    EXPECT_EQ(tensor::resolve_kernel_backend("auto"), KernelBackend::kAvx2);
  } else {
    EXPECT_THROW((void)tensor::resolve_kernel_backend("avx2"),
                 CheckError);
    EXPECT_EQ(tensor::resolve_kernel_backend("auto"), KernelBackend::kScalar);
  }
  // The feature string always names something parseable.
  EXPECT_FALSE(tensor::cpu_feature_string().empty());
}

TEST(SimdDispatch, SetBackendIsObserved) {
  SKIP_WITHOUT_AVX2();
  BackendScope scope(KernelBackend::kAvx2);
  EXPECT_EQ(tensor::kernel_backend(), KernelBackend::kAvx2);
  EXPECT_STREQ(tensor::kernel_backend_name(), "avx2");
  tensor::set_kernel_backend(KernelBackend::kScalar);
  EXPECT_EQ(tensor::kernel_backend(), KernelBackend::kScalar);
}

// ---- avx2-vs-scalar twins ---------------------------------------------

TEST(SimdKernels, MatmulFamilyMatchesScalarToEpsilon) {
  SKIP_WITHOUT_AVX2();
  tensor::Rng rng(11);
  // Ragged sizes exercise every row-tile height (1..6) and n-tail width.
  const std::int64_t cases[][3] = {{1, 1, 1},   {3, 5, 7},   {6, 16, 16},
                                   {7, 33, 17}, {64, 48, 50}, {129, 65, 31}};
  for (const auto& c : cases) {
    const auto m = c[0], k = c[1], n = c[2];
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor at = tensor::transpose2d(a);   // [k, m] for matmul_tn
    Tensor bt = tensor::transpose2d(b);   // [n, k] for matmul_nt

    Tensor c_s, ctn_s, cnt_s;
    {
      BackendScope scope(KernelBackend::kScalar);
      c_s = tensor::matmul(a, b);
      ctn_s = tensor::matmul_tn(at, b);
      cnt_s = tensor::matmul_nt(a, bt);
    }
    BackendScope scope(KernelBackend::kAvx2);
    expect_epsilon_equal(c_s, tensor::matmul(a, b), 1e-5f, "matmul");
    expect_epsilon_equal(ctn_s, tensor::matmul_tn(at, b), 1e-5f, "matmul_tn");
    expect_epsilon_equal(cnt_s, tensor::matmul_nt(a, bt), 1e-5f, "matmul_nt");
  }
}

TEST(SimdKernels, MatmulNtFoldMatchesPerSegmentProductsBitwise) {
  // The fold against its definition from public ops, on each backend: every
  // segment's matmul_nt product added to C in segment order, over a single
  // matrix and over a sequence of blocks. Segment lengths span one column,
  // the paper CNN's two layers (4 and 144) and 300, deeper than one packed
  // panel; m and n leave row and column tails, and m = 70 takes more rows
  // than one pass of a deep segment's running sums.
  std::vector<KernelBackend> backends{KernelBackend::kScalar};
  if (tensor::cpu_supports_avx2()) backends.push_back(KernelBackend::kAvx2);
  struct ThreadGuard {
    ~ThreadGuard() { core::set_num_threads(0); }
  } guard;
  tensor::Rng rng(31);
  for (KernelBackend backend : backends) {
    BackendScope scope(backend);
    for (std::int64_t seg : {1, 4, 144, 300}) {
      for (std::int64_t m : {13, 70}) {
        const std::int64_t n = 37;
        // Enough segments that the fold crosses the parallel grain.
        const std::int64_t nseg = std::max<std::int64_t>(3, 600 / seg);
        const std::int64_t k = nseg * seg;
        std::vector<Tensor> a, b;
        for (int blk = 0; blk < 2; ++blk) {
          a.push_back(Tensor::randn({m, k}, rng));
          b.push_back(Tensor::randn({n, k}, rng));
        }
        const Tensor c0 = Tensor::randn({m, n}, rng);
        Tensor want = c0;
        Tensor want_one = c0;
        for (int blk = 0; blk < 2; ++blk) {
          for (std::int64_t s = 0; s < nseg; ++s) {
            Tensor as({m, seg}), bs({n, seg});
            for (std::int64_t i = 0; i < m; ++i)
              std::copy_n(a[blk].data() + i * k + s * seg, seg,
                          as.data() + i * seg);
            for (std::int64_t j = 0; j < n; ++j)
              std::copy_n(b[blk].data() + j * k + s * seg, seg,
                          bs.data() + j * seg);
            const Tensor prod = tensor::matmul_nt(as, bs);
            want += prod;
            if (blk == 0) want_one += prod;
          }
        }
        for (int threads : {1, 2, 4}) {
          core::set_num_threads(threads);
          const std::string at = std::string(tensor::kernel_backend_name()) +
                                 " seg=" + std::to_string(seg) +
                                 " m=" + std::to_string(m) +
                                 " threads=" + std::to_string(threads);
          const auto same_bits = [](const Tensor& x, const Tensor& y) {
            return std::memcmp(x.data(), y.data(),
                               static_cast<std::size_t>(x.size()) *
                                   sizeof(float)) == 0;
          };
          Tensor got_one = c0;
          tensor::matmul_nt_fold_into(a[0], b[0], got_one, seg);
          EXPECT_TRUE(same_bits(want_one, got_one))
              << at << ": one block differs from per-segment matmul_nt + add";
          Tensor got = c0;
          tensor::matmul_nt_fold_into(a, b, got, seg);
          EXPECT_TRUE(same_bits(want, got))
              << at << ": two blocks differ from per-segment matmul_nt + add";
        }
      }
    }
  }
  Tensor c({2, 3});
  EXPECT_THROW(tensor::matmul_nt_fold_into(Tensor({2, 6}), Tensor({3, 6}), c,
                                           4),
               CheckError);
}

TEST(SimdKernels, ElementwiseBitwiseIdenticalToScalar) {
  SKIP_WITHOUT_AVX2();
  tensor::Rng rng(12);
  // 1031 is odd and > 8 lanes: covers full vectors plus a scalar tail.
  Tensor a = Tensor::randn({1031}, rng);
  Tensor b = Tensor::randn({1031}, rng);
  a.flat()[3] = -0.0f;   // relu must preserve the scalar -0 -> +0 behavior
  a.flat()[5] = 0.0f;

  Tensor add_s({1031}), mul_s({1031}), scale_s({1031});
  Tensor relu_s({1031}), mask_s({1031});
  {
    BackendScope scope(KernelBackend::kScalar);
    tensor::add_into(a, b, add_s);
    tensor::mul_into(a, b, mul_s);
    tensor::scale_into(a, 0.37f, scale_s);
    tensor::relu_into(a, relu_s, mask_s);
  }
  BackendScope scope(KernelBackend::kAvx2);
  Tensor add_v({1031}), mul_v({1031}), scale_v({1031});
  Tensor relu_v({1031}), mask_v({1031});
  tensor::add_into(a, b, add_v);
  tensor::mul_into(a, b, mul_v);
  tensor::scale_into(a, 0.37f, scale_v);
  tensor::relu_into(a, relu_v, mask_v);
  expect_bitwise_equal(add_s, add_v, "add_into");
  expect_bitwise_equal(mul_s, mul_v, "mul_into");
  expect_bitwise_equal(scale_s, scale_v, "scale_into");
  expect_bitwise_equal(relu_s, relu_v, "relu_into");
  expect_bitwise_equal(mask_s, mask_v, "relu mask");
}

TEST(SimdKernels, LogSoftmaxBitwiseIdenticalToScalar) {
  SKIP_WITHOUT_AVX2();
  tensor::Rng rng(13);
  Tensor logits = Tensor::randn({37, 11}, rng);
  Tensor ref;
  {
    BackendScope scope(KernelBackend::kScalar);
    ref = tensor::log_softmax_rows(logits);
  }
  BackendScope scope(KernelBackend::kAvx2);
  expect_bitwise_equal(ref, tensor::log_softmax_rows(logits), "log_softmax");
}

TEST(SimdKernels, TopKSelectionIdenticalIncludingTies) {
  SKIP_WITHOUT_AVX2();
  tensor::Rng rng(14);
  std::vector<float> g(4097);
  for (auto& v : g) v = static_cast<float>(rng.normal());
  // Force magnitude ties straddling a plausible threshold, including a
  // +/- pair (same magnitude bits): tie-break must go to the lower index.
  g[100] = 0.75f;
  g[2000] = -0.75f;
  g[4000] = 0.75f;

  for (std::int64_t k : {1, 7, 64, 1000, 4097}) {
    std::vector<std::uint32_t> ref, out, scratch;
    {
      BackendScope scope(KernelBackend::kScalar);
      ref = compress::top_k_by_magnitude(g, k);
      compress::top_k_by_magnitude_into(g, k, out, scratch);
      ASSERT_EQ(ref, out) << "scalar _into diverged at k=" << k;
    }
    BackendScope scope(KernelBackend::kAvx2);
    compress::top_k_by_magnitude_into(g, k, out, scratch);
    EXPECT_EQ(ref, out) << "avx2 selection diverged at k=" << k;
  }
}

TEST(SimdKernels, QsgdEncodeDecodeBitwiseIdenticalToScalar) {
  SKIP_WITHOUT_AVX2();
  tensor::Rng rng(15);
  std::vector<float> g(2053);
  for (auto& v : g) v = static_cast<float>(rng.normal());

  compress::EncodedGradient ref;
  std::vector<float> ref_dec;
  {
    BackendScope scope(KernelBackend::kScalar);
    compress::QsgdCodec codec(16);
    tensor::Rng enc_rng(99);
    ref = codec.encode(g, enc_rng);
    ref_dec = ref.decode();
  }
  BackendScope scope(KernelBackend::kAvx2);
  compress::QsgdCodec codec(16);
  tensor::Rng enc_rng(99);
  const compress::EncodedGradient got = codec.encode(g, enc_rng);
  ASSERT_EQ(ref.levels, got.levels) << "QSGD levels differ";
  EXPECT_EQ(ref.scale, got.scale);
  EXPECT_EQ(ref.wire_bytes, got.wire_bytes);
  const std::vector<float> got_dec = got.decode();
  ASSERT_EQ(0, std::memcmp(ref_dec.data(), got_dec.data(),
                           ref_dec.size() * sizeof(float)))
      << "QSGD decode differs bitwise";
}

// ---- Gradients under the SIMD backend ---------------------------------

TEST(SimdKernels, GradcheckPassesUnderAvx2) {
  SKIP_WITHOUT_AVX2();
  BackendScope scope(KernelBackend::kAvx2);
  tensor::Rng rng(21);
  {
    nn::Linear layer(12, 9, rng);
    Tensor x = Tensor::randn({5, 12}, rng);
    nn::testing::check_layer_gradients(layer, x, 31);
  }
  {
    nn::Conv2d layer(2, 4, 3, rng, 1, 1);
    Tensor x = Tensor::randn({2, 2, 6, 6}, rng);
    nn::testing::check_layer_gradients(layer, x, 32);
  }
}

// ---- Same-backend determinism across thread counts --------------------

TEST(SimdKernels, BackendIsBitwiseDeterministicAcrossThreadCounts) {
  std::vector<KernelBackend> backends{KernelBackend::kScalar};
  if (tensor::cpu_supports_avx2())
    backends.push_back(KernelBackend::kAvx2);
  tensor::Rng rng(22);
  // 200x173x190 is large enough to cross the parallel-grain threshold, so
  // 2/4-thread runs genuinely partition the rows.
  Tensor a = Tensor::randn({200, 173}, rng);
  Tensor b = Tensor::randn({173, 190}, rng);
  Tensor bt = tensor::transpose2d(b);

  for (KernelBackend backend : backends) {
    BackendScope scope(backend);
    core::set_num_threads(1);
    const Tensor c1 = tensor::matmul(a, b);
    const Tensor cnt1 = tensor::matmul_nt(a, bt);
    for (int threads : {2, 4}) {
      core::set_num_threads(threads);
      expect_bitwise_equal(c1, tensor::matmul(a, b), "matmul vs threads");
      expect_bitwise_equal(cnt1, tensor::matmul_nt(a, bt),
                           "matmul_nt vs threads");
    }
    core::set_num_threads(0);
  }
}

TEST(SimdKernels, ClientTrainingDeterministicWithinBackendAcrossThreads) {
  SKIP_WITHOUT_AVX2();
  BackendScope scope(KernelBackend::kAvx2);
  auto run = [](int threads) {
    core::set_num_threads(threads);
    auto task = fl::testing::make_mini_task(2);
    auto clients = fl::make_clients(task.factory, &task.train, task.parts,
                                    task.client, {}, 7);
    nn::Model probe(task.factory());
    std::vector<float> global = probe.get_flat();
    fl::FlClient::LocalResult res;
    clients[0].train_from_into(global, res);
    core::set_num_threads(0);
    return res.delta;
  };
  const std::vector<float> d1 = run(1);
  const std::vector<float> d4 = run(4);
  ASSERT_EQ(d1.size(), d4.size());
  EXPECT_EQ(0, std::memcmp(d1.data(), d4.data(), d1.size() * sizeof(float)))
      << "avx2 training delta depends on thread count";
}

TEST(SimdKernels, CnnClientTrainingDeterministicAcrossThreads) {
  // A paper-CNN client's local round: both conv layers run in blocks on the
  // pool and fold their weight gradients across it, and the delta must not
  // depend on the lane count, on either backend.
  std::vector<KernelBackend> backends{KernelBackend::kScalar};
  if (tensor::cpu_supports_avx2()) backends.push_back(KernelBackend::kAvx2);
  data::Dataset train = data::make_synthetic(data::mnist_like(200, 5));
  tensor::Rng prng(6);
  const data::Partition parts = data::partition_iid(train.size(), 2, prng);
  const nn::ModelFactory factory = nn::paper_cnn_factory(train.spec(), 8);
  fl::ClientTrainConfig cfg;
  cfg.batch_size = 20;
  cfg.local_steps = 3;
  cfg.lr = 0.05f;
  for (KernelBackend backend : backends) {
    BackendScope scope(backend);
    auto run = [&](int threads) {
      core::set_num_threads(threads);
      auto clients = fl::make_clients(factory, &train, parts, cfg, {}, 7);
      nn::Model probe(factory());
      const std::vector<float> global = probe.get_flat();
      fl::FlClient::LocalResult res;
      clients[0].train_from_into(global, res);
      core::set_num_threads(0);
      return res.delta;
    };
    const std::vector<float> d1 = run(1);
    const std::vector<float> d4 = run(4);
    ASSERT_EQ(d1.size(), d4.size());
    EXPECT_EQ(0, std::memcmp(d1.data(), d4.data(), d1.size() * sizeof(float)))
        << tensor::kernel_backend_name()
        << " CNN training delta depends on thread count";
  }
}

// ---- Zero-allocation guarantee with dispatch enabled -------------------

TEST(SimdKernels, ClientRoundSteadyStateZeroAllocUnderAvx2) {
  SKIP_WITHOUT_AVX2();
  BackendScope scope(KernelBackend::kAvx2);
  auto task = fl::testing::make_mini_task(2);
  auto clients = fl::make_clients(task.factory, &task.train, task.parts,
                                  task.client, {}, 7);
  nn::Model probe(task.factory());
  std::vector<float> global = probe.get_flat();
  const auto dim = static_cast<std::int64_t>(global.size());

  compress::DgcConfig dgc_cfg;
  dgc_cfg.momentum = 0.9f;
  std::vector<compress::DgcCompressor> comps;
  for (std::size_t i = 0; i < clients.size(); ++i)
    comps.emplace_back(dim, dgc_cfg);

  std::vector<fl::FlClient::LocalResult> results(clients.size());
  std::vector<compress::EncodedGradient> msgs(clients.size());
  auto one_round = [&] {
    for (std::size_t i = 0; i < clients.size(); ++i) {
      clients[i].train_from_into(global, results[i]);
      comps[i].compress_into(results[i].delta, 8.0, msgs[i]);
    }
  };

  one_round();  // warmup
  const std::uint64_t before = tensor::tensor_allocations();
  one_round();
  one_round();
  EXPECT_EQ(tensor::tensor_allocations() - before, 0u)
      << "avx2 client round allocated tensors in steady state";
}

// ---- CRC-32 -------------------------------------------------------------

/// Bit-at-a-time CRC-32: the textbook definition, independent of any table.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit)
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  tensor::Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64() >> 56);
  return v;
}

TEST(SimdKernels, Crc32BitwiseIdenticalToScalar) {
  std::vector<KernelBackend> backends = {KernelBackend::kScalar};
  if (tensor::cpu_supports_avx2()) backends.push_back(KernelBackend::kAvx2);
  const std::vector<std::uint8_t> small = random_bytes(16 + 300, 31);
  const std::vector<std::vector<std::uint8_t>> large = {
      random_bytes(137 * 1024, 32), random_bytes(1 << 20, 33)};
  const std::string check = "123456789";
  for (const KernelBackend b : backends) {
    BackendScope scope(b);
    const char* name = tensor::kernel_backend_name(b);
    const auto crc = tensor::active_kernels().crc32;
    EXPECT_EQ(net::transport::crc32(std::span<const std::uint8_t>(
                  reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size())),
              0xCBF43926u)
        << name;
    // Every alignment of every short length, across the 64-byte fold
    // threshold and the 16-byte tails.
    for (std::size_t off = 0; off < 16; ++off)
      for (std::size_t len = 0; len <= 300; ++len)
        ASSERT_EQ(crc(0, small.data() + off, len),
                  crc32_bitwise(small.data() + off, len))
            << name << " offset " << off << " length " << len;
    for (const auto& buf : large)
      EXPECT_EQ(crc(0, buf.data(), buf.size()),
                crc32_bitwise(buf.data(), buf.size()))
          << name << " length " << buf.size();

    // One shot == any three chunks through crc32_update.
    const std::span<const std::uint8_t> s300(small.data(), 300);
    const std::uint32_t whole = net::transport::crc32(s300);
    for (std::size_t a = 0; a <= 300; ++a)
      for (std::size_t c = a; c <= 300; ++c) {
        std::uint32_t v = net::transport::crc32_update(0, s300.first(a));
        v = net::transport::crc32_update(v, s300.subspan(a, c - a));
        v = net::transport::crc32_update(v, s300.subspan(c));
        ASSERT_EQ(v, whole) << name << " split " << a << "/" << c;
      }
    tensor::Rng rng(34);
    for (const auto& buf : large) {
      const std::span<const std::uint8_t> all(buf);
      for (int trial = 0; trial < 20; ++trial) {
        std::size_t a = rng.uniform_index(buf.size() + 1);
        std::size_t c = rng.uniform_index(buf.size() + 1);
        if (a > c) std::swap(a, c);
        std::uint32_t v = net::transport::crc32_update(0, all.first(a));
        v = net::transport::crc32_update(v, all.subspan(a, c - a));
        v = net::transport::crc32_update(v, all.subspan(c));
        EXPECT_EQ(v, net::transport::crc32(all))
            << name << " split " << a << "/" << c << " of " << buf.size();
      }
    }
  }
}

// dst[i] ^= c * src[i] on both backends equals the table-free field
// multiply, for every coefficient, every length up to two vectors plus a
// tail and one datagram shard, at offsets that misalign src and dst.
TEST(SimdKernels, Gf256MulAddBitwiseIdenticalToScalarAndSlowReference) {
  std::vector<KernelBackend> backends = {KernelBackend::kScalar};
  if (tensor::cpu_supports_avx2()) backends.push_back(KernelBackend::kAvx2);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 65; ++n) lengths.push_back(n);
  lengths.push_back(1200);
  const std::vector<std::uint8_t> src = random_bytes(1200 + 3, 41);
  const std::vector<std::uint8_t> init = random_bytes(1200 + 5, 42);
  for (const KernelBackend b : backends) {
    BackendScope scope(b);
    const char* name = tensor::kernel_backend_name(b);
    const auto mul_add = tensor::active_kernels().gf256_mul_add;
    for (int c = 0; c < 256; ++c) {
      const std::uint8_t* tbl = net::fec::kGfNibbles.row[c];
      for (const std::size_t n : lengths) {
        std::vector<std::uint8_t> want = init;
        for (std::size_t i = 0; i < n; ++i)
          want[5 + i] ^=
              net::fec::gf_mul_slow(static_cast<std::uint8_t>(c), src[3 + i]);
        std::vector<std::uint8_t> dst = init;
        mul_add(tbl, src.data() + 3, dst.data() + 5, n);
        ASSERT_EQ(dst, want) << name << " c=" << c << " n=" << n;
      }
    }
  }
}

// ---- Alignment guarantee -----------------------------------------------

TEST(SimdKernels, TensorStorageIs32ByteAligned) {
  tensor::Rng rng(23);
  for (std::int64_t n : {1, 7, 64, 1000}) {
    Tensor t = Tensor::randn({n}, rng);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.flat().data()) % 32, 0u)
        << "size " << n;
    Tensor r;
    r.resize({n, 3});
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(r.flat().data()) % 32, 0u);
  }
}

}  // namespace
}  // namespace adafl
