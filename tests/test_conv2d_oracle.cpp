// Conv2d against a per-sample reference written from public tensor ops.
//
// Conv2d runs a batch in blocks of samples: one im2col and one GEMM per
// block, and the weight gradient folds the per-sample products in sample
// order with matmul_nt_fold_into. The reference below is the per-sample
// layer the blocks replaced: im2col + matmul_into for each sample's output,
// matmul_nt_into of each sample's weight gradient added in sample order,
// matmul_tn_into + col2im for its input gradient, and a double bias sum per
// sample. Forward, dX, dW and db must match it bit for bit whatever block
// size the layer picks for the batch and the lane count, on both backends.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "nn/conv2d.h"
#include "tensor/dispatch.h"
#include "tensor/ops.h"

namespace adafl {
namespace {

using tensor::Conv2dGeom;
using tensor::KernelBackend;
using tensor::Tensor;

struct Geometry {
  const char* name;
  std::int64_t in_c, out_c, kernel, stride, pad, h, w;
};

/// The per-sample layer: its own copy of the parameters and gradients.
struct Reference {
  Tensor w, b, w_grad, b_grad;
  std::int64_t kernel = 1, stride = 1, pad = 0;

  Conv2dGeom geom(const Tensor& x) const {
    return {x.shape()[1], x.shape()[2], x.shape()[3], kernel, stride, pad};
  }

  Tensor forward(const Tensor& x) const {
    const Conv2dGeom g = geom(x);
    const std::int64_t n = x.shape()[0], out_c = w.shape()[0];
    const std::int64_t p = g.out_h() * g.out_w();
    const std::int64_t img = g.in_c * g.in_h * g.in_w;
    Tensor out({n, out_c, g.out_h(), g.out_w()});
    Tensor cols({w.shape()[1], p});
    for (std::int64_t i = 0; i < n; ++i) {
      tensor::im2col({x.data() + i * img, static_cast<std::size_t>(img)}, g,
                     cols);
      Tensor prod({out_c, p});
      tensor::matmul_into(w, cols, prod);
      for (std::int64_t c = 0; c < out_c; ++c)
        for (std::int64_t q = 0; q < p; ++q)
          out[(i * out_c + c) * p + q] = prod[c * p + q] + b[c];
    }
    return out;
  }

  Tensor backward(const Tensor& x, const Tensor& gy) {
    const Conv2dGeom g = geom(x);
    const std::int64_t n = x.shape()[0], out_c = w.shape()[0];
    const std::int64_t p = g.out_h() * g.out_w();
    const std::int64_t img = g.in_c * g.in_h * g.in_w;
    Tensor dx(x.shape());
    Tensor cols({w.shape()[1], p});
    for (std::int64_t i = 0; i < n; ++i) {
      tensor::im2col({x.data() + i * img, static_cast<std::size_t>(img)}, g,
                     cols);
      Tensor dy({out_c, p});
      std::copy_n(gy.data() + i * out_c * p, out_c * p, dy.data());
      Tensor wg(w.shape());
      tensor::matmul_nt_into(dy, cols, wg);
      w_grad += wg;
      for (std::int64_t c = 0; c < out_c; ++c) {
        double acc = 0.0;
        for (std::int64_t q = 0; q < p; ++q) acc += dy[c * p + q];
        b_grad[c] += static_cast<float>(acc);
      }
      Tensor dcols(cols.shape());
      tensor::matmul_tn_into(w, dy, dcols);
      tensor::col2im(dcols, g,
                     {dx.data() + i * img, static_cast<std::size_t>(img)});
    }
    return dx;
  }
};

void expect_same_bits(const Tensor& want, const Tensor& got,
                      const std::string& what) {
  ASSERT_EQ(want.shape(), got.shape()) << what;
  ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                           static_cast<std::size_t>(want.size()) *
                               sizeof(float)))
      << what << " differs from the per-sample reference";
}

class Conv2dOracle : public ::testing::TestWithParam<Geometry> {
 protected:
  void TearDown() override {
    core::set_num_threads(0);
    tensor::set_kernel_backend(KernelBackend::kScalar);
  }
};

TEST_P(Conv2dOracle, BlocksMatchPerSampleReferenceBitwise) {
  const Geometry geo = GetParam();
  std::vector<KernelBackend> backends{KernelBackend::kScalar};
  if (tensor::cpu_supports_avx2()) backends.push_back(KernelBackend::kAvx2);
  for (KernelBackend backend : backends) {
    tensor::set_kernel_backend(backend);
    for (int threads : {1, 2, 4}) {
      core::set_num_threads(threads);
      // One sample, one block, and several blocks with a short last one:
      // a layer with few output positions takes 16 samples per block on
      // one lane (fewer on several), one with many takes one.
      for (std::int64_t batch : {1, 3, 16, 37}) {
        const std::string at = std::string(geo.name) + " backend=" +
                               tensor::kernel_backend_name(backend) +
                               " threads=" + std::to_string(threads) +
                               " batch=" + std::to_string(batch);
        tensor::Rng rng(static_cast<std::uint64_t>(batch * 31 + threads));
        nn::Conv2d conv(geo.in_c, geo.out_c, geo.kernel, rng, geo.stride,
                        geo.pad);
        std::vector<nn::ParamRef> params;
        conv.collect_params(params);
        ASSERT_EQ(params.size(), 2u);
        for (auto& v : params[1].value->flat())
          v = static_cast<float>(rng.normal());
        Reference ref{*params[0].value,
                      *params[1].value,
                      Tensor(params[0].value->shape()),
                      Tensor(params[1].value->shape()),
                      geo.kernel,
                      geo.stride,
                      geo.pad};
        nn::Workspace ws;
        // Two accumulated training steps, then an eval-mode forward
        // followed by backward (the layer rebuilds its columns).
        for (int step = 0; step < 3; ++step) {
          const bool training = step < 2;
          const Tensor x =
              Tensor::randn({batch, geo.in_c, geo.h, geo.w}, rng);
          ws.reset();
          const Tensor& y = conv.forward(x, training, ws);
          const Tensor want_y = ref.forward(x);
          expect_same_bits(want_y, y, at + " step " +
                                          std::to_string(step) + " forward");
          const Tensor gy = Tensor::randn(y.shape(), rng);
          const Tensor& dx = conv.backward(gy, ws);
          expect_same_bits(ref.backward(x, gy), dx,
                           at + " step " + std::to_string(step) + " dX");
          expect_same_bits(ref.w_grad, *params[0].grad,
                           at + " step " + std::to_string(step) + " dW");
          expect_same_bits(ref.b_grad, *params[1].grad,
                           at + " step " + std::to_string(step) + " db");
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layers, Conv2dOracle,
    ::testing::Values(Geometry{"paper_conv1", 1, 20, 5, 1, 0, 16, 16},
                      Geometry{"paper_conv2", 20, 50, 5, 1, 0, 6, 6},
                      Geometry{"padded_3x3", 8, 16, 3, 1, 1, 10, 10},
                      Geometry{"strided_padded", 3, 6, 3, 2, 1, 9, 9}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace adafl
