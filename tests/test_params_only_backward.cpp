// Model::compute_gradients runs the params-only entry (Layer::backward_params)
// on the network, so the first layer with parameters computes no input
// gradient. Every parameter gradient must still equal, bit for bit, the one
// the full standalone backward chain gives with the same weights and batch:
// for each architecture, at 1 and 4 lanes, on both kernel backends.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "data/har.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "tensor/dispatch.h"

namespace adafl::nn {
namespace {

struct Arch {
  std::string name;
  ModelFactory factory;
  Shape input;  ///< batch shape, [N, ...]
  std::int64_t classes;
};

std::vector<Arch> architectures() {
  const ImageSpec gray{1, 16, 16, 10};
  const ImageSpec color{3, 16, 16, 10};
  return {
      {"paper_cnn", paper_cnn_factory(gray, 3), {20, 1, 16, 16}, 10},
      // The MLP's first layer, Flatten, has no parameters.
      {"mlp", mlp_factory(gray, 32, 3), {20, 1, 16, 16}, 10},
      {"resnet_lite", resnet_lite_factory(color, 3), {6, 3, 16, 16}, 10},
      {"vgg_lite", vgg_lite_factory(color, 3), {6, 3, 16, 16}, 10},
      {"har_cnn", data::har_cnn_factory(32, 4, 3), {12, 3, 1, 32}, 4},
  };
}

/// Overwrites every weight with a draw from U[-0.2, 0.2): the factories'
/// zeroed heads would otherwise send no gradient below the last layer.
void randomize(Model& m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> w(static_cast<std::size_t>(m.param_count()));
  for (float& v : w) v = static_cast<float>(rng.uniform(-0.2, 0.2));
  m.set_flat(w);
}

/// The gradients of the full chain: forward, loss, and backward() through
/// every layer down to the input, on a workspace of its own.
std::vector<float> full_chain_grads(Model& m, const Batch& b) {
  m.zero_grad();
  Workspace ws;
  const Tensor& logits = m.net().forward(b.inputs, /*training=*/true, ws);
  Tensor& grad = ws.get(logits.shape());
  (void)softmax_cross_entropy_into(logits, b.labels, grad, ws);
  (void)m.net().backward(grad, ws);
  return m.get_flat_grad();
}

TEST(ParamsOnlyBackward, GradientsMatchTheFullChainBitwise) {
  struct Restore {
    ~Restore() {
      core::set_num_threads(0);
      tensor::set_kernel_backend(tensor::KernelBackend::kScalar);
    }
  } restore;
  std::vector<tensor::KernelBackend> backends{tensor::KernelBackend::kScalar};
  if (tensor::cpu_supports_avx2())
    backends.push_back(tensor::KernelBackend::kAvx2);
  for (const Arch& arch : architectures()) {
    Rng rng(11);
    Batch b;
    b.inputs = Tensor::randn(arch.input, rng);
    for (std::int64_t i = 0; i < arch.input[0]; ++i)
      b.labels.push_back(static_cast<std::int32_t>(i % arch.classes));
    for (tensor::KernelBackend backend : backends) {
      tensor::set_kernel_backend(backend);
      for (int threads : {1, 4}) {
        core::set_num_threads(threads);
        SCOPED_TRACE(arch.name + " on " + tensor::kernel_backend_name() +
                     " at " + std::to_string(threads) + " lanes");
        Model params_only = arch.factory();
        Model full = arch.factory();
        randomize(params_only, 5);
        randomize(full, 5);
        params_only.zero_grad();
        (void)params_only.compute_gradients(b);
        const std::vector<float> got = params_only.get_flat_grad();
        const std::vector<float> want = full_chain_grads(full, b);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0);
        // The first layer's weight gradient is live, so the match is not
        // one of zeros.
        const Tensor& first = *params_only.params().front().grad;
        bool live = false;
        for (std::int64_t i = 0; i < first.size(); ++i) live |= first[i] != 0;
        EXPECT_TRUE(live);
      }
    }
  }
}

}  // namespace
}  // namespace adafl::nn
