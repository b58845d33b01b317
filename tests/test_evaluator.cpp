// Chunked evaluation. Model::accuracy scores a batch Model::kEvalChunk
// samples at a time, and fl::Evaluator hands runs of chunks to the pool's
// lanes, each on a model of its own. Both must agree with a reference that
// evaluates one sample at a time, at batch sizes around the chunk size and
// at 1-4 lanes, on both kernel backends.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "data/synthetic.h"
#include "fl/trainer_common.h"
#include "nn/models.h"
#include "tensor/dispatch.h"

namespace adafl {
namespace {

using nn::Model;

struct Restore {
  ~Restore() {
    core::set_num_threads(0);
    tensor::set_kernel_backend(tensor::KernelBackend::kScalar);
  }
};

std::vector<tensor::KernelBackend> backends() {
  std::vector<tensor::KernelBackend> out{tensor::KernelBackend::kScalar};
  if (tensor::cpu_supports_avx2()) out.push_back(tensor::KernelBackend::kAvx2);
  return out;
}

/// Random weights, so predictions vary from sample to sample (the factory's
/// zeroed head would predict class 0 everywhere).
std::vector<float> random_weights(const nn::ModelFactory& factory) {
  Model m = factory();
  tensor::Rng rng(21);
  std::vector<float> w(static_cast<std::size_t>(m.param_count()));
  for (float& v : w) v = static_cast<float>(rng.uniform(-0.3, 0.3));
  return w;
}

/// Argmax of each sample's logits, from a forward pass of that sample alone.
std::vector<std::int32_t> one_at_a_time(Model& m, const data::Dataset& d) {
  std::vector<std::int32_t> out;
  for (std::int32_t i = 0; i < d.size(); ++i) {
    const std::vector<std::int32_t> idx{i};
    const tensor::Tensor logits = m.forward(d.gather(idx).inputs);
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < logits.shape()[1]; ++j)
      if (logits[j] > logits[best]) best = j;
    out.push_back(static_cast<std::int32_t>(best));
  }
  return out;
}

std::int64_t matches(const std::vector<std::int32_t>& a,
                     const std::vector<std::int32_t>& b, std::size_t from) {
  std::int64_t n = 0;
  for (std::size_t i = from; i < a.size(); ++i) n += a[i] == b[i];
  return n;
}

struct Arch {
  const char* name;
  nn::ModelFactory factory;
};

std::vector<Arch> architectures() {
  const nn::ImageSpec spec = data::mnist_like(1, 1).spec;
  return {{"paper_cnn", nn::paper_cnn_factory(spec, 4)},
          {"mlp", nn::mlp_factory(spec, 32, 4)}};
}

TEST(Evaluator, ChunkedAccuracyMatchesOneSampleAtATime) {
  Restore restore;
  const std::int64_t chunk = Model::kEvalChunk;
  for (const Arch& arch : architectures()) {
    const std::vector<float> w = random_weights(arch.factory);
    for (tensor::KernelBackend backend : backends()) {
      tensor::set_kernel_backend(backend);
      core::set_num_threads(1);
      const data::Dataset all = data::make_synthetic(data::mnist_like(401, 6));
      Model ref = arch.factory();
      ref.set_flat(w);
      const std::vector<std::int32_t> ref_pred = one_at_a_time(ref, all);
      for (std::int64_t n : {std::int64_t{1}, std::int64_t{7}, chunk - 1,
                             chunk, chunk + 1, std::int64_t{401}}) {
        std::vector<std::int32_t> idx(static_cast<std::size_t>(n));
        std::iota(idx.begin(), idx.end(), 0);
        const nn::Batch batch = all.gather(idx);
        const std::vector<std::int32_t> pred(ref_pred.begin(),
                                             ref_pred.begin() + n);
        const std::int64_t want = matches(pred, batch.labels, 0);
        // Labelled with the reference's own predictions, every sample of
        // every chunk must be counted correct.
        const data::Dataset as_predicted(batch.inputs, pred);
        const data::Dataset labelled(batch.inputs, batch.labels);
        fl::Evaluator eval(arch.factory, &labelled);
        fl::Evaluator eval_pred(arch.factory, &as_predicted);
        for (int threads : {1, 2, 3, 4}) {
          core::set_num_threads(threads);
          SCOPED_TRACE(std::string(arch.name) + " on " +
                       tensor::kernel_backend_name() + ", " +
                       std::to_string(n) + " samples at " +
                       std::to_string(threads) + " lanes");
          Model m = arch.factory();
          m.set_flat(w);
          EXPECT_EQ(m.accuracy(batch),
                    static_cast<double>(want) / static_cast<double>(n));
          EXPECT_EQ(m.count_correct(as_predicted.all(), 0, n), n);
          // A range that starts inside a chunk.
          const std::int64_t from = n / 3;
          EXPECT_EQ(
              m.count_correct(batch, from, n),
              matches(pred, batch.labels, static_cast<std::size_t>(from)));
          fl::TrainLog log;
          eval.end_round(log, w, 1, 0.0, 0, 0.0, true, nullptr);
          eval_pred.end_round(log, w, 1, 0.0, 0, 0.0, true, nullptr);
          ASSERT_EQ(log.records.size(), 2u);
          EXPECT_EQ(log.records[0].test_accuracy,
                    static_cast<double>(want) / static_cast<double>(n));
          EXPECT_EQ(log.records[1].test_accuracy, 1.0);
        }
      }
    }
  }
}

TEST(Evaluator, ChunkLogitsMatchOneSampleAtATimeBitwise) {
  // The premise of chunking: a sample's logits do not depend on the samples
  // that share its forward pass.
  Restore restore;
  const nn::ImageSpec spec = data::mnist_like(1, 1).spec;
  const nn::ModelFactory factory = nn::paper_cnn_factory(spec, 4);
  const std::vector<float> w = random_weights(factory);
  const data::Dataset d =
      data::make_synthetic(data::mnist_like(Model::kEvalChunk, 8));
  for (tensor::KernelBackend backend : backends()) {
    tensor::set_kernel_backend(backend);
    for (int threads : {1, 4}) {
      core::set_num_threads(threads);
      SCOPED_TRACE(std::string(tensor::kernel_backend_name()) + " at " +
                   std::to_string(threads) + " lanes");
      Model m = factory();
      m.set_flat(w);
      const tensor::Tensor chunk = m.forward(d.all().inputs);
      const std::int64_t c = chunk.shape()[1];
      for (std::int32_t i = 0; i < d.size(); ++i) {
        const std::vector<std::int32_t> idx{i};
        const tensor::Tensor one = m.forward(d.gather(idx).inputs);
        EXPECT_EQ(std::memcmp(one.data(), chunk.data() + i * c,
                              static_cast<std::size_t>(c) * sizeof(float)),
                  0)
            << "sample " << i;
      }
    }
  }
}

TEST(Evaluator, LaneModelsAreBuiltAtTheFirstEvaluation) {
  // The constructor builds one model (the run's initial weights); the
  // other lanes' models come with the first evaluation, so a trainer's
  // set-up time does not grow with the pool.
  Restore restore;
  core::set_num_threads(4);
  const data::Dataset test = data::make_synthetic(data::mnist_like(60, 2));
  const nn::ModelFactory base = nn::mlp_factory(test.spec(), 16, 3);
  int built = 0;
  const nn::ModelFactory counting = [&] {
    ++built;
    return base();
  };
  fl::Evaluator eval(counting, &test);
  EXPECT_EQ(built, 1);
  EXPECT_EQ(eval.weights(), base().get_flat());
  fl::TrainLog log;
  eval.end_round(log, eval.weights(), 1, 0.0, 0, 0.0, true, nullptr);
  EXPECT_EQ(built, 4);
  eval.end_round(log, eval.weights(), 2, 0.0, 0, 0.0, false, nullptr);
  eval.end_round(log, eval.weights(), 3, 0.0, 0, 0.0, true, nullptr);
  EXPECT_EQ(built, 4);
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.records[0].test_accuracy, log.records[1].test_accuracy);
}

}  // namespace
}  // namespace adafl
