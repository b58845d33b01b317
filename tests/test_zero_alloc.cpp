// Steady-state allocation regression tests for the arena-backed hot path.
//
// The contract: after one warmup round, a client's local-training round —
// batch loading, forward/backward, optimizer steps, delta extraction, and
// DGC compression — performs ZERO tensor heap allocations. These tests pin
// it with the process-wide tensor::tensor_allocations() counter, so any
// future change that reintroduces a hidden Tensor construction on the hot
// path fails here with an exact count.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "compress/dgc.h"
#include "core/adafl_sync.h"
#include "core/parallel.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "fl_fixtures.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "net/link.h"
#include "net/transport/client_protocol.h"
#include "nn/model.h"
#include "nn/models.h"
#include "nn/optimizer.h"
#include "tensor/dispatch.h"
#include "tensor/tensor.h"

namespace adafl {
namespace {

TEST(ZeroAlloc, ModelTrainBatchSteadyState) {
  auto task = fl::testing::make_mini_task(1);
  nn::Model model(task.factory());
  // momentum > 0 exercises the velocity-state path of the optimizer, which
  // historically allocated on reset.
  nn::Sgd opt(0.1f, 0.9f);

  const std::vector<std::int32_t> idx{0, 1, 2, 3, 4, 5, 6, 7};
  const nn::Batch batch = task.train.gather(idx);
  (void)model.train_batch(batch, opt);  // warmup: arena + grads grow
  (void)model.train_batch(batch, opt);  // settle any lazy second-pass state

  const std::uint64_t before = tensor::tensor_allocations();
  for (int i = 0; i < 3; ++i) (void)model.train_batch(batch, opt);
  EXPECT_EQ(tensor::tensor_allocations() - before, 0u)
      << "train_batch allocated tensors in steady state";
}

TEST(ZeroAlloc, ModelAccuracySteadyState) {
  auto task = fl::testing::make_mini_task(1);
  nn::Model model(task.factory());
  const nn::Batch batch = task.test.all();
  (void)model.accuracy(batch);  // warmup

  const std::uint64_t before = tensor::tensor_allocations();
  (void)model.accuracy(batch);
  EXPECT_EQ(tensor::tensor_allocations() - before, 0u);
}

TEST(ZeroAlloc, PaperCnnTrainAndEvalSteadyState) {
  // The paper CNN at its training batch (20) and a server-sized evaluation
  // (400 samples), at 1 and 4 lanes on both backends: the conv layers' block
  // caches and per-chunk scratch settle after warmup.
  struct Restore {
    ~Restore() {
      core::set_num_threads(0);
      tensor::set_kernel_backend(tensor::KernelBackend::kScalar);
    }
  } restore;
  const data::Dataset data = data::make_synthetic(data::mnist_like(420, 3));
  std::vector<std::int32_t> idx(20);
  for (std::int32_t i = 0; i < 20; ++i) idx[static_cast<std::size_t>(i)] = i;
  const nn::Batch batch = data.gather(idx);
  const nn::Batch eval = data::make_synthetic(data::mnist_like(400, 4)).all();
  std::vector<tensor::KernelBackend> backends{tensor::KernelBackend::kScalar};
  if (tensor::cpu_supports_avx2())
    backends.push_back(tensor::KernelBackend::kAvx2);
  for (tensor::KernelBackend backend : backends) {
    tensor::set_kernel_backend(backend);
    for (int threads : {1, 4}) {
      core::set_num_threads(threads);
      nn::Model model(nn::make_paper_cnn(data.spec(), 5));
      nn::Sgd opt(0.05f, 0.9f);
      for (int i = 0; i < 2; ++i) {  // warmup
        (void)model.train_batch(batch, opt);
        (void)model.accuracy(eval);
      }
      const std::uint64_t before = tensor::tensor_allocations();
      for (int i = 0; i < 3; ++i) {
        (void)model.train_batch(batch, opt);
        (void)model.accuracy(eval);
      }
      EXPECT_EQ(tensor::tensor_allocations() - before, 0u)
          << tensor::kernel_backend_name() << " at " << threads
          << " lanes: paper CNN allocated tensors in steady state";
    }
  }
}

TEST(ZeroAlloc, ClientRoundSteadyState) {
  // The full per-client round the simulator and the deployed client run:
  // train_from_into + compress_into, with every buffer owned by the caller
  // or the client. Round 1 warms; rounds 2+ must not allocate.
  auto task = fl::testing::make_mini_task(2);
  auto clients = fl::make_clients(task.factory, &task.train, task.parts,
                                  task.client, {}, 7);
  nn::Model probe(task.factory());
  std::vector<float> global = probe.get_flat();
  const auto dim = static_cast<std::int64_t>(global.size());

  compress::DgcConfig dgc_cfg;
  dgc_cfg.momentum = 0.9f;  // exercise the momentum/velocity buffers
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
      << "client round allocated tensors in steady state";
}

TEST(ZeroAlloc, TracedClientRoundSteadyState) {
  // Structured tracing rides along with the hot path (the trainers record
  // per-selection and per-delivery events and flush at round boundaries);
  // an *enabled* tracer must not break the steady-state zero-tensor-
  // allocation guarantee above.
  auto task = fl::testing::make_mini_task(2);
  auto clients = fl::make_clients(task.factory, &task.train, task.parts,
                                  task.client, {}, 7);
  nn::Model probe(task.factory());
  std::vector<float> global = probe.get_flat();
  const auto dim = static_cast<std::int64_t>(global.size());

  std::vector<compress::DgcCompressor> comps;
  for (std::size_t i = 0; i < clients.size(); ++i)
    comps.emplace_back(dim, compress::DgcConfig{});

  const std::string path = ::testing::TempDir() + "zero_alloc_trace.jsonl";
  metrics::Tracer tracer;
  tracer.open(path, metrics::RunManifest{});

  std::vector<fl::FlClient::LocalResult> results(clients.size());
  std::vector<compress::EncodedGradient> msgs(clients.size());
  int round = 0;
  auto one_round = [&] {
    ++round;
    tracer.record(metrics::ev_round_start(round, 0.0));
    for (std::size_t i = 0; i < clients.size(); ++i) {
      const int id = static_cast<int>(i);
      tracer.record(metrics::ev_client_selected(round, id, 0.5, 8.0));
      clients[i].train_from_into(global, results[i]);
      comps[i].compress_into(results[i].delta, 8.0, msgs[i]);
      tracer.record(metrics::ev_update_delivered(
          round, id, msgs[i].wire_bytes, 8, results[i].mean_loss));
    }
    tracer.record(metrics::ev_round_end(
        round, static_cast<int>(clients.size()), 1.0, false, 0.0, 0.0));
    tracer.flush();
  };

  one_round();  // warmup
  const std::uint64_t before = tensor::tensor_allocations();
  one_round();
  one_round();
  EXPECT_EQ(tensor::tensor_allocations() - before, 0u)
      << "tracing allocated tensors in steady state";
  tracer.close();
  EXPECT_GT(metrics::read_trace_file(path).events.size(), 0u);
  std::remove(path.c_str());
}

TEST(ZeroAlloc, ClientProtocolRoundsSteadyState) {
  // The deployed round itself, as ClientSession and flswarm run it:
  // ClientProtocol handling MODEL (train + score), then SELECT (compress +
  // encode) or SKIP (accumulate). Round 1 warms; rounds 2+ must not
  // allocate.
  using namespace net::transport;
  auto task = fl::testing::make_mini_task(2);
  nn::Model probe(task.factory());
  ModelPayload model;
  model.global = probe.get_flat();
  model.g_hat.assign(model.global.size(), 0.01f);
  WelcomeInfo w;
  w.param_count = model.global.size();
  w.params.dgc.momentum = 0.9f;
  w.params.accumulate_unselected = true;
  ClientProtocol proto(
      0, [&task](const std::map<std::string, std::string>&, int id,
                 const core::AdaFlParams&) {
        return fl::make_client(task.factory, &task.train, task.parts,
                               task.client, {}, 7, id);
      });
  proto.handle(Frame{MsgType::kWelcome, 0, kServerId, encode_welcome(w)});
  const std::vector<std::uint8_t> model_payload = encode_model(model);
  auto one_round = [&](std::uint32_t round, bool selected) {
    proto.handle(Frame{MsgType::kModel, round, kServerId, model_payload});
    proto.handle(selected ? Frame{MsgType::kSelect, round, kServerId,
                                  encode_f64(8.0)}
                          : Frame{MsgType::kSkip, round, kServerId, {}});
  };

  one_round(1, true);  // warmup
  const std::uint64_t before = tensor::tensor_allocations();
  one_round(2, true);
  one_round(3, false);
  one_round(4, true);
  EXPECT_EQ(tensor::tensor_allocations() - before, 0u)
      << "ClientProtocol allocated tensors in steady state";
  EXPECT_EQ(proto.rounds_trained(), 4);
  EXPECT_EQ(proto.updates_sent(), 3);
  EXPECT_EQ(proto.skips(), 1);
}

TEST(ZeroAlloc, AdaFlSyncTrainerRoundsSteadyState) {
  // The whole simulated AdaFL round as AdaFlSyncTrainer runs it on the
  // pool: download draws, parallel train + score, selection, parallel
  // compress or accumulate, uploads, aggregation and evaluation. Lossy links
  // fail some uploads and K = 2 of 4 leaves clients unselected. Rounds 1-2
  // warm; no later round may allocate, at 1 lane or at 4. The MLP task keeps
  // this exact: a CNN client's per-chunk conv scratch depends on which lane
  // trained it. With a phase registry attached (--profile), recording the
  // round's phases allocates no tensor either, and each phase runs once per
  // round.
  struct ThreadGuard {
    ~ThreadGuard() { core::set_num_threads(0); }
  } guard;
  const int rounds = 6;
  for (const bool profiled : {false, true}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(threads);
      SCOPED_TRACE(profiled ? "phase registry attached" : "no phase registry");
      core::set_num_threads(threads);
      metrics::Registry phases;
      metrics::PhaseSink sink(profiled ? &phases : nullptr);
      auto task = fl::testing::make_mini_task(4);
      core::AdaFlSyncConfig cfg;
      cfg.rounds = rounds;
      cfg.eval_every = 1;
      cfg.client = task.client;
      cfg.links = net::make_fleet(4, 0.5, net::LinkQuality::kGood,
                                  net::LinkQuality::kLossy);
      cfg.seed = 7;
      cfg.params.max_selected = 2;
      cfg.params.compression.warmup_rounds = 1;
      std::uint64_t after_round2 = 0;
      std::uint64_t after_last = 0;
      cfg.on_round_end = [&](int round) {
        if (round == 2) after_round2 = tensor::tensor_allocations();
        if (round == rounds) after_last = tensor::tensor_allocations();
      };
      core::AdaFlSyncTrainer trainer(cfg, task.factory, &task.train,
                                     task.parts, &task.test);
      const fl::TrainLog log = trainer.run();
      ASSERT_EQ(static_cast<int>(log.records.size()), rounds);
      EXPECT_EQ(after_last - after_round2, 0u)
          << "AdaFlSyncTrainer rounds 3-" << rounds
          << " allocated tensors in steady state";
      const std::uint64_t runs = profiled ? rounds : 0;
      for (const char* phase :
           {"client-train", "compress", "aggregate", "eval"})
        EXPECT_EQ(
            phases.histogram(std::string("profile.") + phase + "_ms").count(),
            runs)
            << phase;
    }
  }
}

TEST(ZeroAlloc, WarmupDoesAllocate) {
  // Sanity check on the counter itself: the warmup round is NOT free, so a
  // zero in the tests above means reuse, not a dead counter.
  auto task = fl::testing::make_mini_task(1);
  auto clients = fl::make_clients(task.factory, &task.train, task.parts,
                                  task.client, {}, 7);
  nn::Model probe(task.factory());
  std::vector<float> global = probe.get_flat();

  fl::FlClient::LocalResult res;
  const std::uint64_t before = tensor::tensor_allocations();
  clients[0].train_from_into(global, res);
  EXPECT_GT(tensor::tensor_allocations() - before, 0u);
}

}  // namespace
}  // namespace adafl
