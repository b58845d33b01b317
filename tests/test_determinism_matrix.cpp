// Unified determinism matrix: every trainer in the library must be
// bit-reproducible under a fixed seed and must actually vary when the seed
// changes (i.e. the seed is wired through, not ignored).
#include <gtest/gtest.h>

#include "core/adafl_async.h"
#include "core/adafl_sync.h"
#include "core/parallel.h"
#include "fl/async_trainer.h"
#include "fl/fedat.h"
#include "fl/sync_trainer.h"
#include "fl_fixtures.h"

namespace adafl {
namespace {

using fl::testing::make_mini_task;

struct RunSignature {
  std::vector<double> accuracies;
  std::int64_t upload_bytes = 0;
  double total_time = 0.0;  ///< the simulated clock, fed by every transfer

  bool operator==(const RunSignature&) const = default;
};

RunSignature signature(const fl::TrainLog& log) {
  RunSignature s;
  for (const auto& r : log.records) s.accuracies.push_back(r.test_accuracy);
  s.upload_bytes = log.ledger.total_upload_bytes();
  s.total_time = log.total_time;
  return s;
}

class DeterminismMatrix : public ::testing::TestWithParam<int> {
 public:
  static RunSignature run(int kind, std::uint64_t seed) {
    auto task = make_mini_task(4);
    switch (kind) {
      case 0: {  // SyncTrainer (FedAvg, faults on to exercise fault RNG)
        fl::SyncConfig cfg;
        cfg.rounds = 6;
        cfg.participation = 0.75;
        cfg.client = task.client;
        cfg.faults.kind = fl::FaultKind::kDropout;
        cfg.faults.unreliable_fraction = 0.5;
        cfg.seed = seed;
        return signature(fl::SyncTrainer(cfg, task.factory, &task.train,
                                         task.parts, &task.test)
                             .run());
      }
      case 1: {  // AsyncTrainer (FedBuff)
        fl::AsyncConfig cfg;
        cfg.algo = fl::AsyncAlgorithm::kFedBuff;
        cfg.duration = 1.5;
        cfg.eval_interval = 0.5;
        cfg.buffer_size = 3;
        cfg.client = task.client;
        cfg.seed = seed;
        return signature(fl::AsyncTrainer(cfg, task.factory, &task.train,
                                          task.parts, &task.test)
                             .run());
      }
      case 2: {  // FedAT
        fl::FedAtConfig cfg;
        cfg.num_tiers = 2;
        cfg.duration = 1.5;
        cfg.eval_interval = 0.5;
        cfg.client = task.client;
        cfg.seed = seed;
        std::vector<fl::DeviceProfile> devices{
            fl::straggler(fl::workstation(), 3.0),
            fl::straggler(fl::workstation(), 3.0), fl::workstation(),
            fl::workstation()};
        return signature(fl::FedAtTrainer(cfg, task.factory, &task.train,
                                          task.parts, &task.test, devices)
                             .run());
      }
      case 3: {  // AdaFL sync with links (exercises link RNG too)
        core::AdaFlSyncConfig cfg;
        cfg.rounds = 6;
        cfg.client = task.client;
        cfg.links = net::make_fleet(4, 0.5, net::LinkQuality::kGood,
                                    net::LinkQuality::kLossy);
        cfg.seed = seed;
        cfg.params.compression.warmup_rounds = 2;
        return signature(core::AdaFlSyncTrainer(cfg, task.factory,
                                                &task.train, task.parts,
                                                &task.test)
                             .run());
      }
      default: {  // AdaFL async
        core::AdaFlAsyncConfig cfg;
        cfg.duration = 1.5;
        cfg.eval_interval = 0.5;
        cfg.client = task.client;
        cfg.seed = seed;
        cfg.params.compression.warmup_rounds = 2;
        return signature(core::AdaFlAsyncTrainer(cfg, task.factory,
                                                 &task.train, task.parts,
                                                 &task.test)
                             .run());
      }
    }
  }
};

TEST_P(DeterminismMatrix, SameSeedBitIdentical) {
  EXPECT_EQ(run(GetParam(), 7), run(GetParam(), 7));
}

TEST_P(DeterminismMatrix, DifferentSeedDiffers) {
  EXPECT_NE(run(GetParam(), 7), run(GetParam(), 1234567));
}

std::string trainer_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"Sync", "Async", "FedAt", "AdaFlSync",
                                       "AdaFlAsync"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllTrainers, DeterminismMatrix,
                         ::testing::Range(0, 5), trainer_name);

// ---------------------------------------------------------------------------
// Thread sweep: the execution layer's core promise is that parallelism is an
// implementation detail — the same config at 1, 2, or 4 worker threads must
// produce byte-for-byte the same final global weights AND the same metric
// ledger. Signature alone is not enough: two runs could match on accuracy yet
// diverge in low-order weight bits, so we compare the raw parameter vectors.
// ---------------------------------------------------------------------------

struct FullResult {
  RunSignature sig;
  std::vector<float> weights;

  bool operator==(const FullResult&) const = default;
};

/// Restores the automatic pool size even when an assertion fails mid-test.
struct ThreadGuard {
  ~ThreadGuard() { core::set_num_threads(0); }
};

class ThreadSweepMatrix : public ::testing::TestWithParam<int> {
 public:
  static FullResult run(int kind, int threads) {
    core::set_num_threads(threads);
    auto task = make_mini_task(4);
    const std::uint64_t seed = 7;
    switch (kind) {
      case 0: {  // FedAvg + dropout faults + lossy links: exercises the
                 // 3-phase sync round's fault and link RNG ordering.
        fl::SyncConfig cfg;
        cfg.rounds = 4;
        cfg.participation = 0.75;
        cfg.client = task.client;
        cfg.faults.kind = fl::FaultKind::kDropout;
        cfg.faults.unreliable_fraction = 0.5;
        cfg.links = net::make_fleet(4, 0.5, net::LinkQuality::kGood,
                                    net::LinkQuality::kLossy);
        cfg.seed = seed;
        fl::SyncTrainer t(cfg, task.factory, &task.train, task.parts,
                          &task.test);
        const auto log = t.run();
        return {signature(log), t.global()};
      }
      case 1: {  // SCAFFOLD + byzantine clients + trimmed mean: exercises the
                 // control-variate path and the robust aggregation sort.
        fl::SyncConfig cfg;
        cfg.algo = fl::Algorithm::kScaffold;
        cfg.rounds = 4;
        cfg.client = task.client;
        cfg.aggregation = fl::Aggregation::kTrimmedMean;
        cfg.faults.kind = fl::FaultKind::kByzantine;
        cfg.faults.unreliable_fraction = 0.25;
        cfg.seed = seed;
        fl::SyncTrainer t(cfg, task.factory, &task.train, task.parts,
                          &task.test);
        const auto log = t.run();
        return {signature(log), t.global()};
      }
      case 2: {  // FedBuff: buffered async aggregation with pooled training.
        fl::AsyncConfig cfg;
        cfg.algo = fl::AsyncAlgorithm::kFedBuff;
        cfg.duration = 1.5;
        cfg.eval_interval = 0.5;
        cfg.buffer_size = 3;
        cfg.client = task.client;
        cfg.seed = seed;
        fl::AsyncTrainer t(cfg, task.factory, &task.train, task.parts,
                           &task.test);
        const auto log = t.run();
        return {signature(log), t.global()};
      }
      case 3: {  // FedAsync with lossy links: failed uploads schedule retry
                 // cycles, so in-flight task handoff must stay deterministic.
        fl::AsyncConfig cfg;
        cfg.algo = fl::AsyncAlgorithm::kFedAsync;
        cfg.duration = 1.5;
        cfg.eval_interval = 0.5;
        cfg.client = task.client;
        cfg.links = net::make_fleet(4, 0.5, net::LinkQuality::kGood,
                                    net::LinkQuality::kLossy);
        cfg.seed = seed;
        fl::AsyncTrainer t(cfg, task.factory, &task.train, task.parts,
                           &task.test);
        const auto log = t.run();
        return {signature(log), t.global()};
      }
      case 4: {  // AdaFL sync: clients train, score and compress on the
                 // pool; lossy links fail some uploads, and K = 2 of 4
                 // leaves clients on the unselected accumulate path.
        core::AdaFlSyncConfig cfg;
        cfg.rounds = 4;
        cfg.client = task.client;
        cfg.links = net::make_fleet(4, 0.5, net::LinkQuality::kGood,
                                    net::LinkQuality::kLossy);
        cfg.seed = seed;
        cfg.params.max_selected = 2;
        cfg.params.compression.warmup_rounds = 2;
        core::AdaFlSyncTrainer t(cfg, task.factory, &task.train, task.parts,
                                 &task.test);
        const auto log = t.run();
        // Both paths the sweep is meant to cover actually ran.
        EXPECT_LT(log.ledger.delivered_updates(),
                  log.ledger.attempted_updates());
        EXPECT_GT(t.stats().skipped_clients, 0);
        return {signature(log), t.global()};
      }
      case 5: {  // AdaFL async
        core::AdaFlAsyncConfig cfg;
        cfg.duration = 1.5;
        cfg.eval_interval = 0.5;
        cfg.client = task.client;
        cfg.seed = seed;
        cfg.params.compression.warmup_rounds = 2;
        core::AdaFlAsyncTrainer t(cfg, task.factory, &task.train, task.parts,
                                  &task.test);
        const auto log = t.run();
        return {signature(log), t.global()};
      }
      default: {  // FedAT: each tier's members train on the pool between
                  // serial download and upload draws on lossy links. Three
                  // members per tier, so the order of the weighted delta
                  // fold shows in the bits (two float terms commute).
        auto fedat_task = make_mini_task(6);
        fl::FedAtConfig cfg;
        cfg.num_tiers = 2;
        cfg.duration = 1.5;
        cfg.eval_interval = 0.5;
        cfg.client = fedat_task.client;
        cfg.links = net::make_fleet(6, 0.5, net::LinkQuality::kGood,
                                    net::LinkQuality::kLossy);
        cfg.seed = seed;
        fl::FedAtTrainer t(cfg, fedat_task.factory, &fedat_task.train,
                           fedat_task.parts, &fedat_task.test);
        const auto log = t.run();
        return {signature(log), t.global()};
      }
    }
  }
};

TEST_P(ThreadSweepMatrix, BitwiseIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const auto base = run(GetParam(), 1);
  ASSERT_FALSE(base.weights.empty());
  for (int threads : {2, 4}) {
    const auto got = run(GetParam(), threads);
    EXPECT_EQ(base.sig, got.sig) << "metric ledger diverged at threads="
                                 << threads;
    EXPECT_EQ(base.weights, got.weights)
        << "final global weights diverged at threads=" << threads;
  }
}

std::string sweep_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"FedAvgFaultsLinks", "ScaffoldRobust",
                                       "FedBuff",           "FedAsyncLossy",
                                       "AdaFlSync",         "AdaFlAsync",
                                       "FedAt"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllTrainers, ThreadSweepMatrix, ::testing::Range(0, 7),
                         sweep_name);

}  // namespace
}  // namespace adafl
