#include "fl/fedat.h"

#include <gtest/gtest.h>

#include <cmath>

#include "fl_fixtures.h"

namespace adafl::fl {
namespace {

using testing::make_mini_task;

FedAtConfig base_config() {
  FedAtConfig cfg;
  cfg.num_tiers = 2;
  cfg.duration = 6.0;
  cfg.eval_interval = 1.0;
  cfg.seed = 5;
  return cfg;
}

std::vector<DeviceProfile> two_speed_devices(int n) {
  std::vector<DeviceProfile> devices;
  for (int i = 0; i < n; ++i)
    devices.push_back(i < n / 2 ? straggler(workstation(), 4.0)
                                : workstation());
  return devices;
}

TEST(FedAt, LearnsAboveChance) {
  auto task = make_mini_task();
  FedAtConfig cfg = base_config();
  cfg.client = task.client;
  FedAtTrainer t(cfg, task.factory, &task.train, task.parts, &task.test,
                 two_speed_devices(4));
  auto log = t.run();
  EXPECT_GT(log.final_accuracy(), 0.5);
  EXPECT_GT(log.applied_updates, 0);
}

TEST(FedAt, TiersGroupByResponseTime) {
  auto task = make_mini_task(4);
  FedAtConfig cfg = base_config();
  cfg.client = task.client;
  FedAtTrainer t(cfg, task.factory, &task.train, task.parts, &task.test,
                 two_speed_devices(4));
  // Clients 0,1 are 4x slower -> they must share the slow tier.
  const auto& tiers = t.tier_of();
  EXPECT_EQ(tiers[0], tiers[1]);
  EXPECT_EQ(tiers[2], tiers[3]);
  EXPECT_NE(tiers[0], tiers[2]);
}

TEST(FedAt, FastTierCompletesMoreRounds) {
  auto task = make_mini_task(4);
  FedAtConfig cfg = base_config();
  cfg.client = task.client;
  FedAtTrainer t(cfg, task.factory, &task.train, task.parts, &task.test,
                 two_speed_devices(4));
  t.run();
  const int slow_tier = t.tier_of()[0];
  const int fast_tier = t.tier_of()[2];
  EXPECT_GT(t.tier_rounds()[static_cast<std::size_t>(fast_tier)],
            t.tier_rounds()[static_cast<std::size_t>(slow_tier)]);
  EXPECT_GT(t.tier_rounds()[static_cast<std::size_t>(slow_tier)], 0);
}

TEST(FedAt, LostUploadsAreCountedAndNotFolded) {
  // Every transfer is lost: each upload spends its bytes and time, but no
  // tier round may fold a delta it never received. Links cap drop_prob
  // below 1; the largest double below it loses all but 2^-53 of transfers.
  auto task = make_mini_task();
  FedAtConfig cfg = base_config();
  cfg.client = task.client;
  net::LinkConfig dead;
  dead.drop_prob = std::nextafter(1.0, 0.0);
  cfg.links.assign(4, dead);
  FedAtTrainer t(cfg, task.factory, &task.train, task.parts, &task.test,
                 two_speed_devices(4));
  const std::vector<float> initial = t.global();
  const TrainLog log = t.run();
  EXPECT_GT(log.ledger.attempted_updates(), 0);
  EXPECT_EQ(log.ledger.delivered_updates(), 0);
  EXPECT_EQ(log.applied_updates, 0);
  EXPECT_EQ(t.global(), initial);
}

TEST(FedAt, DeterministicUnderSeed) {
  auto task = make_mini_task();
  FedAtConfig cfg = base_config();
  cfg.duration = 2.0;
  cfg.client = task.client;
  auto run = [&] {
    FedAtTrainer t(cfg, task.factory, &task.train, task.parts, &task.test,
                   two_speed_devices(4));
    return t.run();
  };
  auto a = run();
  auto b = run();
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i)
    EXPECT_EQ(a.records[i].test_accuracy, b.records[i].test_accuracy);
}

TEST(FedAt, SingleTierDegeneratesToSync) {
  auto task = make_mini_task(4);
  FedAtConfig cfg = base_config();
  cfg.num_tiers = 1;
  cfg.client = task.client;
  FedAtTrainer t(cfg, task.factory, &task.train, task.parts, &task.test);
  auto log = t.run();
  // One tier = plain synchronous rounds; everything still works.
  EXPECT_GT(log.final_accuracy(), 0.4);
  EXPECT_EQ(t.tier_rounds().size(), 1u);
}

TEST(FedAt, InvalidConfigThrows) {
  auto task = make_mini_task(2);
  FedAtConfig cfg = base_config();
  cfg.num_tiers = 5;  // more tiers than clients
  cfg.client = task.client;
  EXPECT_THROW(
      FedAtTrainer(cfg, task.factory, &task.train, task.parts, &task.test),
      CheckError);
  cfg.num_tiers = 0;
  EXPECT_THROW(
      FedAtTrainer(cfg, task.factory, &task.train, task.parts, &task.test),
      CheckError);
}

}  // namespace
}  // namespace adafl::fl
