#include "core/selection.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tensor/check.h"
#include "tensor/rng.h"

namespace adafl::core {
namespace {

TEST(SelectClients, FiltersByThreshold) {
  std::vector<double> scores{0.9, 0.2, 0.7, 0.4};
  auto r = select_clients(scores, 10, 0.5);
  EXPECT_EQ(r.selected, (std::vector<int>{0, 2}));
  EXPECT_EQ(r.below_threshold, (std::vector<int>{1, 3}));
}

TEST(SelectClients, CapsAtK) {
  std::vector<double> scores{0.9, 0.8, 0.7, 0.6, 0.5};
  auto r = select_clients(scores, 3, 0.0);
  EXPECT_EQ(r.selected, (std::vector<int>{0, 1, 2}));
}

TEST(SelectClients, RanksDescending) {
  std::vector<double> scores{0.1, 0.9, 0.5, 0.7};
  auto r = select_clients(scores, 4, 0.0);
  EXPECT_EQ(r.selected, (std::vector<int>{1, 3, 2, 0}));
}

TEST(SelectClients, StableOnTies) {
  std::vector<double> scores{0.5, 0.5, 0.5};
  auto r = select_clients(scores, 2, 0.0);
  EXPECT_EQ(r.selected, (std::vector<int>{0, 1}));
}

TEST(SelectClients, EmptyWhenAllBelowTau) {
  std::vector<double> scores{0.1, 0.2};
  auto r = select_clients(scores, 5, 0.9);
  EXPECT_TRUE(r.selected.empty());
  EXPECT_EQ(r.below_threshold.size(), 2u);
}

TEST(SelectClients, ThresholdIsInclusive) {
  std::vector<double> scores{0.5};
  auto r = select_clients(scores, 1, 0.5);
  EXPECT_EQ(r.selected.size(), 1u);
}

TEST(SelectClients, InvalidArgsThrow) {
  std::vector<double> scores{0.5};
  EXPECT_THROW(select_clients(scores, 0, 0.5), CheckError);
  EXPECT_THROW(select_clients(scores, 1, 1.5), CheckError);
  std::vector<double> bad{1.5};
  EXPECT_THROW(select_clients(bad, 1, 0.5), CheckError);
}

TEST(NormalizeSelected, MapsToUnitInterval) {
  std::vector<double> scores{0.2, 0.8, 0.5, 0.9};
  std::vector<int> ids{0, 1, 2};
  auto n = normalize_selected(scores, ids);
  EXPECT_DOUBLE_EQ(n[0], 0.0);
  EXPECT_DOUBLE_EQ(n[1], 1.0);
  EXPECT_NEAR(n[2], 0.5, 1e-9);
}

TEST(NormalizeSelected, SingletonAndEqualScoresMapToOne) {
  std::vector<double> scores{0.3, 0.3};
  EXPECT_EQ(normalize_selected(scores, {0}), (std::vector<double>{1.0}));
  EXPECT_EQ(normalize_selected(scores, {0, 1}),
            (std::vector<double>{1.0, 1.0}));
}

// Property test over Algorithm 1's stated constraints, across random score
// vectors and (K, tau) combinations.
struct Algo1Case {
  int n;
  int k;
  double tau;
  std::uint64_t seed;
};

class Algorithm1Property : public ::testing::TestWithParam<Algo1Case> {};

TEST_P(Algorithm1Property, ConstraintsHold) {
  const auto p = GetParam();
  tensor::Rng rng(p.seed);
  std::vector<double> scores(static_cast<std::size_t>(p.n));
  for (auto& s : scores) s = rng.uniform();
  auto r = select_clients(scores, p.k, p.tau);

  // |C_selected| <= K.
  EXPECT_LE(static_cast<int>(r.selected.size()), p.k);
  // forall i in selected: S_i >= tau.
  for (int i : r.selected)
    EXPECT_GE(scores[static_cast<std::size_t>(i)], p.tau);
  // Selected dominates all filtered-but-unselected clients.
  double min_selected = 1.0;
  for (int i : r.selected)
    min_selected = std::min(min_selected, scores[static_cast<std::size_t>(i)]);
  std::vector<bool> in_selected(static_cast<std::size_t>(p.n), false);
  for (int i : r.selected) in_selected[static_cast<std::size_t>(i)] = true;
  for (int i = 0; i < p.n; ++i) {
    if (in_selected[static_cast<std::size_t>(i)]) continue;
    if (scores[static_cast<std::size_t>(i)] >= p.tau && !r.selected.empty()) {
      EXPECT_LE(scores[static_cast<std::size_t>(i)], min_selected + 1e-12);
    }
  }
  // Selected + below_threshold partition is consistent.
  for (int i : r.below_threshold)
    EXPECT_LT(scores[static_cast<std::size_t>(i)], p.tau);
  // Output is sorted descending.
  for (std::size_t j = 1; j < r.selected.size(); ++j)
    EXPECT_GE(scores[static_cast<std::size_t>(r.selected[j - 1])],
              scores[static_cast<std::size_t>(r.selected[j])]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Algorithm1Property,
    ::testing::Values(Algo1Case{10, 5, 0.5, 1}, Algo1Case{10, 1, 0.0, 2},
                      Algo1Case{10, 10, 0.9, 3}, Algo1Case{50, 7, 0.3, 4},
                      Algo1Case{100, 20, 0.6, 5}, Algo1Case{3, 5, 0.2, 6},
                      Algo1Case{1, 1, 0.99, 7}, Algo1Case{25, 12, 0.45, 8}));

}  // namespace
}  // namespace adafl::core
