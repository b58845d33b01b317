#include "compress/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "tensor/tensor.h"

namespace adafl::compress {
namespace {

using tensor::Rng;

std::vector<float> random_grad(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> g(n);
  for (auto& v : g) v = static_cast<float>(rng.normal());
  return g;
}

TEST(IdentityCodec, LosslessRoundTrip) {
  auto g = random_grad(100, 1);
  Rng rng(2);
  IdentityCodec codec;
  auto e = codec.encode(g, rng);
  EXPECT_EQ(e.decode(), g);
  EXPECT_EQ(e.wire_bytes, 8 + 400);
  EXPECT_NEAR(e.compression_ratio(), 1.0, 0.05);
}

TEST(TopKCodec, KeepsExactlyKEntries) {
  auto g = random_grad(1000, 3);
  Rng rng(4);
  TopKCodec codec(10.0);
  auto e = codec.encode(g, rng);
  EXPECT_EQ(e.indices.size(), 100u);
  EXPECT_EQ(e.values.size(), 100u);
}

TEST(TopKCodec, SelectsLargestMagnitudes) {
  std::vector<float> g{0.1f, -5.0f, 0.2f, 4.0f, -0.3f, 0.05f};
  Rng rng(5);
  TopKCodec codec(3.0);  // keep 2 of 6
  auto e = codec.encode(g, rng);
  auto d = e.decode();
  EXPECT_EQ(d[1], -5.0f);
  EXPECT_EQ(d[3], 4.0f);
  EXPECT_EQ(d[0], 0.0f);
  EXPECT_EQ(d[2], 0.0f);
}

TEST(TopKCodec, WireBytesAndRatio) {
  auto g = random_grad(1000, 6);
  Rng rng(7);
  TopKCodec codec(100.0);
  auto e = codec.encode(g, rng);
  EXPECT_EQ(e.wire_bytes, 8 + 10 * 8);
  // 4000 bytes dense / 88 wire.
  EXPECT_NEAR(e.compression_ratio(), 4000.0 / 88.0, 1e-9);
}

TEST(TopKCodec, RatioBelowOneThrows) {
  EXPECT_THROW(TopKCodec(0.5), CheckError);
}

TEST(TopKCodec, AlwaysSendsAtLeastOne) {
  auto g = random_grad(3, 8);
  Rng rng(9);
  TopKCodec codec(1000.0);
  auto e = codec.encode(g, rng);
  EXPECT_EQ(e.indices.size(), 1u);
}

TEST(QsgdCodec, DecodedIsApproximatelyUnbiased) {
  // With s = 64 levels the per-coordinate quantum is ||g||/64 ~ 0.7; the
  // mean over 60 stochastic encodings then estimates g to a few percent.
  auto g = random_grad(2000, 10);
  Rng rng(11);
  QsgdCodec codec(64);
  // Average many stochastic encodings; expectation should approach g.
  std::vector<double> acc(g.size(), 0.0);
  constexpr int reps = 60;
  for (int r = 0; r < reps; ++r) {
    auto d = codec.encode(g, rng).decode();
    for (std::size_t i = 0; i < g.size(); ++i) acc[i] += d[i];
  }
  double err = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const double mean = acc[i] / reps;
    err += (mean - g[i]) * (mean - g[i]);
    norm += static_cast<double>(g[i]) * g[i];
  }
  EXPECT_LT(std::sqrt(err / norm), 0.15);
}

TEST(QsgdCodec, LevelsBoundedByS) {
  auto g = random_grad(500, 12);
  Rng rng(13);
  QsgdCodec codec(4);
  auto e = codec.encode(g, rng);
  for (auto l : e.levels) {
    EXPECT_LE(l, 4);
    EXPECT_GE(l, -4);
  }
}

TEST(QsgdCodec, WireBytesUseBitPacking) {
  auto g = random_grad(1000, 14);
  Rng rng(15);
  QsgdCodec codec(7);  // 2s+1 = 15 -> 4 bits/element
  auto e = codec.encode(g, rng);
  EXPECT_EQ(e.wire_bytes, 8 + 4 + (1000 * 4 + 7) / 8);
}

TEST(QsgdCodec, InvalidLevelsThrow) {
  EXPECT_THROW(QsgdCodec(0), CheckError);
  EXPECT_THROW(QsgdCodec(200), CheckError);
}

TEST(QsgdCodec, ZeroVectorEncodesToZeros) {
  std::vector<float> g(64, 0.0f);
  Rng rng(16);
  QsgdCodec codec(4);
  auto d = codec.encode(g, rng).decode();
  for (float v : d) EXPECT_EQ(v, 0.0f);
}

TEST(TernaryCodec, ValuesAreTernary) {
  auto g = random_grad(500, 17);
  Rng rng(18);
  TernaryCodec codec;
  auto e = codec.encode(g, rng);
  float mx = 0.0f;
  for (float v : g) mx = std::max(mx, std::abs(v));
  auto d = e.decode();
  for (float v : d)
    EXPECT_TRUE(v == 0.0f || std::abs(std::abs(v) - mx) < 1e-6);
}

TEST(TernaryCodec, SignsPreserved) {
  std::vector<float> g{10.0f, -10.0f};
  Rng rng(19);
  TernaryCodec codec;
  auto d = codec.encode(g, rng).decode();
  EXPECT_GT(d[0], 0.0f);  // p = |g|/max = 1, always fires
  EXPECT_LT(d[1], 0.0f);
}

TEST(TernaryCodec, TwoBitsPerElement) {
  auto g = random_grad(1000, 20);
  Rng rng(21);
  TernaryCodec codec;
  auto e = codec.encode(g, rng);
  EXPECT_EQ(e.wire_bytes, 8 + 4 + (2000 + 7) / 8);
}

TEST(TopKHelper, RejectsBadK) {
  std::vector<float> g{1, 2, 3};
  EXPECT_THROW(top_k_by_magnitude(g, 0), CheckError);
  EXPECT_THROW(top_k_by_magnitude(g, 4), CheckError);
}

TEST(TopKHelper, ReturnsSortedIndices) {
  auto g = random_grad(512, 24);
  const auto idx = top_k_by_magnitude(g, 37);
  ASSERT_EQ(idx.size(), 37u);
  EXPECT_TRUE(std::is_sorted(idx.begin(), idx.end()));
}

TEST(TopKHelper, TiesBreakByLowestIndex) {
  // Four entries share the winning magnitude; with k=2 the selection must be
  // the two LOWEST indices regardless of the partial-sort's internal order.
  std::vector<float> g{0.1f, 2.0f, -2.0f, 0.1f, 2.0f, -2.0f};
  const auto idx = top_k_by_magnitude(g, 2);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{1, 2}));
  // Above-threshold indices (1, 3, 6) and the two lowest ties at the
  // threshold 1.0 (0, 2) interleave in the ascending result.
  std::vector<float> h{1.0f, 3.0f, -1.0f, -3.0f, 1.0f, 0.5f, 2.0f, 1.0f};
  EXPECT_EQ(top_k_by_magnitude(h, 5),
            (std::vector<std::uint32_t>{0, 1, 2, 3, 6}));
}

TEST(TopKCodec, EncodedIndicesAreSorted) {
  auto g = random_grad(2048, 25);
  Rng rng(26);
  TopKCodec codec(16.0);
  auto e = codec.encode(g, rng);
  EXPECT_TRUE(std::is_sorted(e.indices.begin(), e.indices.end()));
}

TEST(EncodedGradient, RatioOnEmptyMessageThrows) {
  EncodedGradient e;
  EXPECT_THROW(e.compression_ratio(), CheckError);
}

// Parameterized ratio sweep: decode support size and wire size shrink
// monotonically with ratio.
class TopKRatioTest : public ::testing::TestWithParam<double> {};

TEST_P(TopKRatioTest, SupportMatchesRatio) {
  const double ratio = GetParam();
  auto g = random_grad(4200, 22);
  Rng rng(23);
  TopKCodec codec(ratio);
  auto e = codec.encode(g, rng);
  const auto expected =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(4200 / ratio));
  EXPECT_EQ(static_cast<std::int64_t>(e.indices.size()), expected);
  EXPECT_EQ(e.dense_size, 4200);
}

INSTANTIATE_TEST_SUITE_P(Ratios, TopKRatioTest,
                         ::testing::Values(1.0, 4.0, 16.0, 64.0, 210.0,
                                           10000.0));

}  // namespace
}  // namespace adafl::compress
