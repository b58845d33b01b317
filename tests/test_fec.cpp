// Property tests for the GF(256) / Reed-Solomon erasure-coding layer that
// backs the UDP datagram transport. The contract the transport relies on:
// encode a generation of shards -> erase up to r of them -> repair restores
// every data shard byte-identically, and an unrecoverable pattern is
// REPORTED (false), never silently corrected into garbage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "net/fec/gf256.h"
#include "net/fec/interleave.h"
#include "net/fec/rs.h"
#include "tensor/check.h"

namespace adafl::net::fec {
namespace {

constexpr std::uint64_t kSeed = 0xFEC0FEC0u;

// --- GF(256) ---------------------------------------------------------------

// The log/antilog tables must agree with a from-first-principles
// carry-less multiply over the whole 256x256 field.
TEST(Gf256, TablesMatchSlowReference) {
  for (int a = 0; a < 256; ++a)
    for (int b = 0; b < 256; ++b) {
      const auto x = static_cast<std::uint8_t>(a);
      const auto y = static_cast<std::uint8_t>(b);
      ASSERT_EQ(gf_mul(x, y), gf_mul_slow(x, y))
          << "gf_mul(" << a << ", " << b << ")";
    }
}

TEST(Gf256, FieldAxioms) {
  std::mt19937_64 rng(kSeed);
  for (int i = 0; i < 20000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng());
    const auto b = static_cast<std::uint8_t>(rng());
    const auto c = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(gf_mul(a, b), gf_mul(b, a));
    EXPECT_EQ(gf_mul(a, gf_mul(b, c)), gf_mul(gf_mul(a, b), c));
    // Distributivity over the field's addition (XOR).
    EXPECT_EQ(gf_mul(a, static_cast<std::uint8_t>(b ^ c)),
              gf_mul(a, b) ^ gf_mul(a, c));
  }
  EXPECT_EQ(gf_mul(0, 123), 0);
  EXPECT_EQ(gf_mul(1, 123), 123);
}

TEST(Gf256, InverseAndDivision) {
  for (int a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf_mul(x, gf_inv(x)), 1) << "a=" << a;
    EXPECT_EQ(gf_div(x, x), 1);
  }
  EXPECT_THROW(gf_inv(0), CheckError);
  EXPECT_THROW(gf_div(1, 0), CheckError);
}

// alpha = 2 generates the multiplicative group: 255 distinct powers.
TEST(Gf256, AlphaIsPrimitive) {
  std::vector<bool> seen(256, false);
  for (int i = 0; i < 255; ++i) {
    const std::uint8_t p = gf_exp(i);
    EXPECT_FALSE(seen[p]) << "alpha^" << i << " repeats";
    seen[p] = true;
  }
  EXPECT_EQ(gf_exp(0), 1);
  EXPECT_EQ(gf_exp(255), 1);  // doubled table wraps: alpha^255 = alpha^0
}

// --- RS(n, k) over shards, as the transport uses it -------------------------

// A generation of n shards: random data, then parity from encode_shards.
struct Generation {
  std::vector<std::vector<std::uint8_t>> shards;

  std::vector<std::uint8_t*> ptrs() {
    std::vector<std::uint8_t*> p;
    for (auto& s : shards) p.push_back(s.data());
    return p;
  }
};

Generation make_generation(const RsCode& rs, std::size_t shard_len,
                           std::mt19937_64& rng) {
  Generation g;
  g.shards.assign(static_cast<std::size_t>(rs.n()),
                  std::vector<std::uint8_t>(shard_len));
  for (int i = 0; i < rs.k(); ++i)
    for (auto& b : g.shards[static_cast<std::size_t>(i)])
      b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t*> p = g.ptrs();
  rs.encode_shards(p.data(), p.data() + rs.k(), shard_len);
  return g;
}

// Marks `e` random shards missing and overwrites them with a sentinel.
std::vector<bool> erase_random(Generation& g, int e, std::mt19937_64& rng) {
  std::vector<std::size_t> idx(g.shards.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::shuffle(idx.begin(), idx.end(), rng);
  std::vector<bool> present(g.shards.size(), true);
  for (int i = 0; i < e; ++i) {
    const std::size_t p = idx[static_cast<std::size_t>(i)];
    present[p] = false;
    std::fill(g.shards[p].begin(), g.shards[p].end(), std::uint8_t{0xA5});
  }
  return present;
}

const int kShapes[][2] = {{20, 16}, {16, 8}, {6, 4}, {255, 223}, {10, 1}};
constexpr std::size_t kShardLen = 37;  // odd, so every kernel runs a tail

// Parity = P * data reproduces the LFSR reference codeword by codeword.
TEST(ReedSolomon, MatrixEncodeMatchesLfsrReference) {
  std::mt19937_64 rng(kSeed ^ 8);
  for (const auto& s : kShapes) {
    const RsCode rs(s[0], s[1]);
    const Generation g = make_generation(rs, kShardLen, rng);
    std::vector<std::uint8_t> data(static_cast<std::size_t>(rs.k()));
    std::vector<std::uint8_t> parity(static_cast<std::size_t>(rs.parity()));
    for (std::size_t t = 0; t < kShardLen; ++t) {
      for (std::size_t i = 0; i < data.size(); ++i) data[i] = g.shards[i][t];
      rs.encode(data, parity);
      for (std::size_t j = 0; j < parity.size(); ++j)
        ASSERT_EQ(g.shards[data.size() + j][t], parity[j])
            << "n=" << s[0] << " k=" << s[1] << " column " << t;
    }
  }
}

// Any erasure set of size <= r rebuilds every missing data shard exactly
// and leaves missing parity shards unwritten.
TEST(ReedSolomon, ErasuresUpToParityBudgetDecodeExactly) {
  std::mt19937_64 rng(kSeed ^ 1);
  for (const auto& s : kShapes) {
    const RsCode rs(s[0], s[1]);
    const int trials = rs.n() > 64 ? 2 : 20;
    for (int e = 0; e <= rs.parity(); ++e) {
      for (int trial = 0; trial < trials; ++trial) {
        const Generation sent = make_generation(rs, kShardLen, rng);
        Generation rx = sent;
        const std::vector<bool> present = erase_random(rx, e, rng);
        std::vector<std::uint8_t*> p = rx.ptrs();
        ASSERT_TRUE(rs.reconstruct_shards(p.data(), present, kShardLen))
            << "n=" << s[0] << " k=" << s[1] << " e=" << e;
        for (std::size_t i = 0; i < rx.shards.size(); ++i) {
          if (i < static_cast<std::size_t>(rs.k()) || present[i])
            ASSERT_EQ(rx.shards[i], sent.shards[i])
                << "n=" << s[0] << " k=" << s[1] << " e=" << e << " shard "
                << i;
          else
            ASSERT_EQ(rx.shards[i], std::vector<std::uint8_t>(kShardLen, 0xA5))
                << "a missing parity shard was written";
        }
      }
    }
  }
}

// One more erasure than parity: repair must return false and leave every
// shard, the missing ones included, exactly as it received them.
TEST(ReedSolomon, BeyondBudgetReportsUnrecoverableWithoutCorrupting) {
  std::mt19937_64 rng(kSeed ^ 2);
  for (const auto& s : kShapes) {
    const RsCode rs(s[0], s[1]);
    for (int trial = 0; trial < 10; ++trial) {
      Generation rx = make_generation(rs, kShardLen, rng);
      const std::vector<bool> present =
          erase_random(rx, rs.parity() + 1, rng);
      const Generation as_received = rx;
      std::vector<std::uint8_t*> p = rx.ptrs();
      ASSERT_FALSE(rs.reconstruct_shards(p.data(), present, kShardLen));
      ASSERT_EQ(rx.shards, as_received.shards)
          << "repair touched an unrecoverable generation";
    }
  }
}

// The data shards come back whatever mix of data and parity was lost;
// missing parity shards are not rebuilt (the transport never reads them).
TEST(ReedSolomon, ShardReconstructionRoundTrip) {
  std::mt19937_64 rng(kSeed ^ 5);
  const int n = 12, k = 8;
  const std::size_t s = 97;
  const RsCode rs(n, k);
  for (int trial = 0; trial < 30; ++trial) {
    const Generation sent = make_generation(rs, s, rng);
    Generation rx = sent;
    const int e = 1 + static_cast<int>(rng() % static_cast<unsigned>(n - k));
    const std::vector<bool> present = erase_random(rx, e, rng);
    std::vector<std::uint8_t*> p = rx.ptrs();
    ASSERT_TRUE(rs.reconstruct_shards(p.data(), present, s));
    for (int i = 0; i < k; ++i)
      ASSERT_EQ(rx.shards[static_cast<std::size_t>(i)],
                sent.shards[static_cast<std::size_t>(i)])
          << "trial " << trial << " e=" << e << " shard " << i;
  }
}

TEST(ReedSolomon, ShardReconstructionBeyondBudgetFails) {
  const int n = 6, k = 4;
  const std::size_t s = 16;
  const RsCode rs(n, k);
  std::mt19937_64 rng(kSeed ^ 6);
  Generation g = make_generation(rs, s, rng);
  std::vector<bool> present(static_cast<std::size_t>(n), true);
  present[0] = present[1] = present[2] = false;  // 3 lost, only r=2 parity
  std::vector<std::uint8_t*> p = g.ptrs();
  EXPECT_FALSE(rs.reconstruct_shards(p.data(), present, s));
}

TEST(ReedSolomon, RejectsInvalidShapes) {
  EXPECT_THROW(RsCode(256, 16), CheckError);  // n > 255
  EXPECT_THROW(RsCode(4, 5), CheckError);     // k > n
  EXPECT_THROW(RsCode(4, 0), CheckError);     // k < 1
}

// --- Block interleaver -----------------------------------------------------

TEST(Interleave, RoundTripAllRemainders) {
  std::mt19937_64 rng(kSeed ^ 7);
  for (int k = 1; k <= 7; ++k) {
    for (std::size_t len = 1; len <= 64; ++len) {
      const std::size_t s = (len + static_cast<std::size_t>(k) - 1) /
                            static_cast<std::size_t>(k);
      std::vector<std::uint8_t> src(len);
      for (auto& b : src) b = static_cast<std::uint8_t>(rng());
      std::vector<std::vector<std::uint8_t>> shards(
          static_cast<std::size_t>(k), std::vector<std::uint8_t>(s, 0xEE));
      std::vector<std::uint8_t*> sp;
      for (auto& sh : shards) sp.push_back(sh.data());
      interleave(src, k, s, sp.data());

      std::vector<const std::uint8_t*> cp;
      for (auto& sh : shards) cp.push_back(sh.data());
      std::vector<std::uint8_t> dst(len);
      deinterleave(cp.data(), k, s, dst);
      ASSERT_EQ(dst, src) << "k=" << k << " len=" << len;
    }
  }
}

// Both directions write exactly the definitional layout, shard b % k at
// offset b / k, zero-fill each shard's tail, and deinterleave inverts it:
// on the word path (groups of 8 shards by blocks of 8 full rows), on the
// strided remainder around it, and at the fragmenter's production lengths.
TEST(Interleave, MatchesModuloLayoutAndZeroPads) {
  std::mt19937_64 rng(kSeed ^ 9);
  const auto check = [&rng](int k, std::size_t len) {
    const auto uk = static_cast<std::size_t>(k);
    const std::size_t s = (len + uk - 1) / uk + 2;  // two spare bytes
    std::vector<std::uint8_t> src(len);
    for (auto& b : src) b = static_cast<std::uint8_t>(rng());
    std::vector<std::vector<std::uint8_t>> want(
        uk, std::vector<std::uint8_t>(s, 0));
    for (std::size_t b = 0; b < len; ++b) want[b % uk][b / uk] = src[b];
    std::vector<std::vector<std::uint8_t>> shards(
        uk, std::vector<std::uint8_t>(s, 0xEE));
    std::vector<std::uint8_t*> sp;
    for (auto& sh : shards) sp.push_back(sh.data());
    interleave(src, k, s, sp.data());
    ASSERT_EQ(shards, want) << "k=" << k << " len=" << len;

    std::vector<const std::uint8_t*> cp(sp.begin(), sp.end());
    std::vector<std::uint8_t> back(len);
    deinterleave(cp.data(), k, s, back);
    ASSERT_EQ(back, src) << "k=" << k << " len=" << len;
  };
  for (int k = 1; k <= 32; ++k)
    for (std::size_t len = 1; len <= 420; len += 7) check(k, len);
  // A 1200-byte-shard generation at k = 8, the 7,400-byte last generation
  // of a 449,000-byte frame, and a full generation at k = 16.
  check(8, 9600);
  check(8, 7400);
  check(16, 19200);
}

// Byte b of the source lands in shard b%k at offset b/k — adjacent bytes in
// different shards, so one lost datagram costs one byte per RS column.
TEST(Interleave, AdjacentBytesLandInDistinctShards) {
  const int k = 4;
  const std::size_t s = 4;
  std::vector<std::uint8_t> src = {0, 1, 2,  3,  4,  5,  6,  7,
                                   8, 9, 10, 11, 12, 13, 14, 15};
  std::vector<std::vector<std::uint8_t>> shards(
      4, std::vector<std::uint8_t>(s, 0));
  std::vector<std::uint8_t*> sp;
  for (auto& sh : shards) sp.push_back(sh.data());
  interleave(src, k, s, sp.data());
  EXPECT_EQ(shards[0], (std::vector<std::uint8_t>{0, 4, 8, 12}));
  EXPECT_EQ(shards[1], (std::vector<std::uint8_t>{1, 5, 9, 13}));
  EXPECT_EQ(shards[2], (std::vector<std::uint8_t>{2, 6, 10, 14}));
  EXPECT_EQ(shards[3], (std::vector<std::uint8_t>{3, 7, 11, 15}));
}

}  // namespace
}  // namespace adafl::net::fec
