// Systematic Reed-Solomon RS(n, k) over GF(256), n = k + r <= 255, as an
// erasure code on equal-length shards.
//
// A codeword is [d_0 .. d_{k-1}, p_0 .. p_{r-1}]: the data symbols pass
// through untouched (systematic) and r parity symbols follow. Position i
// holds the coefficient of x^{n-1-i}, so the generator polynomial
// g(x) = prod_{j=0}^{r-1} (x - alpha^j) divides every valid codeword.
// encode() computes one codeword's parity by LFSR division; it defines the
// code and is the reference the shard kernels are tested against.
//
// The code is linear, so parity = P * data for the r x k matrix P whose
// column i is the parity of the unit vector e_i. The constructor builds P
// once from encode(), and shard-level work is matrix work:
//  - encode_shards computes P * data over whole shards;
//  - reconstruct_shards takes the first k shards that arrived, inverts the
//    matching k x k rows of [I; P] by Gauss-Jordan elimination (Rizzo,
//    "Effective erasure codes for reliable computer communication
//    protocols", 1997), and rebuilds only the missing DATA shards from them.
// Both are sums of one kernel, dst ^= c * src (gf_mul_add, gf256.h).
//
// Only erasures are repaired. The datagram transport needs nothing more:
// every datagram carries a CRC, so a corrupted one is a lost one at a known
// position. A generation short of k shards is reported (false) with its
// shards untouched, never guessed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace adafl::net::fec {

/// Largest codeword the field supports.
constexpr int kRsMaxSymbols = 255;

class RsCode {
 public:
  /// n total symbols, k of them data. Throws CheckError unless
  /// 1 <= k <= n <= 255.
  RsCode(int n, int k);

  int n() const { return n_; }
  int k() const { return k_; }
  int parity() const { return n_ - k_; }

  /// Reference encode of one codeword: data.size() == k,
  /// parity.size() == n - k.
  void encode(std::span<const std::uint8_t> data,
              std::span<std::uint8_t> parity) const;

  /// parity[j] = sum_i P[j][i] * data[i], each pointer at shard_len bytes.
  void encode_shards(const std::uint8_t* const* data,
                     std::uint8_t* const* parity, std::size_t shard_len) const;

  /// shards[0..n): data then parity; present[i] says shard i arrived.
  /// Rebuilds every missing data shard in place (those entries must point
  /// at writable shard_len-byte buffers; missing parity shards are neither
  /// read nor written). Returns false, touching nothing, when fewer than k
  /// shards arrived.
  bool reconstruct_shards(std::uint8_t* const* shards,
                          const std::vector<bool>& present,
                          std::size_t shard_len) const;

 private:
  int n_;
  int k_;
  std::vector<std::uint8_t> gen_;     ///< generator poly, descending
  std::vector<std::uint8_t> matrix_;  ///< P, r x k row-major
};

}  // namespace adafl::net::fec
