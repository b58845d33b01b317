#include "net/fec/rs.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "net/fec/gf256.h"
#include "tensor/check.h"

namespace adafl::net::fec {

namespace {

/// Inverts the k x k row-major matrix `a` in place by Gauss-Jordan
/// elimination over GF(256). Returns false (a is then garbage) when it is
/// singular.
bool invert(std::vector<std::uint8_t>& a, int k) {
  const auto uk = static_cast<std::size_t>(k);
  // Rows of [a | I], reduced until the left half is I.
  std::vector<std::uint8_t> m(uk * 2 * uk, 0);
  for (std::size_t i = 0; i < uk; ++i) {
    std::copy_n(a.data() + i * uk, uk, m.data() + i * 2 * uk);
    m[i * 2 * uk + uk + i] = 1;
  }
  const auto row = [&](std::size_t i) { return m.data() + i * 2 * uk; };
  for (std::size_t c = 0; c < uk; ++c) {
    std::size_t p = c;
    while (p < uk && row(p)[c] == 0) ++p;
    if (p == uk) return false;
    if (p != c) std::swap_ranges(row(p), row(p) + 2 * uk, row(c));
    const std::uint8_t s = gf_inv(row(c)[c]);
    for (std::size_t j = 0; j < 2 * uk; ++j) row(c)[j] = gf_mul(row(c)[j], s);
    for (std::size_t i = 0; i < uk; ++i)
      if (i != c) gf_mul_add(row(i)[c], row(c), row(i), 2 * uk);
  }
  for (std::size_t i = 0; i < uk; ++i)
    std::copy_n(row(i) + uk, uk, a.data() + i * uk);
  return true;
}

}  // namespace

RsCode::RsCode(int n, int k) : n_(n), k_(k) {
  ADAFL_CHECK_MSG(k >= 1 && k <= n && n <= kRsMaxSymbols,
                  "RsCode: invalid (n=" << n << ", k=" << k << ")");
  // g(x) = prod_{j=0}^{r-1} (x - alpha^j), built descending (gen_[0] = 1).
  gen_ = {1};
  for (int j = 0; j < n_ - k_; ++j) {
    std::vector<std::uint8_t> next(gen_.size() + 1, 0);
    const std::uint8_t root = gf_exp(j);
    for (std::size_t i = 0; i < gen_.size(); ++i) {
      next[i] ^= gen_[i];                     // x * gen
      next[i + 1] ^= gf_mul(gen_[i], root);   // alpha^j * gen
    }
    gen_ = std::move(next);
  }
  // Column i of P is the parity of the unit vector e_i.
  const auto r = static_cast<std::size_t>(parity());
  const auto uk = static_cast<std::size_t>(k_);
  matrix_.assign(r * uk, 0);
  std::vector<std::uint8_t> unit(uk, 0);
  std::vector<std::uint8_t> column(r);
  for (std::size_t i = 0; i < uk; ++i) {
    unit[i] = 1;
    encode(unit, column);
    unit[i] = 0;
    for (std::size_t j = 0; j < r; ++j) matrix_[j * uk + i] = column[j];
  }
}

void RsCode::encode(std::span<const std::uint8_t> data,
                    std::span<std::uint8_t> parity) const {
  const int r = n_ - k_;
  ADAFL_CHECK_MSG(static_cast<int>(data.size()) == k_ &&
                      static_cast<int>(parity.size()) == r,
                  "RsCode::encode: span sizes disagree with (n, k)");
  // Synthetic division of m(x) * x^r by g(x); the remainder is the parity.
  std::fill(parity.begin(), parity.end(), std::uint8_t{0});
  if (r == 0) return;
  for (int i = 0; i < k_; ++i) {
    const std::uint8_t coef = data[static_cast<std::size_t>(i)] ^ parity[0];
    // Shift the remainder register left one symbol...
    for (int j = 0; j + 1 < r; ++j) parity[j] = parity[j + 1];
    parity[r - 1] = 0;
    // ...and fold coef * (g - x^r) back in.
    if (coef != 0)
      for (int j = 0; j < r; ++j)
        parity[j] ^= gf_mul(gen_[static_cast<std::size_t>(j + 1)], coef);
  }
}

void RsCode::encode_shards(const std::uint8_t* const* data,
                           std::uint8_t* const* parity,
                           std::size_t shard_len) const {
  const auto uk = static_cast<std::size_t>(k_);
  for (std::size_t j = 0; j < static_cast<std::size_t>(n_ - k_); ++j) {
    std::memset(parity[j], 0, shard_len);
    for (std::size_t i = 0; i < uk; ++i)
      gf_mul_add(matrix_[j * uk + i], data[i], parity[j], shard_len);
  }
}

bool RsCode::reconstruct_shards(std::uint8_t* const* shards,
                                const std::vector<bool>& present,
                                std::size_t shard_len) const {
  ADAFL_CHECK_MSG(static_cast<int>(present.size()) == n_,
                  "reconstruct_shards: present bitmap size != n");
  const auto uk = static_cast<std::size_t>(k_);
  std::vector<std::size_t> rows;  // the first k shards that arrived
  std::vector<std::size_t> missing;  // the data shards that did not
  for (std::size_t i = 0; i < present.size(); ++i) {
    if (!present[i]) {
      if (i < uk) missing.push_back(i);
    } else if (rows.size() < uk) {
      rows.push_back(i);
    }
  }
  if (rows.size() < uk) return false;
  if (missing.empty()) return true;

  // Row t of the system is row rows[t] of [I; P]; its inverse maps the
  // surviving shards back to the data.
  std::vector<std::uint8_t> sys(uk * uk, 0);
  for (std::size_t t = 0; t < uk; ++t) {
    if (rows[t] < uk)
      sys[t * uk + rows[t]] = 1;
    else
      std::copy_n(matrix_.data() + (rows[t] - uk) * uk, uk,
                  sys.data() + t * uk);
  }
  if (!invert(sys, k_)) return false;  // unreachable for an MDS code
  for (const std::size_t m : missing) {
    std::memset(shards[m], 0, shard_len);
    for (std::size_t t = 0; t < uk; ++t)
      gf_mul_add(sys[m * uk + t], shards[rows[t]], shards[m], shard_len);
  }
  return true;
}

}  // namespace adafl::net::fec
