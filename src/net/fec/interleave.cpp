#include "net/fec/interleave.h"

#include <cstring>

#include "tensor/check.h"

namespace adafl::net::fec {

namespace {

/// Bytes of a len-byte region that land in shard s: one per full row of k,
/// plus one from the partial last row.
std::size_t shard_count(std::size_t len, std::size_t k, std::size_t s) {
  return len / k + (s < len % k ? 1 : 0);
}

}  // namespace

// Both directions walk one shard at a time: shard s holds bytes
// s, s + k, s + 2k, ... of the region, so each is a strided copy with no
// per-byte division.

void interleave(std::span<const std::uint8_t> src, int k,
                std::size_t shard_len, std::uint8_t* const* shards) {
  ADAFL_CHECK_MSG(k >= 1, "interleave: k < 1");
  const auto uk = static_cast<std::size_t>(k);
  ADAFL_CHECK_MSG(uk * shard_len >= src.size(),
                  "interleave: " << src.size() << " bytes exceed " << k
                                 << " shards of " << shard_len);
  for (std::size_t s = 0; s < uk; ++s) {
    const std::size_t count = shard_count(src.size(), uk, s);
    const std::uint8_t* in = src.data() + s;
    std::uint8_t* out = shards[s];
    for (std::size_t t = 0; t < count; ++t, in += uk) out[t] = *in;
    std::memset(out + count, 0, shard_len - count);
  }
}

void deinterleave(const std::uint8_t* const* shards, int k,
                  std::size_t shard_len, std::span<std::uint8_t> dst) {
  ADAFL_CHECK_MSG(k >= 1, "deinterleave: k < 1");
  const auto uk = static_cast<std::size_t>(k);
  ADAFL_CHECK_MSG(uk * shard_len >= dst.size(),
                  "deinterleave: " << dst.size() << " bytes exceed " << k
                                   << " shards of " << shard_len);
  for (std::size_t s = 0; s < uk; ++s) {
    const std::size_t count = shard_count(dst.size(), uk, s);
    const std::uint8_t* in = shards[s];
    std::uint8_t* out = dst.data() + s;
    for (std::size_t t = 0; t < count; ++t, out += uk) *out = in[t];
  }
}

}  // namespace adafl::net::fec
