#include "net/fec/gf256.h"

#include "tensor/dispatch.h"

namespace adafl::net::fec {

namespace {

constexpr std::uint8_t mul_slow(std::uint8_t a, std::uint8_t b) {
  std::uint16_t acc = 0;
  const std::uint16_t aa = a;
  for (int bit = 0; bit < 8; ++bit) {
    if (b & (1u << bit)) acc ^= static_cast<std::uint16_t>(aa << bit);
  }
  // Reduce the 15-bit carryless product modulo the field polynomial.
  for (int bit = 14; bit >= 8; --bit) {
    if (acc & (1u << bit))
      acc ^= static_cast<std::uint16_t>(kGfPoly << (bit - 8));
  }
  return static_cast<std::uint8_t>(acc);
}

constexpr GfNibbleTables build_nibbles() {
  GfNibbleTables t{};
  for (int c = 0; c < 256; ++c)
    for (int x = 0; x < 16; ++x) {
      const auto uc = static_cast<std::uint8_t>(c);
      t.row[c][x] = mul_slow(uc, static_cast<std::uint8_t>(x));
      t.row[c][16 + x] = mul_slow(uc, static_cast<std::uint8_t>(x << 4));
    }
  return t;
}

constexpr GfTables build_tables() {
  GfTables t{};
  std::uint16_t x = 1;
  for (int i = 0; i < 255; ++i) {
    t.exp[i] = static_cast<std::uint8_t>(x);
    t.log[x] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= kGfPoly;
  }
  // Double the antilog table so gf_mul's index log(a) + log(b) (< 510)
  // never needs `% 255`; the two spare slots stay zero and are never read.
  for (int i = 255; i < 510; ++i) t.exp[i] = t.exp[i - 255];
  t.log[0] = 0;  // log(0) is undefined; callers guard, this is belt
  return t;
}

}  // namespace

constinit const GfTables kGf = build_tables();
constinit const GfNibbleTables kGfNibbles = build_nibbles();

std::uint8_t gf_mul_slow(std::uint8_t a, std::uint8_t b) {
  return mul_slow(a, b);
}

void gf_mul_add(std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
                std::size_t n) {
  if (c != 0)
    tensor::active_kernels().gf256_mul_add(kGfNibbles.row[c], src, dst, n);
}

}  // namespace adafl::net::fec
