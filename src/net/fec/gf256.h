// GF(256) arithmetic for the Reed-Solomon FEC layer.
//
// The field is GF(2^8) with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D) and generator alpha = 2 — the classic
// CCSDS/DVB construction. Multiplication and division go through log/antilog
// tables built once at compile time; the exp table is doubled so
// exp[log a + log b] never needs a modular reduction.
//
// gf_mul_slow is the table-free shift-and-add reference: tests cross-check
// every (a, b) pair against it, so a corrupted table can never hide.
//
// Bulk arithmetic over shard bytes goes through gf_mul_add, which runs the
// active backend's KernelTable::gf256_mul_add with the coefficient's
// split-nibble table from kGfNibbles.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/check.h"

namespace adafl::net::fec {

/// The field's primitive polynomial (with the x^8 term), used by the slow
/// reference and the table builder alike.
constexpr std::uint16_t kGfPoly = 0x11D;

struct GfTables {
  std::uint8_t exp[512];  ///< exp[i] = alpha^i; doubled so i < 510 is valid
  std::uint8_t log[256];  ///< log[a] for a != 0; log[0] is unused (0)
};

/// Compile-time-built log/antilog tables.
extern const GfTables kGf;

inline std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  return kGf.exp[kGf.log[a] + kGf.log[b]];
}

/// Division a / b. Throws CheckError on b == 0.
inline std::uint8_t gf_div(std::uint8_t a, std::uint8_t b) {
  ADAFL_CHECK_MSG(b != 0, "gf256: division by zero");
  if (a == 0) return 0;
  return kGf.exp[kGf.log[a] + 255 - kGf.log[b]];
}

/// Multiplicative inverse. Throws CheckError on a == 0.
inline std::uint8_t gf_inv(std::uint8_t a) {
  ADAFL_CHECK_MSG(a != 0, "gf256: inverse of zero");
  return kGf.exp[255 - kGf.log[a]];
}

/// alpha^i for i in [0, 510).
inline std::uint8_t gf_exp(int i) { return kGf.exp[i]; }

/// log_alpha(a) in [0, 255) for a != 0. Throws CheckError on a == 0.
inline int gf_log(std::uint8_t a) {
  ADAFL_CHECK_MSG(a != 0, "gf256: log of zero");
  return kGf.log[a];
}

/// a^e for any non-negative exponent (e is reduced mod 255).
inline std::uint8_t gf_pow(std::uint8_t a, int e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  return kGf.exp[(kGf.log[a] * (e % 255)) % 255];
}

/// Table-free reference multiply (Russian-peasant with 0x11D reduction).
/// Slow by design; exists so tests can validate the tables exhaustively.
std::uint8_t gf_mul_slow(std::uint8_t a, std::uint8_t b);

/// Split-nibble product tables, the coefficient form of the gf256_mul_add
/// kernel: row[c] holds c * x, then c * (x << 4), for x < 16.
struct GfNibbleTables {
  std::uint8_t row[256][32];
};

/// Compile-time-built nibble tables for every coefficient.
extern const GfNibbleTables kGfNibbles;

/// dst[i] ^= c * src[i] for n bytes (src and dst do not overlap).
void gf_mul_add(std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
                std::size_t n);

}  // namespace adafl::net::fec
