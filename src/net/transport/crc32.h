// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used by the frame
// envelope to detect payload corruption, and by the CLIs to fingerprint
// final model weights for deployment-vs-simulation equivalence checks.
// Both forms run the active backend's KernelTable::crc32 (tensor/dispatch.h):
// slicing-by-8 on scalar, PCLMULQDQ folding on avx2, equal values on both.
#pragma once

#include <cstdint>
#include <span>

namespace adafl::net::transport {

/// CRC-32 of `data` (init 0xFFFFFFFF, final xor 0xFFFFFFFF — the common
/// zlib/PNG convention; crc32 of "123456789" is 0xCBF43926).
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Incremental form: `crc` is the running value (start with 0) so large
/// payloads can be checksummed in chunks: crc = crc32_update(crc, chunk).
std::uint32_t crc32_update(std::uint32_t crc,
                           std::span<const std::uint8_t> data);

}  // namespace adafl::net::transport
