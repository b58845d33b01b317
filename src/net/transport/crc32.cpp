#include "net/transport/crc32.h"

#include "tensor/dispatch.h"

namespace adafl::net::transport {

std::uint32_t crc32_update(std::uint32_t crc,
                           std::span<const std::uint8_t> data) {
  return tensor::active_kernels().crc32(crc, data.data(), data.size());
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32_update(0, data);
}

}  // namespace adafl::net::transport
