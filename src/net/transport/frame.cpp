#include "net/transport/frame.h"

#include "compress/bytes.h"
#include "net/transport/crc32.h"
#include "tensor/check.h"

namespace adafl::net::transport {

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kWelcome: return "welcome";
    case MsgType::kModel: return "model";
    case MsgType::kScore: return "score";
    case MsgType::kSelect: return "select";
    case MsgType::kSkip: return "skip";
    case MsgType::kUpdate: return "update";
    case MsgType::kPing: return "ping";
    case MsgType::kPong: return "pong";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kStandbyHello: return "standby_hello";
    case MsgType::kReplicate: return "replicate";
    case MsgType::kUpdateAgg: return "update_agg";
    case MsgType::kRelayHello: return "relay_hello";
    case MsgType::kChildGone: return "child_gone";
  }
  return "?";
}

bool is_valid_msg_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(MsgType::kHello) &&
         raw <= static_cast<std::uint8_t>(MsgType::kChildGone);
}

std::vector<std::uint8_t> encode_frame(const Frame& f) {
  ADAFL_CHECK_MSG(f.payload.size() <= kMaxFramePayload,
                  "frame: payload of " << f.payload.size()
                                       << " bytes exceeds the cap");
  std::vector<std::uint8_t> out;
  out.reserve(f.wire_size());
  bytes::put_u32(out, kFrameMagic);
  bytes::put_u8(out, static_cast<std::uint8_t>(f.type));
  bytes::put_u8(out, 0);
  bytes::put_u8(out, 0);
  bytes::put_u8(out, 0);
  bytes::put_u32(out, f.round);
  bytes::put_u32(out, f.client_id);
  bytes::put_u32(out, static_cast<std::uint32_t>(f.payload.size()));
  bytes::put_u32(out, crc32(f.payload));
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  return out;
}

const FrameBytes& encode_once(const Frame& f, FrameImage& image) {
  if (!image.bytes)
    image.bytes =
        std::make_shared<const std::vector<std::uint8_t>>(encode_frame(f));
  return image.bytes;
}

namespace {

/// Parses and validates the fixed header; returns the declared payload
/// length via `payload_len`.
Frame parse_header(std::span<const std::uint8_t> hdr,
                   std::uint32_t* payload_len, std::uint32_t* crc) {
  bytes::Reader r(hdr);
  const std::uint32_t magic = r.u32();
  ADAFL_CHECK_MSG(magic == kFrameMagic, "frame: bad magic 0x" << std::hex
                                                              << magic);
  const std::uint8_t type_raw = r.u8();
  ADAFL_CHECK_MSG(is_valid_msg_type(type_raw),
                  "frame: unknown message type " << int(type_raw));
  const std::uint8_t r0 = r.u8(), r1 = r.u8(), r2 = r.u8();
  ADAFL_CHECK_MSG(r0 == 0 && r1 == 0 && r2 == 0,
                  "frame: nonzero reserved header bytes");
  Frame f;
  f.type = static_cast<MsgType>(type_raw);
  f.round = r.u32();
  f.client_id = r.u32();
  *payload_len = r.u32();
  ADAFL_CHECK_MSG(*payload_len <= kMaxFramePayload,
                  "frame: oversized length prefix " << *payload_len);
  *crc = r.u32();
  return f;
}

}  // namespace

Frame decode_frame(std::span<const std::uint8_t> bytes_in) {
  ADAFL_CHECK_MSG(bytes_in.size() >= kFrameHeaderBytes,
                  "frame: buffer shorter than header");
  std::uint32_t payload_len = 0, crc = 0;
  Frame f = parse_header(bytes_in.first(kFrameHeaderBytes), &payload_len,
                         &crc);
  ADAFL_CHECK_MSG(bytes_in.size() == kFrameHeaderBytes + payload_len,
                  "frame: buffer size does not match length prefix");
  auto payload = bytes_in.subspan(kFrameHeaderBytes);
  ADAFL_CHECK_MSG(crc32(payload) == crc, "frame: payload CRC mismatch");
  f.payload.assign(payload.begin(), payload.end());
  return f;
}

Frame decode_frame(std::span<const std::uint8_t, kFrameHeaderBytes> header,
                   std::vector<std::uint8_t> payload) {
  std::uint32_t payload_len = 0, crc = 0;
  Frame f = parse_header(header, &payload_len, &crc);
  ADAFL_CHECK_MSG(payload.size() == payload_len,
                  "frame: buffer size does not match length prefix");
  ADAFL_CHECK_MSG(crc32(payload) == crc, "frame: payload CRC mismatch");
  f.payload = std::move(payload);
  return f;
}

bool FrameParser::try_complete_buffered() {
  if (buf_.size() < kFrameHeaderBytes) return false;
  std::uint32_t payload_len = 0, crc = 0;
  Frame f = parse_header(
      std::span<const std::uint8_t>(buf_).first(kFrameHeaderBytes),
      &payload_len, &crc);
  if (buf_.size() < kFrameHeaderBytes + payload_len) return false;
  // consume() keeps at most one partial frame buffered, so a complete frame
  // here consumes the whole buffer.
  auto payload =
      std::span<const std::uint8_t>(buf_).subspan(kFrameHeaderBytes,
                                                  payload_len);
  ADAFL_CHECK_MSG(crc32(payload) == crc, "frame: payload CRC mismatch");
  f.payload.assign(payload.begin(), payload.end());
  ready_.push_back(std::move(f));
  buf_.clear();
  return true;
}

std::size_t FrameParser::consume(std::span<const std::uint8_t> data) {
  std::size_t completed = 0;
  // Finish the carried-over partial frame first, copying in only the bytes
  // it still needs (header remainder, then payload remainder).
  while (!buf_.empty() && !data.empty()) {
    std::size_t need;
    if (buf_.size() < kFrameHeaderBytes) {
      need = kFrameHeaderBytes - buf_.size();
    } else {
      std::uint32_t payload_len = 0, crc = 0;
      parse_header(
          std::span<const std::uint8_t>(buf_).first(kFrameHeaderBytes),
          &payload_len, &crc);
      need = kFrameHeaderBytes + payload_len - buf_.size();
    }
    const std::size_t take = std::min(need, data.size());
    buf_.insert(buf_.end(), data.begin(),
                data.begin() + static_cast<std::ptrdiff_t>(take));
    data = data.subspan(take);
    if (try_complete_buffered()) ++completed;
  }
  // Decode frames wholly contained in the caller's buffer in place.
  std::size_t off = 0;
  while (data.size() - off >= kFrameHeaderBytes) {
    std::uint32_t payload_len = 0, crc = 0;
    Frame f = parse_header(data.subspan(off, kFrameHeaderBytes),
                           &payload_len, &crc);
    if (data.size() - off < kFrameHeaderBytes + payload_len) break;
    auto payload = data.subspan(off + kFrameHeaderBytes, payload_len);
    ADAFL_CHECK_MSG(crc32(payload) == crc, "frame: payload CRC mismatch");
    f.payload.assign(payload.begin(), payload.end());
    ready_.push_back(std::move(f));
    ++completed;
    off += kFrameHeaderBytes + payload_len;
  }
  // Retain only the trailing partial frame.
  if (off < data.size())
    buf_.insert(buf_.end(),
                data.begin() + static_cast<std::ptrdiff_t>(off), data.end());
  return completed;
}

std::optional<Frame> FrameParser::next() {
  if (ready_.empty()) return std::nullopt;
  Frame f = std::move(ready_.front());
  ready_.pop_front();
  return f;
}

}  // namespace adafl::net::transport
