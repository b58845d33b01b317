// Framed message envelope for the deployed FL transport.
//
// Every message on a byte-stream connection is one frame (little-endian):
//
//   u32 magic        "AFL1" (0x31'4C'46'41 on the wire)
//   u8  type         MsgType
//   u8  reserved[3]  must be 0
//   u32 round        communication round the message belongs to (0 = none)
//   u32 client_id    sender/addressee client id (0xFFFFFFFF = server)
//   u32 payload_len  bytes following the header (<= kMaxFramePayload)
//   u32 crc          CRC-32 of the payload bytes
//   u8  payload[payload_len]
//
// The payload of FL messages wraps the byte-exact compress::wire encoding,
// so the bytes the simulators charge are exactly the bytes that cross the
// socket (plus this fixed 24-byte envelope).
//
// FrameParser consumes an arbitrary byte stream incrementally (partial
// frames, multiple frames per read) and throws CheckError on any malformed
// input — bad magic, unknown type, nonzero reserved bytes, oversized length
// prefix, CRC mismatch — without ever over-reading.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace adafl::net::transport {

/// FL session protocol message types (see docs/deployment.md).
enum class MsgType : std::uint8_t {
  kHello = 1,     ///< client -> server: join / rejoin request
  kWelcome = 2,   ///< server -> client: accepted + run configuration
  kModel = 3,     ///< server -> client: global model broadcast for a round
  kScore = 4,     ///< client -> server: utility score after local training
  kSelect = 5,    ///< server -> client: selected; carries compression ratio
  kSkip = 6,      ///< server -> client: not selected this round
  kUpdate = 7,    ///< client -> server: compressed model update
  kPing = 8,      ///< liveness probe (either direction)
  kPong = 9,      ///< liveness reply
  kShutdown = 10, ///< server -> client: training complete, disconnect
  kStandbyHello = 11,  ///< standby -> primary: subscribe as replication peer
  kReplicate = 12,     ///< primary -> standby: full checkpoint snapshot
  kUpdateAgg = 13,     ///< relay -> parent: pre-summed partial + child stats
  kRelayHello = 14,    ///< relay -> parent: join as mid-tier aggregator
  kChildGone = 15,     ///< relay -> parent: a leaf client disconnected
};

const char* to_string(MsgType t);

/// True for byte values that encode a known MsgType.
bool is_valid_msg_type(std::uint8_t raw);

constexpr std::uint32_t kFrameMagic = 0x314C4641u;  // "AFL1"
constexpr std::size_t kFrameHeaderBytes = 24;
/// Upper bound on a payload; anything larger is a malformed/hostile stream.
constexpr std::uint32_t kMaxFramePayload = 64u * 1024u * 1024u;
/// client_id value used in server-originated frames.
constexpr std::uint32_t kServerId = 0xFFFFFFFFu;

/// `client` field of a transport trace event for wire id `id`: -1 for
/// kServerId (relay-level frames).
inline int trace_client(std::uint32_t id) {
  return id == kServerId ? -1 : static_cast<int>(id);
}

/// One protocol message.
struct Frame {
  MsgType type = MsgType::kPing;
  std::uint32_t round = 0;
  std::uint32_t client_id = kServerId;
  std::vector<std::uint8_t> payload;

  /// Total encoded size (header + payload).
  std::size_t wire_size() const { return kFrameHeaderBytes + payload.size(); }
};

/// Encodes a frame (header incl. payload CRC + payload bytes).
std::vector<std::uint8_t> encode_frame(const Frame& f);

/// encode_frame's bytes for one frame, shared by every peer a broadcast is
/// queued to instead of copied per peer.
using FrameBytes = std::shared_ptr<const std::vector<std::uint8_t>>;

struct FecImage;  // udp.h

/// One broadcast's slot: each encoding of its frame that a peer needed,
/// made by the first such peer and shared, immutable, by the rest.
struct FrameImage {
  FrameBytes bytes;                     ///< encode_frame(f)
  std::shared_ptr<const FecImage> fec;  ///< f's FEC datagram payloads
};

/// `image.bytes`, encoded from `f` if still empty; the slot keeps them for
/// the broadcast's next peer.
const FrameBytes& encode_once(const Frame& f, FrameImage& image);

/// Decodes exactly one frame from a complete buffer; throws CheckError if
/// the buffer is not exactly one well-formed frame.
Frame decode_frame(std::span<const std::uint8_t> bytes);

/// decode_frame of `header` followed by `payload`, which becomes the
/// frame's payload without a copy. Same checks, same throws.
Frame decode_frame(std::span<const std::uint8_t, kFrameHeaderBytes> header,
                   std::vector<std::uint8_t> payload);

/// Incremental stream parser: consume() raw bytes as they arrive, next()
/// pops completed frames. Throws CheckError on malformed input; after a
/// throw the stream is poisoned and the connection should be dropped.
class FrameParser {
 public:
  /// Extracts the frames `data` completes: frames wholly contained in it
  /// are decoded straight out of the caller's buffer; only a trailing
  /// partial frame (or the continuation of one) is copied and retained.
  /// Any split of a stream across consume() calls yields the frame
  /// sequence of one whole-buffer call (tests/test_frame.cpp pins this).
  /// Returns the number of frames completed by this call.
  std::size_t consume(std::span<const std::uint8_t> data);

  /// Pops the oldest completed frame, if any.
  std::optional<Frame> next();

  /// Bytes buffered but not yet forming a complete frame.
  std::size_t pending_bytes() const { return buf_.size(); }

 private:
  /// Decodes one frame at buf_[0..] if complete: finishes a partial frame
  /// carried over from an earlier call.
  bool try_complete_buffered();

  std::vector<std::uint8_t> buf_;
  std::deque<Frame> ready_;
};

}  // namespace adafl::net::transport
