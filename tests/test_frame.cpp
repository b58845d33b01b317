// Frame envelope + CRC32 + incremental parser, including the malformed-input
// hardening the deployed transport relies on: a hostile or corrupted byte
// stream must throw CheckError (and get the connection dropped), never
// over-read, over-allocate, or silently deliver garbage.
#include <gtest/gtest.h>

#include <string>

#include "net/transport/crc32.h"
#include "net/transport/frame.h"
#include "tensor/check.h"

namespace adafl::net::transport {
namespace {

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

Frame sample_frame() {
  Frame f;
  f.type = MsgType::kUpdate;
  f.round = 7;
  f.client_id = 3;
  f.payload.resize(200);
  for (std::size_t i = 0; i < f.payload.size(); ++i)
    f.payload[i] = static_cast<std::uint8_t>(i * 37 + 1);
  return f;
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32({}), 0u);
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(as_bytes("a")), 0xE8B7BE43u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string s = "123456789";
  std::uint32_t crc = 0;
  crc = crc32_update(crc, as_bytes(s.substr(0, 3)));
  crc = crc32_update(crc, as_bytes(s.substr(3, 4)));
  crc = crc32_update(crc, as_bytes(s.substr(7)));
  EXPECT_EQ(crc, crc32(as_bytes(s)));
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(Frame, EncodeDecodeRoundTrip) {
  const Frame f = sample_frame();
  const auto bytes = encode_frame(f);
  EXPECT_EQ(bytes.size(), f.wire_size());
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes + f.payload.size());
  const Frame g = decode_frame(bytes);
  EXPECT_EQ(g.type, f.type);
  EXPECT_EQ(g.round, f.round);
  EXPECT_EQ(g.client_id, f.client_id);
  EXPECT_EQ(g.payload, f.payload);
}

TEST(Frame, EmptyPayloadRoundTrip) {
  Frame f;
  f.type = MsgType::kPing;
  f.round = 0;
  f.client_id = kServerId;
  const auto bytes = encode_frame(f);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes);
  const Frame g = decode_frame(bytes);
  EXPECT_EQ(g.type, MsgType::kPing);
  EXPECT_EQ(g.client_id, kServerId);
  EXPECT_TRUE(g.payload.empty());
}

TEST(Frame, ValidMsgTypeRange) {
  EXPECT_FALSE(is_valid_msg_type(0));
  // 1..10 are the session types; 11/12 are the replication pair
  // (STANDBY_HELLO, REPLICATE); 13..15 are the relay tier trio
  // (UPDATE_AGG, RELAY_HELLO, CHILD_GONE).
  for (std::uint8_t t = 1; t <= 15; ++t) EXPECT_TRUE(is_valid_msg_type(t));
  EXPECT_FALSE(is_valid_msg_type(16));
  EXPECT_FALSE(is_valid_msg_type(0xFF));
}

TEST(FrameParser, ByteAtATimeDelivery) {
  const Frame f = sample_frame();
  const auto bytes = encode_frame(f);
  FrameParser p;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    p.consume(std::span<const std::uint8_t>(&bytes[i], 1));
    EXPECT_FALSE(p.next().has_value()) << "frame surfaced early at byte " << i;
  }
  p.consume(std::span<const std::uint8_t>(&bytes[bytes.size() - 1], 1));
  const auto g = p.next();
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->payload, f.payload);
  EXPECT_EQ(p.pending_bytes(), 0u);
}

TEST(FrameParser, MultipleFramesPerFeed) {
  Frame a = sample_frame();
  Frame b;
  b.type = MsgType::kScore;
  b.round = 8;
  b.client_id = 1;
  b.payload = {1, 2, 3};
  Frame c;
  c.type = MsgType::kPong;

  std::vector<std::uint8_t> stream;
  for (const Frame* f : {&a, &b, &c}) {
    const auto e = encode_frame(*f);
    stream.insert(stream.end(), e.begin(), e.end());
  }
  // Tack on half of a fourth frame: it must stay buffered, not delivered.
  const auto d = encode_frame(sample_frame());
  stream.insert(stream.end(), d.begin(), d.begin() + 30);

  FrameParser p;
  p.consume(stream);
  EXPECT_EQ(p.next()->type, MsgType::kUpdate);
  EXPECT_EQ(p.next()->type, MsgType::kScore);
  EXPECT_EQ(p.next()->type, MsgType::kPong);
  EXPECT_FALSE(p.next().has_value());
  EXPECT_EQ(p.pending_bytes(), 30u);
  p.consume(std::span<const std::uint8_t>(d).subspan(30));
  EXPECT_EQ(p.next()->payload, sample_frame().payload);
}

TEST(FrameParser, RejectsBadMagic) {
  auto bytes = encode_frame(sample_frame());
  bytes[0] ^= 0xFF;
  FrameParser p;
  EXPECT_THROW(p.consume(bytes), CheckError);
  EXPECT_THROW(decode_frame(bytes), CheckError);
}

TEST(FrameParser, RejectsUnknownMessageType) {
  for (std::uint8_t bad : {std::uint8_t{0}, std::uint8_t{16},
                           std::uint8_t{0xEE}}) {
    auto bytes = encode_frame(sample_frame());
    bytes[4] = bad;  // type byte follows the 4-byte magic
    FrameParser p;
    EXPECT_THROW(p.consume(bytes), CheckError) << int(bad);
  }
}

TEST(FrameParser, RejectsNonzeroReservedBytes) {
  for (std::size_t off : {std::size_t{5}, std::size_t{6}, std::size_t{7}}) {
    auto bytes = encode_frame(sample_frame());
    bytes[off] = 1;
    FrameParser p;
    EXPECT_THROW(p.consume(bytes), CheckError) << "reserved byte " << off;
  }
}

TEST(FrameParser, RejectsOversizedLengthPrefixFromHeaderAlone) {
  // A forged length prefix must be rejected as soon as the header is seen —
  // before any payload arrives — so a hostile peer cannot make the parser
  // buffer (or a naive receiver allocate) 4GB.
  auto bytes = encode_frame(sample_frame());
  bytes.resize(kFrameHeaderBytes);  // header only
  // payload_len lives at offset 16: magic(4) type(1) reserved(3) round(4)
  // client_id(4).
  const std::uint32_t huge = kMaxFramePayload + 1;
  bytes[16] = static_cast<std::uint8_t>(huge);
  bytes[17] = static_cast<std::uint8_t>(huge >> 8);
  bytes[18] = static_cast<std::uint8_t>(huge >> 16);
  bytes[19] = static_cast<std::uint8_t>(huge >> 24);
  FrameParser p;
  EXPECT_THROW(p.consume(bytes), CheckError);
}

TEST(FrameParser, RejectsCorruptedPayloadCrc) {
  auto bytes = encode_frame(sample_frame());
  bytes.back() ^= 0x01;  // flip one payload bit
  FrameParser p;
  EXPECT_THROW(p.consume(bytes), CheckError);
  EXPECT_THROW(decode_frame(bytes), CheckError);
}

TEST(Frame, DecodeRejectsTruncationAndTrailingBytes) {
  const auto bytes = encode_frame(sample_frame());
  // Shorter than a header.
  EXPECT_THROW(
      decode_frame(std::span<const std::uint8_t>(bytes).first(10)),
      CheckError);
  // Header present but payload truncated.
  EXPECT_THROW(
      decode_frame(
          std::span<const std::uint8_t>(bytes).first(bytes.size() - 1)),
      CheckError);
  // Trailing junk after a complete frame.
  auto longer = bytes;
  longer.push_back(0);
  EXPECT_THROW(decode_frame(longer), CheckError);
}

TEST(Frame, EncodeRejectsOversizedPayload) {
  Frame f;
  f.type = MsgType::kUpdate;
  f.payload.resize(kMaxFramePayload + 1);
  EXPECT_THROW(encode_frame(f), CheckError);
}

// --- consume() across splits of one stream. --------------------------------

namespace {

/// A stream of frames with varied payload sizes, including empty.
std::vector<std::uint8_t> sample_stream(std::vector<Frame>* frames_out) {
  std::vector<Frame> frames;
  for (int i = 0; i < 5; ++i) {
    Frame f;
    f.type = i % 2 == 0 ? MsgType::kUpdate : MsgType::kScore;
    f.round = static_cast<std::uint32_t>(i);
    f.client_id = static_cast<std::uint32_t>(100 + i);
    f.payload.resize(static_cast<std::size_t>(i) * 37);
    for (std::size_t j = 0; j < f.payload.size(); ++j)
      f.payload[j] = static_cast<std::uint8_t>(i * 31 + j * 7);
    frames.push_back(std::move(f));
  }
  std::vector<std::uint8_t> stream;
  for (const Frame& f : frames) {
    const auto bytes = encode_frame(f);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  *frames_out = std::move(frames);
  return stream;
}

std::vector<Frame> drain(FrameParser& p) {
  std::vector<Frame> out;
  while (auto f = p.next()) out.push_back(std::move(*f));
  return out;
}

void expect_same_frames(const std::vector<Frame>& got,
                        const std::vector<Frame>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].type, want[i].type) << "frame " << i;
    EXPECT_EQ(got[i].round, want[i].round) << "frame " << i;
    EXPECT_EQ(got[i].client_id, want[i].client_id) << "frame " << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << "frame " << i;
  }
}

}  // namespace

TEST(FrameParserConsume, WholeBufferMatchesEncodedFrames) {
  std::vector<Frame> want;
  const auto stream = sample_stream(&want);
  FrameParser p;
  std::size_t completed = p.consume(stream);
  EXPECT_EQ(completed, want.size());
  expect_same_frames(drain(p), want);
  EXPECT_EQ(p.pending_bytes(), 0u);
}

// The pinned contract: ANY split of the stream across consume() calls —
// byte-at-a-time being the worst case — yields the identical frame sequence
// as one whole-buffer call.
TEST(FrameParserConsume, ByteAtATimeMatchesWholeBuffer) {
  std::vector<Frame> want;
  const auto stream = sample_stream(&want);
  FrameParser p;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < stream.size(); ++i)
    completed += p.consume(std::span<const std::uint8_t>(&stream[i], 1));
  EXPECT_EQ(completed, want.size());
  expect_same_frames(drain(p), want);
  EXPECT_EQ(p.pending_bytes(), 0u);
}

TEST(FrameParserConsume, EverySplitPointMatchesWholeBuffer) {
  std::vector<Frame> want;
  const auto stream = sample_stream(&want);
  const std::span<const std::uint8_t> s(stream);
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameParser p;
    std::size_t completed = p.consume(s.subspan(0, cut));
    completed += p.consume(s.subspan(cut));
    EXPECT_EQ(completed, want.size()) << "split at " << cut;
    expect_same_frames(drain(p), want);
    EXPECT_EQ(p.pending_bytes(), 0u) << "split at " << cut;
  }
}

TEST(FrameParserConsume, RejectsBadMagic) {
  auto bytes = encode_frame(sample_frame());
  bytes[0] ^= 0xFF;
  FrameParser p;
  EXPECT_THROW(p.consume(bytes), CheckError);
}

TEST(FrameParserConsume, RejectsCorruptedPayloadCrcInBufferedTail) {
  auto bytes = encode_frame(sample_frame());
  bytes.back() ^= 0x01;
  // Split mid-payload so the corrupt tail goes through the buffered
  // completion path, not the in-place decode.
  FrameParser p;
  const std::span<const std::uint8_t> s(bytes);
  p.consume(s.subspan(0, bytes.size() - 5));
  EXPECT_THROW(p.consume(s.subspan(bytes.size() - 5)), CheckError);
}

}  // namespace
}  // namespace adafl::net::transport
