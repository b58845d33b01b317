// Seed-deterministic fuzzing of the two wire-facing parsers: the transport
// FrameParser (byte-stream framing) and compress::wire deserialization
// (gradient payload codec). Tens of thousands of mutated, truncated, and
// bit-flipped inputs must either parse or throw CheckError — never crash,
// hang, over-read, or corrupt parser state. Every case derives from one
// fixed seed so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "compress/codec.h"
#include "compress/wire.h"
#include "net/transport/frame.h"
#include "net/transport/session.h"
#include "net/transport/udp.h"
#include "tensor/check.h"
#include "tensor/rng.h"

namespace adafl {
namespace {

using net::transport::Frame;
using net::transport::FrameParser;
using net::transport::MsgType;

constexpr std::uint64_t kFuzzSeed = 0xAF17FA22u;

std::vector<std::uint8_t> make_valid_frame_bytes(std::mt19937_64& rng) {
  static const MsgType kTypes[] = {
      MsgType::kHello,  MsgType::kWelcome, MsgType::kModel, MsgType::kScore,
      MsgType::kSelect, MsgType::kSkip,    MsgType::kUpdate, MsgType::kPing,
      MsgType::kPong,   MsgType::kShutdown};
  Frame f;
  f.type = kTypes[rng() % std::size(kTypes)];
  f.round = static_cast<std::uint32_t>(rng() % 1000);
  f.client_id = static_cast<std::uint32_t>(rng() % 64);
  f.payload.resize(rng() % 256);
  for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng());
  return net::transport::encode_frame(f);
}

/// Consumes `bytes` on a fresh parser in random-sized chunks; returns the
/// number of frames parsed, or -1 if the stream was rejected (CheckError).
int consume_stream(std::span<const std::uint8_t> bytes, std::mt19937_64& rng) {
  FrameParser parser;
  int frames = 0;
  std::size_t off = 0;
  try {
    while (off < bytes.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng() % 97, bytes.size() - off);
      parser.consume(bytes.subspan(off, chunk));
      off += chunk;
      while (parser.next()) ++frames;
    }
    while (parser.next()) ++frames;
  } catch (const CheckError&) {
    return -1;
  }
  return frames;
}

// ~7k cases: one or two valid frames with a random single-bit flip, a random
// byte overwrite, or a truncation. The parser must parse or reject — and a
// stream left unmutated must always parse completely.
TEST(FrameFuzz, MutatedFrameStreams) {
  std::mt19937_64 rng(kFuzzSeed);
  int parsed = 0, rejected = 0, intact = 0;
  for (int i = 0; i < 7000; ++i) {
    std::vector<std::uint8_t> stream = make_valid_frame_bytes(rng);
    if (i % 2 == 0) {
      const auto second = make_valid_frame_bytes(rng);
      stream.insert(stream.end(), second.begin(), second.end());
    }
    const int mode = i % 4;
    if (mode == 0) {  // single bit flip
      stream[rng() % stream.size()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    } else if (mode == 1) {  // random byte overwrite
      stream[rng() % stream.size()] = static_cast<std::uint8_t>(rng());
    } else if (mode == 2) {  // truncate
      stream.resize(rng() % stream.size());
    }  // mode 3: leave intact
    const int got = consume_stream(stream, rng);
    if (mode == 3) {
      ASSERT_GE(got, 1) << "intact stream rejected at case " << i;
      ++intact;
    }
    if (got >= 0) ++parsed; else ++rejected;
  }
  // The mutation mix must actually exercise both outcomes.
  EXPECT_GT(rejected, 1000);
  EXPECT_GT(parsed, 1000);
  EXPECT_GT(intact, 1500);
}

// ~2k cases of pure garbage: random bytes, sometimes starting with the real
// magic so the parser gets past the cheap check.
TEST(FrameFuzz, GarbageStreams) {
  std::mt19937_64 rng(kFuzzSeed ^ 0x6A5Bu);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> stream(rng() % 300);
    for (auto& b : stream) b = static_cast<std::uint8_t>(rng());
    if (i % 3 == 0 && stream.size() >= 4) {
      stream[0] = 'A'; stream[1] = 'F'; stream[2] = 'L'; stream[3] = '1';
    }
    consume_stream(stream, rng);  // must not crash or hang
  }
}

// A poisoned parser (post-throw) must stay safely rejectable: consuming more
// bytes may throw again but never crashes.
TEST(FrameFuzz, PoisonedParserStaysSafe) {
  std::mt19937_64 rng(kFuzzSeed ^ 0x9177u);
  for (int i = 0; i < 500; ++i) {
    FrameParser parser;
    std::vector<std::uint8_t> bad(net::transport::kFrameHeaderBytes, 0xFF);
    EXPECT_THROW(parser.consume(bad), CheckError);
    try {
      parser.consume(make_valid_frame_bytes(rng));
      while (parser.next()) {}
    } catch (const CheckError&) {
    }
  }
}

std::vector<std::uint8_t> make_valid_gradient_bytes(std::mt19937_64& rng,
                                                    tensor::Rng& enc_rng) {
  std::vector<float> grad(16 + rng() % 64);
  for (auto& v : grad)
    v = static_cast<float>(static_cast<double>(rng() % 2000) / 1000.0 - 1.0);
  const int which = static_cast<int>(rng() % 4);
  compress::EncodedGradient e;
  if (which == 0) {
    e = compress::IdentityCodec().encode(grad, enc_rng);
  } else if (which == 1) {
    e = compress::TopKCodec(4.0).encode(grad, enc_rng);
  } else if (which == 2) {
    e = compress::QsgdCodec(8).encode(grad, enc_rng);
  } else {
    e = compress::TernaryCodec().encode(grad, enc_rng);
  }
  return compress::serialize(e);
}

// ~6k cases: serialized gradients with bit flips, overwrites, truncations,
// and appended garbage into deserialize_into(). The output message is
// caller-owned and reused across calls, exactly like the session layer's
// receive path — a rejected parse must not break the next accepted one.
TEST(FrameFuzz, MutatedGradientPayloads) {
  std::mt19937_64 rng(kFuzzSeed ^ 0xD6C0u);
  tensor::Rng enc_rng(kFuzzSeed);
  compress::EncodedGradient out;  // reused, like the server's scratch message
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 6000; ++i) {
    std::vector<std::uint8_t> bytes = make_valid_gradient_bytes(rng, enc_rng);
    const int mode = i % 5;
    if (mode == 0) {
      bytes[rng() % bytes.size()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    } else if (mode == 1) {
      bytes[rng() % bytes.size()] = static_cast<std::uint8_t>(rng());
    } else if (mode == 2) {
      bytes.resize(rng() % bytes.size());
    } else if (mode == 3) {
      bytes.push_back(static_cast<std::uint8_t>(rng()));
    }  // mode 4: intact
    try {
      compress::deserialize_into(bytes, out);
      ++accepted;
      // Whatever parsed must be internally consistent enough to decode.
      // The session layer rejects any message whose dense_size disagrees
      // with the model before decoding; mirror that gate here so a flipped
      // size field doesn't make the *test* allocate gigabytes.
      if (out.dense_size <= (1 << 16)) {
        std::vector<float> dense = out.decode();
        EXPECT_EQ(dense.size(), static_cast<std::size_t>(out.dense_size));
      }
    } catch (const CheckError&) {
      ++rejected;
    }
    if (mode == 4) {
      // An unmutated message always parses and round-trips its wire size.
      compress::deserialize_into(make_valid_gradient_bytes(rng, enc_rng),
                                       out);
    }
  }
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 500);
}

// ---------------------------------------------------------------------------
// Datagram-header fuzzing: the FEC reassembler receives raw UDP payloads, so
// unlike the byte-stream FrameParser it must NEVER throw — hostile datagrams
// are dropped (counted malformed) and the stream stays usable.

using net::transport::FrameFragmenter;
using net::transport::FrameReassembler;
using net::transport::UdpFecConfig;

UdpFecConfig fuzz_fec_config() {
  UdpFecConfig cfg;
  cfg.data_shards = 4;
  cfg.parity_shards = 2;
  cfg.max_shard_bytes = 48;  // small shards => multi-generation frames
  cfg.max_assemblies = 4;
  return cfg;
}

Frame make_random_frame(std::mt19937_64& rng) {
  Frame f;
  f.type = MsgType::kUpdate;
  f.round = static_cast<std::uint32_t>(rng() % 1000);
  f.client_id = static_cast<std::uint32_t>(rng() % 64);
  f.payload.resize(rng() % 700);
  for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng());
  return f;
}

/// Mutation `mode` (0-5) of one frame's datagrams, then a shuffle: a bit
/// flip, a header byte overwrite, a truncation, a duplicate, a drop, or
/// none.
void mutate_datagrams(std::vector<std::vector<std::uint8_t>>& dgrams,
                      int mode, std::mt19937_64& rng) {
  if (mode == 0) {  // single bit flip somewhere (often the header)
    auto& d = dgrams[rng() % dgrams.size()];
    d[rng() % d.size()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
  } else if (mode == 1) {  // byte overwrite targeted at the header
    auto& d = dgrams[rng() % dgrams.size()];
    d[rng() % std::min<std::size_t>(d.size(),
                                    net::transport::kDatagramHeaderBytes)] =
        static_cast<std::uint8_t>(rng());
  } else if (mode == 2) {  // truncate one datagram
    auto& d = dgrams[rng() % dgrams.size()];
    d.resize(rng() % d.size());
  } else if (mode == 3) {  // duplicate one datagram
    dgrams.push_back(dgrams[rng() % dgrams.size()]);
  } else if (mode == 4) {  // drop within the parity budget
    if (dgrams.size() > 1) dgrams.erase(dgrams.begin() + static_cast<long>(
                                            rng() % dgrams.size()));
  }  // mode 5: intact
  std::shuffle(dgrams.begin(), dgrams.end(), rng);
}

// ~6k cases: datagrams of a valid frame with one mutated member — bit flips
// and byte overwrites across the header (bad generation/sequence numbers,
// bad shard indices, bad lengths), truncations, duplicates, and drops.
// offer() must never throw, and an unmutated set must reassemble the frame
// byte-identically in any delivery order.
TEST(DatagramFuzz, MutatedDatagrams) {
  std::mt19937_64 rng(kFuzzSeed ^ 0xDA7A0001u);
  const UdpFecConfig cfg = fuzz_fec_config();
  FrameFragmenter frag(cfg);
  FrameReassembler reasm(cfg);
  int delivered = 0;
  for (int i = 0; i < 6000; ++i) {
    const Frame f = make_random_frame(rng);
    auto dgrams = frag.fragment(f);
    const int mode = i % 6;
    mutate_datagrams(dgrams, mode, rng);
    for (const auto& d : dgrams)
      ASSERT_NO_THROW(reasm.offer(d)) << "offer threw at case " << i;
    while (auto got = reasm.next()) {
      ++delivered;
      if (mode == 5) {
        EXPECT_EQ(got->payload, f.payload) << "payload corrupted, case " << i;
        EXPECT_EQ(got->round, f.round);
      }
    }
  }
  // Intact and single-drop cases must actually deliver (parity covers one
  // loss), so a silent drop-everything reassembler cannot pass.
  EXPECT_GT(delivered, 2000);
}

// The vector form of offer(), which keeps the datagram as shard storage,
// and the span form, which copies it, deliver the same frames and count the
// same datagrams on the mutated and garbage inputs above.
TEST(DatagramFuzz, SpanAndVectorOffersAgree) {
  std::mt19937_64 rng(kFuzzSeed ^ 0xDA7A0004u);
  net::transport::FecStats span_stats, vec_stats;
  UdpFecConfig cfg = fuzz_fec_config();
  FrameFragmenter frag(cfg);
  cfg.stats = &span_stats;
  FrameReassembler by_span(cfg);
  cfg.stats = &vec_stats;
  FrameReassembler by_vector(cfg);
  int delivered = 0;
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::vector<std::uint8_t>> dgrams;
    if (i % 7 == 6) {  // garbage, sometimes wearing a valid magic
      dgrams.emplace_back(rng() % 200);
      for (auto& b : dgrams.back()) b = static_cast<std::uint8_t>(rng());
      if (i % 2 == 0 && dgrams.back().size() >= 4)
        std::copy_n("AFD1", 4, dgrams.back().begin());
    } else {
      dgrams = frag.fragment(make_random_frame(rng));
      mutate_datagrams(dgrams, i % 6, rng);
    }
    for (auto& d : dgrams) {
      by_span.offer(std::span<const std::uint8_t>(d));
      by_vector.offer(std::move(d));
    }
    for (;;) {
      auto a = by_span.next();
      auto b = by_vector.next();
      ASSERT_EQ(a.has_value(), b.has_value()) << "case " << i;
      if (!a) break;
      ++delivered;
      EXPECT_EQ(a->type, b->type);
      EXPECT_EQ(a->round, b->round);
      EXPECT_EQ(a->client_id, b->client_id);
      EXPECT_EQ(a->payload, b->payload) << "case " << i;
    }
  }
  EXPECT_GT(delivered, 1000);
  EXPECT_EQ(span_stats.datagrams_received.load(),
            vec_stats.datagrams_received.load());
  EXPECT_EQ(span_stats.datagrams_malformed.load(),
            vec_stats.datagrams_malformed.load());
  EXPECT_GT(vec_stats.datagrams_malformed.load(), 0);
  EXPECT_EQ(span_stats.frames_delivered.load(),
            vec_stats.frames_delivered.load());
  EXPECT_EQ(span_stats.frames_dropped.load(), vec_stats.frames_dropped.load());
}

// ~2k cases of pure garbage, sometimes wearing a valid magic. Never throws,
// never delivers.
TEST(DatagramFuzz, GarbageDatagrams) {
  std::mt19937_64 rng(kFuzzSeed ^ 0xDA7A0002u);
  const UdpFecConfig cfg = fuzz_fec_config();
  FrameReassembler reasm(cfg);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> d(rng() % 200);
    for (auto& b : d) b = static_cast<std::uint8_t>(rng());
    if (i % 3 == 0 && d.size() >= 4) {
      d[0] = 'A'; d[1] = 'F'; d[2] = 'D'; d[3] = '1';
    }
    ASSERT_NO_THROW(reasm.offer(d));
  }
  EXPECT_FALSE(reasm.next().has_value());
}

// Every truncation length of a valid datagram, plus cross-generation and
// cross-frame interleavings (~2k cases total). The reassembler must keep
// accepting valid traffic afterwards.
TEST(DatagramFuzz, TruncatedHeadersAndCrossFrameMixing) {
  std::mt19937_64 rng(kFuzzSeed ^ 0xDA7A0003u);
  const UdpFecConfig cfg = fuzz_fec_config();
  FrameFragmenter frag(cfg);
  FrameReassembler reasm(cfg);

  // All prefixes of one valid datagram.
  const Frame f0 = make_random_frame(rng);
  const auto base = frag.fragment(f0);
  for (std::size_t len = 0; len < base[0].size(); ++len)
    ASSERT_NO_THROW(reasm.offer(std::span(base[0].data(), len)));

  // Interleave datagrams of many concurrent frames (more than
  // max_assemblies, forcing evictions), with occasional re-offers of stale
  // datagrams from long-gone frames.
  std::vector<std::vector<std::uint8_t>> stale;
  int delivered = 0;
  for (int i = 0; i < 400; ++i) {
    std::vector<std::vector<std::uint8_t>> mixed;
    std::vector<Frame> frames;
    for (int j = 0; j < 5; ++j) {
      frames.push_back(make_random_frame(rng));
      for (auto& d : frag.fragment(frames.back())) mixed.push_back(std::move(d));
    }
    if (!stale.empty() && i % 7 == 0)
      mixed.push_back(stale[rng() % stale.size()]);
    std::shuffle(mixed.begin(), mixed.end(), rng);
    for (const auto& d : mixed) ASSERT_NO_THROW(reasm.offer(d));
    while (reasm.next()) ++delivered;
    stale.push_back(mixed[rng() % mixed.size()]);
    if (stale.size() > 16) stale.erase(stale.begin());
  }
  EXPECT_GT(delivered, 1000);  // 5 frames x 400 rounds, nearly all complete
}

// ---------------------------------------------------------------------------
// UPDATE-AGG fuzzing: the relay-tier aggregate message is the highest-trust
// input the root accepts (one frame commits a whole group of leaves), so its
// parser + validator pair must reject every malformed or hostile variant
// with CheckError — the session layer's signal to drop the relay connection
// — and never crash, over-read, or let a bad aggregate commit.

using net::transport::UpdateAggChild;
using net::transport::UpdateAggPayload;

constexpr std::int64_t kAggDense = 512;
constexpr int kAggGroup = 8;
constexpr int kAggRelayBase = 8;
constexpr int kAggRelayCount = 16;

/// A structurally and semantically valid UPDATE-AGG for group [8, 16) of a
/// relay claiming [8, 24), with a random child subset and top-k partial.
UpdateAggPayload make_valid_agg(std::mt19937_64& rng) {
  UpdateAggPayload a;
  a.base = kAggRelayBase;
  a.count = kAggGroup;
  const std::uint32_t nc = 1 + rng() % kAggGroup;
  std::vector<std::uint32_t> ids(kAggGroup);
  for (std::uint32_t i = 0; i < kAggGroup; ++i) ids[i] = a.base + i;
  std::shuffle(ids.begin(), ids.end(), rng);
  ids.resize(nc);
  std::sort(ids.begin(), ids.end());
  for (const std::uint32_t id : ids) {
    UpdateAggChild c;
    c.id = id;
    c.num_examples = 1 + static_cast<std::int64_t>(rng() % 512);
    c.mean_loss = static_cast<float>(static_cast<double>(rng() % 5000) / 1000.0);
    c.raw_delta_norm = static_cast<double>(rng() % 10000) / 100.0;
    c.wire_bytes = static_cast<std::int64_t>(rng() % 100000);
    a.children.push_back(c);
  }
  a.partial.kind = compress::CodecKind::kTopK;
  a.partial.dense_size = kAggDense;
  a.partial.wire_bytes = 0;
  const std::size_t k = 1 + rng() % 64;
  std::vector<std::uint32_t> idx(kAggDense);
  for (std::size_t i = 0; i < idx.size(); ++i)
    idx[i] = static_cast<std::uint32_t>(i);
  std::shuffle(idx.begin(), idx.end(), rng);
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  a.partial.indices = idx;
  a.partial.values.resize(k);
  for (auto& v : a.partial.values)
    v = static_cast<float>(static_cast<double>(rng() % 2000) / 1000.0 - 1.0);
  return a;
}

/// Full root-side acceptance: structural parse + semantic validation.
/// Returns true when the bytes would commit, false when the root would drop
/// the relay connection. Anything else (crash, hang, foreign exception)
/// fails the test.
bool root_accepts(std::span<const std::uint8_t> bytes) {
  try {
    const UpdateAggPayload a = net::transport::parse_update_agg(bytes);
    net::transport::validate_update_agg(a, kAggDense, kAggGroup,
                                        kAggRelayBase, kAggRelayCount);
    return true;
  } catch (const CheckError&) {
    return false;
  }
}

// ~5.5k cases: valid UPDATE-AGG bytes with a bit flip, byte overwrite,
// truncation, or appended garbage. Every case must parse-or-reject; intact
// bytes must always be accepted.
TEST(UpdateAggFuzz, MutatedPayloads) {
  std::mt19937_64 rng(kFuzzSeed ^ 0xA6600001u);
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 5500; ++i) {
    std::vector<std::uint8_t> bytes =
        net::transport::encode_update_agg(make_valid_agg(rng));
    const int mode = i % 5;
    if (mode == 0) {
      bytes[rng() % bytes.size()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    } else if (mode == 1) {
      bytes[rng() % bytes.size()] = static_cast<std::uint8_t>(rng());
    } else if (mode == 2) {
      bytes.resize(rng() % bytes.size());
    } else if (mode == 3) {
      const std::size_t extra = 1 + rng() % 32;
      for (std::size_t j = 0; j < extra; ++j)
        bytes.push_back(static_cast<std::uint8_t>(rng()));
    }  // mode 4: intact
    const bool ok = root_accepts(bytes);
    if (mode == 4) {
      ASSERT_TRUE(ok) << "intact UPDATE-AGG rejected, case " << i;
    }
    if (mode == 2 || mode == 3) {
      ASSERT_FALSE(ok) << "resized UPDATE-AGG accepted, case " << i;
    }
    if (ok) ++accepted; else ++rejected;
  }
  EXPECT_GT(accepted, 1000);  // the intact fifth, at minimum
  EXPECT_GT(rejected, 2000);  // truncation/append alone guarantee this
}

// ~4k cases of semantically hostile aggregates that are byte-wise
// well-formed: every one must be rejected. These are the messages a buggy
// or malicious relay could actually construct — each would corrupt the
// round (double-counted leaf, foreign leaf, poisoned coordinates) if the
// root committed it.
TEST(UpdateAggFuzz, StructuredHostileAggregates) {
  std::mt19937_64 rng(kFuzzSeed ^ 0xA6600002u);
  constexpr int kModes = 16;
  for (int i = 0; i < 4000; ++i) {
    UpdateAggPayload a = make_valid_agg(rng);
    const int mode = i % kModes;
    switch (mode) {
      case 0:  // duplicate child id
        a.children.push_back(a.children.back());
        break;
      case 1:  // non-ascending child ids
        if (a.children.size() < 2) a.children.push_back(a.children.back());
        std::swap(a.children.front(), a.children.back());
        if (a.children.front().id == a.children.back().id)
          a.children.front().id = a.children.back().id + 1;
        break;
      case 2:  // child id outside the group
        a.children.back().id = a.base + a.count + rng() % 100;
        break;
      case 3:  // empty child list
        a.children.clear();
        break;
      case 4:  // more children than the group holds
        a.count = 2;
        break;
      case 5:  // non-positive example count
        a.children.front().num_examples = -static_cast<std::int64_t>(rng() % 2);
        break;
      case 6:  // non-finite mean loss
        a.children.front().mean_loss =
            i % 2 ? std::numeric_limits<float>::quiet_NaN()
                  : std::numeric_limits<float>::infinity();
        break;
      case 7:  // invalid raw delta norm
        a.children.front().raw_delta_norm =
            i % 2 ? -1.0 : std::numeric_limits<double>::quiet_NaN();
        break;
      case 8:  // absurd claimed wire size
        a.children.front().wire_bytes =
            static_cast<std::int64_t>(net::transport::kMaxFramePayload) + 1 +
            static_cast<std::int64_t>(rng() % 1000);
        break;
      case 9:  // partial is not top-k
        a.partial.kind = compress::CodecKind::kIdentity;
        a.partial.indices.clear();
        a.partial.values.assign(static_cast<std::size_t>(kAggDense), 0.0f);
        break;
      case 10:  // partial coordinate out of range
        a.partial.indices.back() =
            static_cast<std::uint32_t>(kAggDense + rng() % 100);
        break;
      case 11:  // partial coordinates not strictly ascending
        if (a.partial.indices.size() < 2) {
          a.partial.indices.push_back(a.partial.indices.back());
          a.partial.values.push_back(0.5f);
        } else {
          a.partial.indices.back() = a.partial.indices.front();
        }
        break;
      case 12:  // non-finite partial value
        a.partial.values.front() =
            i % 2 ? std::numeric_limits<float>::quiet_NaN()
                  : -std::numeric_limits<float>::infinity();
        break;
      case 13:  // dense size disagrees with the model
        a.partial.dense_size = kAggDense + 1 + static_cast<std::int64_t>(
                                                  rng() % 64);
        break;
      case 14:  // group not aligned to agg_group
        a.base += 1 + rng() % (kAggGroup - 1);
        for (auto& c : a.children) c.id = a.base;  // keep ids in-group
        a.children.resize(1);
        break;
      case 15:  // group outside the relay's claimed range
        a.base = kAggRelayBase + kAggRelayCount;
        for (std::size_t j = 0; j < a.children.size(); ++j)
          a.children[j].id = a.base + static_cast<std::uint32_t>(j);
        break;
      default:
        break;
    }
    const auto bytes = net::transport::encode_update_agg(a);
    ASSERT_FALSE(root_accepts(bytes))
        << "hostile aggregate accepted: mode " << mode << ", case " << i;
  }
}

// Every prefix of one valid UPDATE-AGG plus a patched inner-payload length
// field (~600 cases): a frame that lies about its partial's size — in
// either direction — must be rejected, and no truncation may over-read.
TEST(UpdateAggFuzz, TruncationsAndLengthLies) {
  std::mt19937_64 rng(kFuzzSeed ^ 0xA6600003u);
  const UpdateAggPayload a = make_valid_agg(rng);
  const auto bytes = net::transport::encode_update_agg(a);
  for (std::size_t len = 0; len < bytes.size(); ++len)
    ASSERT_FALSE(root_accepts(std::span(bytes.data(), len)))
        << "truncated UPDATE-AGG accepted at length " << len;
  ASSERT_TRUE(root_accepts(bytes));

  // plen sits right after the child records.
  const std::size_t plen_off = 12 + a.children.size() * 32;
  ASSERT_LT(plen_off + 4, bytes.size());
  for (const std::int64_t delta : {-5, -1, 1, 5, 1000}) {
    std::vector<std::uint8_t> lied = bytes;
    std::uint32_t plen = 0;
    for (int b = 0; b < 4; ++b)
      plen |= static_cast<std::uint32_t>(lied[plen_off + b]) << (8 * b);
    const std::uint32_t bad = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(plen) + delta);
    for (int b = 0; b < 4; ++b)
      lied[plen_off + b] = static_cast<std::uint8_t>((bad >> (8 * b)) & 0xFF);
    ASSERT_FALSE(root_accepts(lied)) << "plen lie " << delta << " accepted";
  }
}

}  // namespace
}  // namespace adafl
