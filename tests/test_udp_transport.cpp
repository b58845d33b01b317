// The FEC-coded datagram transport, bottom to top: datagram header codec,
// fragment/reassemble round trips, Reed-Solomon repair of lost datagrams,
// deterministic datagram-level chaos, and the tier-1 oracle — a deployed
// session over UDP loopback under scripted loss must finish bitwise- and
// trace-identical to the simulator with ZERO retransmits and ZERO
// reconnects, because parity absorbs the loss with no round trips.
#include <gtest/gtest.h>
#include <malloc.h>
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "deployed_test_util.h"
#include "metrics/trace.h"
#include "net/transport/crc32.h"
#include "net/transport/faulty.h"
#include "net/transport/frame.h"
#include "net/transport/session.h"
#include "net/transport/udp.h"
#include "tensor/rng.h"

namespace adafl {
namespace {

using namespace net::transport;
using metrics::TraceEvent;
using metrics::TraceEventType;
using metrics::Tracer;

constexpr std::uint64_t kSeed = 0x0DD5EED5u;

Frame test_frame(std::size_t payload_bytes, std::uint32_t round = 3) {
  Frame f;
  f.type = MsgType::kUpdate;
  f.round = round;
  f.client_id = 7;
  f.payload.resize(payload_bytes);
  std::mt19937_64 rng(kSeed ^ payload_bytes);
  for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng());
  return f;
}

UdpFecConfig small_cfg(FecStats* stats = nullptr) {
  UdpFecConfig cfg;
  cfg.data_shards = 4;
  cfg.parity_shards = 2;
  cfg.max_shard_bytes = 64;
  cfg.stats = stats;
  return cfg;
}

// --- Header codec ----------------------------------------------------------

TEST(DatagramCodec, HeaderRoundTrip) {
  DatagramHeader h;
  h.shard = 5;
  h.k = 6;
  h.r = 2;
  h.frame_seq = 0x0123456789ABCDEFull;
  h.gen_index = 3;
  h.gen_count = 9;
  h.frame_len = 100000;
  h.gen_off = 4096;
  h.shard_len = 11;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  const auto wire = encode_datagram(h, payload);
  ASSERT_EQ(wire.size(), kDatagramHeaderBytes + payload.size());

  const auto got = parse_datagram(wire);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->shard, h.shard);
  EXPECT_EQ(got->k, h.k);
  EXPECT_EQ(got->r, h.r);
  EXPECT_EQ(got->frame_seq, h.frame_seq);
  EXPECT_EQ(got->gen_index, h.gen_index);
  EXPECT_EQ(got->gen_count, h.gen_count);
  EXPECT_EQ(got->frame_len, h.frame_len);
  EXPECT_EQ(got->gen_off, h.gen_off);
  EXPECT_EQ(got->shard_len, h.shard_len);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         wire.begin() + static_cast<long>(kDatagramHeaderBytes)));
}

TEST(DatagramCodec, RejectsCorruptionAndBadStructure) {
  DatagramHeader h;
  h.shard = 0;
  h.k = 4;
  h.r = 2;
  h.frame_seq = 42;
  h.gen_count = 2;
  h.frame_len = 200;
  h.gen_off = 0;
  h.shard_len = 8;
  const std::vector<std::uint8_t> payload(8, 0xAB);
  const auto good = encode_datagram(h, payload);
  ASSERT_TRUE(parse_datagram(good).has_value());

  // Truncation: every proper prefix is rejected.
  for (std::size_t len = 0; len < good.size(); ++len)
    EXPECT_FALSE(parse_datagram(std::span(good.data(), len)).has_value())
        << "accepted prefix of length " << len;

  // Any single flipped bit dies on the CRC (or magic/version first).
  std::mt19937_64 rng(kSeed);
  for (int i = 0; i < 500; ++i) {
    auto bad = good;
    bad[rng() % bad.size()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    EXPECT_FALSE(parse_datagram(bad).has_value());
  }

  // Structurally invalid headers with VALID CRCs (encode computes the CRC
  // over whatever the header says) must still be rejected.
  auto rejects = [&](DatagramHeader bad_h, std::size_t payload_len) {
    const std::vector<std::uint8_t> p(payload_len, 0x11);
    EXPECT_FALSE(parse_datagram(encode_datagram(bad_h, p)).has_value());
  };
  DatagramHeader b = h;
  b.k = 0;  // no data shards
  rejects(b, 8);
  b = h;
  b.shard = 6;  // index == n
  rejects(b, 8);
  b = h;
  b.gen_count = 0;
  rejects(b, 8);
  b = h;
  b.gen_index = 2;  // == gen_count
  rejects(b, 8);
  b = h;
  b.gen_count = kMaxGenerationsPerFrame + 1;
  rejects(b, 8);
  b = h;
  b.frame_len = 2;  // below the frame header minimum
  rejects(b, 8);
  b = h;
  b.gen_off = 200;  // == frame_len
  rejects(b, 8);
  b = h;
  b.shard_len = 0;
  rejects(b, 0);
  b = h;
  b.k = 4;
  b.shard_len = 100;  // (k-1)*shard_len >= frame_len - gen_off
  rejects(b, 100);
}

std::uint32_t crc_field(const std::vector<std::uint8_t>& datagram) {
  const std::uint8_t* p = datagram.data() + kDatagramHeaderBytes - 4;
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

// A peer's datagram CRCs are the image's frame_seq-0 CRCs XOR a correction
// that depends only on (frame_seq, shard_len). It must give the CRC of the
// stamped bytes for sequence numbers no fragmenter reaches in a test (high
// bits set) and for every shard length, the short last generation's too.
TEST(DatagramCodec, CrcCorrectionMatchesStampedBytes) {
  DatagramHeader h;
  h.frame_len = static_cast<std::uint32_t>(kFrameHeaderBytes) +
                kMaxFramePayload;
  std::mt19937_64 rng(kSeed ^ 23);
  // 925 bytes: the last generation's shards of a 449,000-byte MODEL at
  // RS(8+8) and 1200-byte shards.
  for (const std::size_t len : {std::size_t{1}, std::size_t{925},
                                std::size_t{1200}, kMaxShardBytes}) {
    std::vector<std::uint8_t> payload(len);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
    h.shard_len = static_cast<std::uint16_t>(len);
    h.frame_seq = 0;
    const std::uint32_t crc0 = crc_field(encode_datagram(h, payload));
    EXPECT_EQ(datagram_crc_correction(0, len), 0u);
    for (const std::uint64_t seq :
         {std::uint64_t{1}, (std::uint64_t{1} << 32) + 7,
          (std::uint64_t{1} << 63) + 1, ~std::uint64_t{0}}) {
      h.frame_seq = seq;
      const auto stamped = encode_datagram(h, payload);
      ASSERT_TRUE(parse_datagram(stamped).has_value());
      EXPECT_EQ(crc_field(stamped), crc0 ^ datagram_crc_correction(seq, len))
          << "frame_seq " << seq << ", shard_len " << len;
    }
  }

  // The fragmenter's derived CRCs, short last generation included, are
  // what encode_datagram computes over the same header and payload.
  FrameFragmenter frag(small_cfg());
  const Frame f = test_frame(1100);  // four full generations, one of 100 B
  for (int seq = 0; seq < 3; ++seq) {
    for (const auto& d : frag.fragment(f)) {
      const auto got = parse_datagram(d);
      ASSERT_TRUE(got.has_value()) << "frame_seq " << seq;
      EXPECT_EQ(encode_datagram(*got, std::span(d).subspan(
                                          kDatagramHeaderBytes)),
                d);
    }
  }
}

// --- Fragment / reassemble round trips -------------------------------------

TEST(UdpFragmentation, RoundTripAcrossSizes) {
  // With 2 data shards of at most 5 bytes, the 24-byte frame header spans
  // three generations, and the third is split between header and payload.
  UdpFecConfig tiny = small_cfg();
  tiny.data_shards = 2;
  tiny.max_shard_bytes = 5;
  for (const UdpFecConfig& cfg : {small_cfg(), tiny}) {
    SCOPED_TRACE("data_shards " + std::to_string(cfg.data_shards));
    FrameFragmenter frag(cfg);
    FrameReassembler reasm(cfg);
    // Sub-shard, exact shard, exact generation, multi-generation, and
    // off-by-one around each boundary. (Frame encoding adds its own header.)
    const std::size_t sizes[] = {0,   1,   63,  64,  65,   255,  256,
                                 257, 512, 513, 999, 4096, 10000};
    for (const std::size_t sz : sizes) {
      const Frame f = test_frame(sz);
      const auto dgrams = frag.fragment(f);
      ASSERT_FALSE(dgrams.empty());
      for (const auto& d : dgrams) reasm.offer(d);
      const auto got = reasm.next();
      ASSERT_TRUE(got.has_value()) << "size " << sz;
      EXPECT_EQ(got->payload, f.payload);
      EXPECT_EQ(got->round, f.round);
      EXPECT_EQ(got->client_id, f.client_id);
      EXPECT_EQ(static_cast<int>(got->type), static_cast<int>(f.type));
      EXPECT_FALSE(reasm.next().has_value());
    }
  }
}

TEST(UdpFragmentation, ParityBytesAccounted) {
  FecStats stats;
  const UdpFecConfig cfg = small_cfg(&stats);
  FrameFragmenter frag(cfg);
  const auto dgrams = frag.fragment(test_frame(1000));
  // ceil over generations: every generation ships its r parity datagrams.
  std::int64_t parity = 0;
  for (const auto& d : dgrams) {
    const auto h = parse_datagram(d);
    ASSERT_TRUE(h.has_value());
    if (h->shard >= h->k) parity += static_cast<std::int64_t>(d.size());
  }
  EXPECT_GT(parity, 0);
  EXPECT_EQ(stats.parity_bytes.load(), parity);
  EXPECT_EQ(stats.datagrams_sent.load(),
            static_cast<std::int64_t>(dgrams.size()));
}

// --- Golden wire bytes -----------------------------------------------------

/// A fixed-seed MODEL frame of fleet_1k's broadcast size (137 KB: 17536
/// weights and as many g_hat entries). Exact arithmetic only, so the bytes
/// are the same on every platform.
Frame golden_model_frame() {
  tensor::Rng rng(kSeed);
  ModelPayload m;
  m.global.resize(17536);
  m.g_hat.resize(17536);
  for (float& v : m.global) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& v : m.g_hat) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return Frame{MsgType::kModel, 5, kServerId, encode_model(m)};
}

// Pins the bytes both carriers put on the wire for one MODEL broadcast:
// the stream frame, and the datagrams lossy_udp's RS(8+8)/1200-byte shape
// emits for it. The values were recorded with the byte-at-a-time table CRC;
// any change to framing, fragmentation, parity or the CRC kernels that
// moves a single wire byte fails here.
TEST(WireGolden, ModelFrameAndLossyUdpDatagramsArePinned) {
  const Frame f = golden_model_frame();
  ASSERT_EQ(f.payload.size(), 140296u);
  const std::vector<std::uint8_t> stream = encode_frame(f);
  EXPECT_EQ(stream.size(), 140320u);
  EXPECT_EQ(crc32(stream), 0xEB274BC1u);

  UdpFecConfig cfg;
  cfg.data_shards = 8;
  cfg.parity_shards = 8;
  cfg.max_shard_bytes = 1200;
  FrameFragmenter frag(cfg);
  std::vector<std::uint8_t> datagrams;
  std::size_t count = 0;
  for (const auto& d : frag.fragment(f)) {
    datagrams.insert(datagrams.end(), d.begin(), d.end());
    ++count;
  }
  EXPECT_EQ(count, 240u);
  EXPECT_EQ(datagrams.size(), 290240u);
  EXPECT_EQ(crc32(datagrams), 0xFCE5BA45u);
}

TEST(UdpFragmentation, AnyLossWithinParityBudgetRepairs) {
  std::mt19937_64 rng(kSeed ^ 11);
  FecStats stats;
  const UdpFecConfig cfg = small_cfg(&stats);
  FrameFragmenter frag(cfg);
  FrameReassembler reasm(cfg);
  for (int trial = 0; trial < 200; ++trial) {
    const Frame f = test_frame(700 + trial);  // ~3 generations
    auto dgrams = frag.fragment(f);
    // Group indices by generation, drop up to r from each.
    std::map<std::uint32_t, std::vector<std::size_t>> by_gen;
    for (std::size_t i = 0; i < dgrams.size(); ++i)
      by_gen[parse_datagram(dgrams[i])->gen_index].push_back(i);
    std::vector<bool> drop(dgrams.size(), false);
    for (auto& [gen, idx] : by_gen) {
      std::shuffle(idx.begin(), idx.end(), rng);
      const std::size_t e = rng() % (static_cast<std::size_t>(
                                         cfg.parity_shards) + 1);
      for (std::size_t i = 0; i < e && i < idx.size(); ++i)
        drop[idx[i]] = true;
    }
    for (std::size_t i = 0; i < dgrams.size(); ++i)
      if (!drop[i]) reasm.offer(dgrams[i]);
    const auto got = reasm.next();
    ASSERT_TRUE(got.has_value()) << "trial " << trial;
    ASSERT_EQ(got->payload, f.payload) << "trial " << trial;
  }
  EXPECT_GT(stats.datagrams_repaired.load(), 0);
  EXPECT_EQ(stats.datagrams_lost.load(), stats.datagrams_repaired.load());
  EXPECT_EQ(stats.unrecoverable_generations.load(), 0);
  EXPECT_EQ(stats.frames_dropped.load(), 0);
}

TEST(UdpFragmentation, LossBeyondBudgetIsUnrecoverableNeverCorrupt) {
  FecStats stats;
  UdpFecConfig cfg = small_cfg(&stats);
  // One reassembly slot: the next frame must evict the stuck one.
  cfg.max_assemblies = 1;
  FrameFragmenter frag(cfg);
  FrameReassembler reasm(cfg);

  const Frame f = test_frame(200);  // one generation of 4 data + 2 parity
  auto dgrams = frag.fragment(f);
  ASSERT_GE(dgrams.size(), 6u);
  // Deliver only k-1 shards of the first generation: under the k floor.
  for (std::size_t i = 3; i < dgrams.size(); ++i) reasm.offer(dgrams[i]);
  EXPECT_FALSE(reasm.next().has_value());

  // The incomplete frame is evicted once newer frames need the slot; the
  // failed generation is counted, and the NEXT send of the same frame (the
  // session's retransmit-nudge fallback) still delivers cleanly.
  for (int i = 0; i < 3; ++i) {
    const Frame filler = test_frame(50, static_cast<std::uint32_t>(10 + i));
    for (const auto& d : frag.fragment(filler)) reasm.offer(d);
    ASSERT_TRUE(reasm.next().has_value());
  }
  EXPECT_GE(stats.unrecoverable_generations.load(), 1);
  EXPECT_GE(stats.frames_dropped.load(), 1);

  const auto resent = frag.fragment(f);  // new frame_seq, same content
  for (const auto& d : resent) reasm.offer(d);
  const auto got = reasm.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, f.payload);
}

// A datagram naming a complete generation or a delivered frame is dropped
// before its CRC is checked, so a corrupted copy of it is not counted as
// malformed; a corrupted datagram of a generation still incomplete is.
TEST(UdpFragmentation, LateDatagramsAreDroppedUnverified) {
  FecStats stats;
  const UdpFecConfig cfg = small_cfg(&stats);
  FrameFragmenter frag(cfg);
  FrameReassembler reasm(cfg);
  const Frame f = test_frame(600);  // 3 generations of 4 data + 2 parity
  const auto dgrams = frag.fragment(f);
  ASSERT_EQ(dgrams.size(), 18u);
  const auto corrupt = [](std::vector<std::uint8_t> d) {
    d.back() ^= 0x5A;
    return d;
  };
  for (std::size_t i = 0; i < 4; ++i) reasm.offer(dgrams[i]);  // gen 0 done
  reasm.offer(corrupt(dgrams[4]));  // generation 0's first parity
  EXPECT_EQ(stats.datagrams_malformed.load(), 0);
  reasm.offer(corrupt(dgrams[6]));  // generation 1's first data shard
  EXPECT_EQ(stats.datagrams_malformed.load(), 1);

  for (std::size_t i = 4; i < dgrams.size(); ++i) reasm.offer(dgrams[i]);
  const auto got = reasm.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, f.payload);
  reasm.offer(corrupt(dgrams[0]));  // the delivered frame's
  EXPECT_EQ(stats.datagrams_malformed.load(), 1);
  EXPECT_EQ(stats.datagrams_received.load(), 21);
  EXPECT_FALSE(reasm.next().has_value());
}

TEST(UdpFragmentation, DuplicatesAndReorderAreHarmless) {
  std::mt19937_64 rng(kSeed ^ 13);
  const UdpFecConfig cfg = small_cfg();
  FrameFragmenter frag(cfg);
  FrameReassembler reasm(cfg);
  for (int trial = 0; trial < 100; ++trial) {
    const Frame f = test_frame(600);
    auto dgrams = frag.fragment(f);
    auto doubled = dgrams;
    doubled.insert(doubled.end(), dgrams.begin(), dgrams.end());
    std::shuffle(doubled.begin(), doubled.end(), rng);
    for (const auto& d : doubled) reasm.offer(d);
    const auto got = reasm.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload, f.payload);
    // The duplicates of an already-delivered frame must not re-deliver.
    EXPECT_FALSE(reasm.next().has_value());
    for (const auto& d : dgrams) reasm.offer(d);
    EXPECT_FALSE(reasm.next().has_value());
  }
}

/// Heap bytes in use (glibc's count: arena plus mmapped chunks).
std::size_t heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

// A forged frame_len must cost no more memory than the datagrams that
// arrived: each of these 41-byte datagrams completes the first generation of
// a 64 MiB frame, and a reassembler that sized the frame from its header
// would zero-fill 64 MiB per frame_seq. A second generation that overlaps
// the first instead of following it never tiles the frame, so that frame is
// dropped without its buffer being allocated.
TEST(UdpFragmentation, ForgedFrameLengthHoldsOnlyTheBytesReceived) {
  FecStats stats;
  FrameReassembler reasm(small_cfg(&stats));
  DatagramHeader h;
  h.k = 1;
  h.r = 0;
  h.gen_count = 2;
  h.frame_len = static_cast<std::uint32_t>(kFrameHeaderBytes) +
                kMaxFramePayload;
  h.shard_len = 1;
  const std::vector<std::uint8_t> payload = {0x41};
  const std::size_t before = heap_bytes();
  const std::size_t limit = before + (std::size_t{1} << 20);
  for (h.frame_seq = 0; h.frame_seq < 2; ++h.frame_seq)
    reasm.offer(encode_datagram(h, payload));
  EXPECT_LT(heap_bytes(), limit);
  EXPECT_EQ(stats.datagrams_malformed.load(), 0);

  h.frame_seq = 0;
  h.gen_index = 1;  // gen_off 0 again: overlaps generation 0
  reasm.offer(encode_datagram(h, payload));
  EXPECT_FALSE(reasm.next().has_value());
  EXPECT_EQ(stats.frames_dropped.load(), 1);
  EXPECT_LT(heap_bytes(), limit);
}

// --- UdpTransport over loopback links --------------------------------------

TEST(UdpTransportLoopback, BidirectionalFrames) {
  auto [a, b] = make_datagram_loopback_pair();
  const UdpFecConfig cfg = small_cfg();
  UdpTransport ta(std::move(a), cfg);
  UdpTransport tb(std::move(b), cfg);

  const Frame f1 = test_frame(5000, 1);
  const Frame f2 = test_frame(77, 2);
  ASSERT_TRUE(ta.send(f1));
  ASSERT_TRUE(tb.send(f2));

  const auto got1 = tb.recv(std::chrono::milliseconds(1000));
  ASSERT_TRUE(got1.has_value());
  EXPECT_EQ(got1->payload, f1.payload);
  const auto got2 = ta.recv(std::chrono::milliseconds(1000));
  ASSERT_TRUE(got2.has_value());
  EXPECT_EQ(got2->payload, f2.payload);

  // Nonblocking poll with nothing pending.
  EXPECT_FALSE(ta.recv(std::chrono::milliseconds(0)).has_value());

  tb.close();
  EXPECT_TRUE(tb.closed());
  EXPECT_FALSE(ta.recv(std::chrono::milliseconds(10)).has_value());
}

/// Every datagram queued on `link`, in order.
std::vector<std::vector<std::uint8_t>> drain(DatagramLink& link) {
  std::vector<std::vector<std::uint8_t>> out;
  while (auto d = link.recv(std::chrono::milliseconds(0)))
    out.push_back(std::move(*d));
  return out;
}

// One broadcast to eight UDP peers builds one FEC image: every peer sends
// from the slot's image, each loopback link queues the frame as one entry
// holding one reference to it rather than copies, and each peer's
// datagrams are bitwise what FrameFragmenter::fragment emits at that
// peer's own frame_seq. A peer of another geometry encodes for itself and
// leaves the slot's image alone.
TEST(UdpTransportLoopback, BroadcastPeersShareOneFecImage) {
  constexpr int kPeers = 8;
  UdpFecConfig cfg;
  cfg.data_shards = 8;
  cfg.parity_shards = 8;
  cfg.max_shard_bytes = 1200;
  const Frame f = golden_model_frame();
  std::vector<std::unique_ptr<UdpTransport>> peers;
  std::vector<std::unique_ptr<LoopbackDatagramLink>> ends;
  for (int p = 0; p < kPeers; ++p) {
    auto [a, b] = make_datagram_loopback_pair();
    peers.push_back(std::make_unique<UdpTransport>(std::move(a), cfg));
    ends.push_back(std::move(b));
    // Peer p has sent p frames already, so each stamps its own frame_seq.
    for (int i = 0; i < p; ++i) ASSERT_TRUE(peers.back()->send(test_frame(9)));
    drain(*ends.back());
  }

  FrameImage slot;
  const FecImage* image = nullptr;
  for (int p = 0; p < kPeers; ++p) {
    ASSERT_TRUE(peers[static_cast<std::size_t>(p)]->send_shared(f, slot));
    ASSERT_TRUE(slot.fec);
    if (image == nullptr) image = slot.fec.get();
    EXPECT_EQ(slot.fec.get(), image) << "peer " << p << " built its own image";
  }
  const std::size_t count = image->datagrams();
  EXPECT_EQ(count, 240u);
  // The slot plus one reference per queued frame: no payload was copied.
  EXPECT_EQ(slot.fec.use_count(), static_cast<long>(1 + kPeers));

  for (int p = 0; p < kPeers; ++p) {
    FrameFragmenter reference(cfg);
    for (int i = 0; i < p; ++i) reference.fragment(test_frame(9));
    EXPECT_EQ(drain(*ends[static_cast<std::size_t>(p)]), reference.fragment(f))
        << "peer " << p;
  }
  EXPECT_EQ(slot.fec.use_count(), 1);

  UdpFecConfig other = cfg;
  other.parity_shards = 4;
  auto [a, b] = make_datagram_loopback_pair();
  UdpTransport odd(std::move(a), other);
  ASSERT_TRUE(odd.send_shared(f, slot));
  EXPECT_EQ(slot.fec.get(), image);
  FrameFragmenter reference(other);
  EXPECT_EQ(drain(*b), reference.fragment(f));
}

// The loopback queue's cap counts datagrams, not sends: a frame that
// overflows it keeps the datagrams that fit, as the same datagrams sent one
// at a time would, and a send past the cap is dropped.
TEST(UdpTransportLoopback, BurstCapCountsDatagrams) {
  const UdpFecConfig cfg = small_cfg();
  const Frame f = test_frame(10000);  // 240 datagrams
  FrameFragmenter frag(cfg);
  FrameImage slot;
  auto [a, b] = make_datagram_loopback_pair();
  const std::vector<std::uint8_t> single = {1, 2, 3};
  ASSERT_TRUE(a->send(single));
  std::size_t queued = 1;
  std::size_t frames = 0;
  std::size_t per_frame = 0;
  while (queued < kMaxQueuedDatagrams) {
    FrameDatagrams d = frag.fragment(f, slot);
    per_frame = d.image->datagrams();
    ASSERT_TRUE(a->send_frame(std::move(d.headers), std::move(d.image)));
    queued += per_frame;
    ++frames;
  }
  const std::size_t kept = per_frame - (queued - kMaxQueuedDatagrams);
  ASSERT_GT(kept, 0u);
  ASSERT_LT(kept, per_frame);  // the last frame did overflow
  ASSERT_TRUE(a->send(single));  // past the cap: lost in flight

  FrameFragmenter reference(cfg);
  FrameImage ref_slot;
  for (std::size_t i = 0; i + 1 < frames; ++i) reference.fragment(f, ref_slot);
  const auto last = reference.fragment(f);
  const auto got = drain(*b);
  ASSERT_EQ(got.size(), kMaxQueuedDatagrams);
  EXPECT_EQ(got.front(), single);
  EXPECT_TRUE(std::equal(got.end() - static_cast<long>(kept), got.end(),
                         last.begin()));
  ASSERT_TRUE(a->send(single));  // drained, the queue takes sends again
  EXPECT_EQ(drain(*b).size(), 1u);
}

// A reader draining one frame while the writer queues the next receives
// every datagram of every frame, in send order.
TEST(UdpTransportLoopback, BurstReadsInOrderWhileTheNextIsQueued) {
  const UdpFecConfig cfg = small_cfg();
  constexpr int kFrames = 20;
  std::vector<Frame> frames;
  std::vector<std::size_t> starts;  // each frame's first datagram
  std::vector<std::vector<std::uint8_t>> want;
  FrameFragmenter reference(cfg);
  for (int i = 0; i < kFrames; ++i) {
    frames.push_back(test_frame(3000 + 100 * static_cast<std::size_t>(i),
                                static_cast<std::uint32_t>(i)));
    starts.push_back(want.size());
    for (auto& d : reference.fragment(frames.back()))
      want.push_back(std::move(d));
  }
  auto [a, b] = make_datagram_loopback_pair();
  std::atomic<std::size_t> read{0};
  std::thread writer([&, link = a.get()] {
    FrameFragmenter frag(cfg);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      // Queue each frame once the reader is inside the one before it.
      while (i > 0 && read.load() <= starts[i - 1]) std::this_thread::yield();
      FrameImage slot;
      FrameDatagrams d = frag.fragment(frames[i], slot);
      link->send_frame(std::move(d.headers), std::move(d.image));
    }
  });
  std::vector<std::vector<std::uint8_t>> got;
  while (got.size() < want.size()) {
    auto d = b->recv(std::chrono::milliseconds(5000));
    if (!d) break;
    got.push_back(std::move(*d));
    read.fetch_add(1);
  }
  writer.join();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want);
}

// A close while the reader is partway through a frame: the rest of the
// frame stays readable, and the reader's closed() flips only once it is
// drained.
TEST(UdpTransportLoopback, BurstStaysReadableAfterACloseMidFrame) {
  const UdpFecConfig cfg = small_cfg();
  const Frame f = test_frame(2000);
  const auto want = FrameFragmenter(cfg).fragment(f);
  FrameFragmenter frag(cfg);
  FrameImage slot;
  auto [a, b] = make_datagram_loopback_pair();
  FrameDatagrams d = frag.fragment(f, slot);
  ASSERT_TRUE(a->send_frame(std::move(d.headers), std::move(d.image)));
  std::vector<std::vector<std::uint8_t>> got;
  for (int i = 0; i < 5; ++i)
    got.push_back(*b->recv(std::chrono::milliseconds(0)));
  a->close();
  EXPECT_TRUE(a->closed());
  FrameDatagrams refused = frag.fragment(f, slot);
  EXPECT_FALSE(
      a->send_frame(std::move(refused.headers), std::move(refused.image)));
  while (got.size() < want.size()) {
    EXPECT_FALSE(b->closed()) << "closed with datagram " << got.size()
                              << " unread";
    auto dg = b->recv(std::chrono::milliseconds(0));
    ASSERT_TRUE(dg.has_value());
    got.push_back(std::move(*dg));
  }
  EXPECT_TRUE(b->closed());
  EXPECT_FALSE(b->recv(std::chrono::milliseconds(0)).has_value());
  EXPECT_EQ(got, want);
  EXPECT_EQ(slot.fec.use_count(), 1);  // the drained frame let go of it
}

// --- Deterministic datagram chaos ------------------------------------------

// Same plan + same seed => identical drop/deliver decisions, independent of
// timing: the fault stream advances on the SEND path only.
TEST(FaultyDatagramLink, SameSeedSameDropPattern) {
  auto run_once = [](std::uint64_t seed) {
    auto [a, b] = make_datagram_loopback_pair();
    auto faulty = std::make_unique<FaultyDatagramLink>(
        std::move(a), DatagramFaultPlan::iid(0.3, seed));
    FaultyDatagramLink* fp = faulty.get();
    std::vector<std::size_t> delivered_sizes;
    std::mt19937_64 rng(kSeed ^ 17);
    for (int i = 0; i < 500; ++i) {
      std::vector<std::uint8_t> d(1 + rng() % 64);
      for (auto& x : d) x = static_cast<std::uint8_t>(rng());
      fp->send(d);
      while (auto got = b->recv(std::chrono::milliseconds(0)))
        delivered_sizes.push_back(got->size());
    }
    return std::make_pair(fp->dropped(), delivered_sizes);
  };
  const auto [drop1, sizes1] = run_once(99);
  const auto [drop2, sizes2] = run_once(99);
  const auto [drop3, sizes3] = run_once(100);
  EXPECT_GT(drop1, 50u);  // 30% of 500
  EXPECT_EQ(drop1, drop2);
  EXPECT_EQ(sizes1, sizes2);
  EXPECT_NE(sizes1, sizes3);  // a different seed gives a different pattern
}

TEST(FaultyDatagramLink, BurstLossComesInBursts) {
  // Gilbert-Elliott with mean burst 4 at 20% loss: the number of distinct
  // loss runs must be well below the count an i.i.d. pattern would produce.
  auto [a, b] = make_datagram_loopback_pair();
  auto faulty = std::make_unique<FaultyDatagramLink>(
      std::move(a), DatagramFaultPlan::burst(0.2, 4.0, 7));
  const int n = 5000;
  std::vector<std::uint8_t> d(8, 0x55);
  int lost = 0, runs = 0;
  bool in_run = false;
  std::uint64_t prev_dropped = 0;
  for (int i = 0; i < n; ++i) {
    faulty->send(d);
    const bool dropped_now = faulty->dropped() > prev_dropped;
    prev_dropped = faulty->dropped();
    lost += dropped_now ? 1 : 0;
    if (dropped_now && !in_run) ++runs;
    in_run = dropped_now;
  }
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.2, 0.05);
  // i.i.d. 20% over 5000 sends would produce ~800 runs; mean-4 bursts ~250.
  EXPECT_LT(runs, 500);
  EXPECT_GT(runs, 50);
}

// --- The tier-1 oracle: deployed UDP == simulator under loss ---------------

bool is_semantic(const TraceEvent& e) {
  return e.type < TraceEventType::kFrameTx;
}

std::vector<TraceEvent> semantic_stream(const std::vector<TraceEvent>& evs) {
  std::vector<TraceEvent> out;
  for (TraceEvent e : evs) {
    if (!is_semantic(e)) continue;
    e.t = 0.0;
    out.push_back(e);
  }
  return out;
}

int count_type(const std::vector<TraceEvent>& evs, TraceEventType t) {
  int n = 0;
  for (const auto& e : evs) n += e.type == t ? 1 : 0;
  return n;
}

metrics::RunManifest udp_manifest(const char* producer,
                                  const cli::TaskSpec& spec, int rounds) {
  metrics::RunManifest m;
  m.producer = producer;
  m.algo = "adafl-sync";
  m.seed = spec.seed;
  m.rounds = rounds;
  m.clients = spec.clients;
  return m;
}

void run_udp_equivalence(const DatagramFaultPlan& plan,
                         bool expect_zero_retransmits) {
  constexpr int kRounds = 4;
  const auto spec = testutil::small_task_spec();
  const auto client = testutil::small_client_config();
  const auto params = testutil::small_params();

  // Seed-qualified paths: ctest runs each gtest case as its own process,
  // so the two equivalence cases can execute concurrently and must not
  // share trace files.
  const std::string tag = "udp_eq_" + std::to_string(plan.seed);
  const std::string sim_path = ::testing::TempDir() + tag + "_sim.jsonl";
  const std::string dep_path = ::testing::TempDir() + tag + "_dep.jsonl";

  Tracer sim_tracer;
  sim_tracer.open(sim_path, udp_manifest("flsim", spec, kRounds));
  const auto sim = testutil::run_simulator(spec, client, params, kRounds,
                                           &sim_tracer);
  sim_tracer.close();

  // k=8/r=8 parity budget: at 10% i.i.d. loss the chance of any generation
  // losing more than 8 of its 16 datagrams is ~1e-5 — the run must complete
  // on FEC repair alone, with the retransmit path never taken.
  FecStats server_stats;
  FecStats client_stats;
  UdpFecConfig fec;
  fec.data_shards = 8;
  fec.parity_shards = 8;
  fec.max_shard_bytes = 700;  // several generations per MODEL/UPDATE frame
  fec.stats = &client_stats;

  Tracer dep_tracer;
  // Bind the hooks exactly as the CLIs do: deployed-only transport events,
  // round 0 / client -1 (the reassembler has no session context).
  fec.hooks.on_datagram_lost = [&dep_tracer](std::int64_t bytes) {
    dep_tracer.record(metrics::ev_datagram_lost(0, -1, bytes, 0.0));
  };
  fec.hooks.on_fec_repair = [&dep_tracer](int, std::int64_t bytes) {
    dep_tracer.record(metrics::ev_fec_repair(0, -1, bytes, 0.0));
  };
  dep_tracer.open(dep_path, udp_manifest("deployed", spec, kRounds));
  // A 5 s nudge: generous enough that CPU starvation under a fully parallel
  // ctest run can't fire a retransmit and break the zero-retransmit
  // assertion — losses must be absorbed by FEC repair alone either way.
  const auto dep = testutil::run_deployed_udp_loopback(
      spec, client, params, kRounds, fec, &dep_tracer,
      [&plan](int id, std::unique_ptr<DatagramLink> link)
          -> std::unique_ptr<DatagramLink> {
        DatagramFaultPlan p = plan;
        p.seed += static_cast<std::uint64_t>(id) * 7919;
        return std::make_unique<FaultyDatagramLink>(std::move(link), p);
      },
      &server_stats, std::chrono::milliseconds(5000));
  dep_tracer.close();

  // Bitwise global weights: the deployed UDP path is the simulator.
  ASSERT_EQ(sim.global, dep.global);

  // Losses happened and were repaired by parity, not by round trips.
  EXPECT_GT(server_stats.datagrams_repaired.load(), 0);
  EXPECT_EQ(server_stats.unrecoverable_generations.load(), 0);
  for (const auto& c : dep.clients) {
    EXPECT_TRUE(c.completed);
    EXPECT_EQ(c.reconnects, 0);
  }
  EXPECT_EQ(dep.log.ledger.total_reconnects(), 0);
  if (expect_zero_retransmits) {
    EXPECT_EQ(dep.log.ledger.total_retransmitted_bytes(), 0);
  }

  // Semantic trace equality, exactly as scripts/trace_diff.py computes it;
  // datagram_lost/fec_repair exist only on the deployed side and are
  // excluded along with the other transport events.
  const auto sim_trace = metrics::read_trace_file(sim_path);
  const auto dep_trace = metrics::read_trace_file(dep_path);
  EXPECT_GT(count_type(dep_trace.events, TraceEventType::kFecRepair), 0);
  const auto sim_sem = semantic_stream(sim_trace.events);
  const auto dep_sem = semantic_stream(dep_trace.events);
  ASSERT_EQ(sim_sem.size(), dep_sem.size());
  for (std::size_t i = 0; i < sim_sem.size(); ++i)
    ASSERT_EQ(sim_sem[i], dep_sem[i])
        << "divergence at event " << i << ": sim="
        << Tracer::format_line(sim_sem[i])
        << " deployed=" << Tracer::format_line(dep_sem[i]);

  std::remove(sim_path.c_str());
  std::remove(dep_path.c_str());
}

TEST(UdpDeployedEquivalence, TenPercentIidLossZeroRetransmits) {
  run_udp_equivalence(DatagramFaultPlan::iid(0.10, 4242),
                      /*expect_zero_retransmits=*/true);
}

TEST(UdpDeployedEquivalence, BurstLossWithinParityBudget) {
  // 5% loss in mean-2 bursts: comfortably inside the r=8 budget; semantic
  // equality and zero reconnects must hold (a rare >8 burst may nudge a
  // retransmit, which the trace comparison rightly ignores).
  run_udp_equivalence(DatagramFaultPlan::burst(0.05, 2.0, 31337),
                      /*expect_zero_retransmits=*/false);
}

TEST(UdpDeployedEquivalence, FecRoundsNeverWaitOutTheIdlePoll) {
  // A datagram link signals the server as each datagram lands, so with 5 s
  // of idle_poll every round still takes a fraction of one, and the
  // weights still equal the simulator's. Quiet heartbeats leave the
  // round's frames as the only wakes.
  constexpr int kRounds = 4;
  const auto spec = testutil::small_task_spec();
  const auto client = testutil::small_client_config();
  const auto params = testutil::small_params();
  const auto sim = testutil::run_simulator(spec, client, params, kRounds);
  UdpFecConfig fec;
  fec.data_shards = 8;
  fec.parity_shards = 8;
  fec.max_shard_bytes = 700;
  const auto dep = testutil::run_deployed_udp_loopback(
      spec, client, params, kRounds, fec, nullptr, nullptr, nullptr,
      std::chrono::milliseconds(300), std::chrono::seconds(5),
      testutil::quiet_heartbeats);
  ASSERT_EQ(sim.global, dep.global);
  ASSERT_EQ(dep.log.records.size(), static_cast<std::size_t>(kRounds));
  EXPECT_LT(testutil::longest_round_s(dep.log), 5.0);
}

// --- Real sockets: UdpListener + UdpSocketLink smoke ------------------------

TEST(UdpRealSocket, ListenerAcceptEchoAndStats) {
  FecStats stats;
  UdpFecConfig cfg = small_cfg(&stats);
  UdpListener listener(0, cfg);
  ASSERT_GT(listener.port(), 0);

  std::atomic<bool> ok{false};
  std::thread server([&] {
    auto t = listener.accept(std::chrono::milliseconds(3000));
    if (!t) return;
    for (int i = 0; i < 2; ++i) {
      auto f = t->recv(std::chrono::milliseconds(3000));
      if (!f) return;
      f->round += 1;
      if (!t->send(*f)) return;
    }
    // Hold the connection until the client has read the echoes.
    const auto fin = t->recv(std::chrono::milliseconds(3000));
    ok.store(fin.has_value() && fin->type == MsgType::kPing);
  });

  auto link = UdpSocketLink::connect("127.0.0.1", listener.port());
  ASSERT_NE(link, nullptr);
  UdpTransport client(std::move(link), cfg);
  // The second frame's datagrams are shorter than the first's: the link
  // reads every datagram into one buffer, and each must come back at its
  // own length or its CRC check drops it.
  for (const Frame& f : {test_frame(3000, 5), test_frame(50, 9)}) {
    ASSERT_TRUE(client.send(f));
    const auto echo = client.recv(std::chrono::milliseconds(3000));
    ASSERT_TRUE(echo.has_value()) << f.payload.size() << "-byte frame";
    EXPECT_EQ(echo->round, f.round + 1);
    EXPECT_EQ(echo->payload, f.payload);
  }
  Frame fin;
  fin.type = MsgType::kPing;
  ASSERT_TRUE(client.send(fin));

  server.join();
  EXPECT_TRUE(ok.load());
  listener.close();
  EXPECT_TRUE(listener.closed());
  EXPECT_GT(stats.datagrams_sent.load(), 0);
  EXPECT_GT(stats.parity_bytes.load(), 0);
}

TEST(UdpRealSocket, ConnectToUnresolvableHostFails) {
  EXPECT_EQ(UdpSocketLink::connect("definitely.invalid.adafl", 1), nullptr);
}

TEST(UdpRealSocket, MuxEvictsDroppedPeersUnderChurn) {
  // ISSUE 8 satellite 3: closing a peer's transport retires its address-map
  // entry after a bounded tombstone grace window, so a long-lived listener
  // facing connection churn does not grow its map without bound.
  FecStats stats;
  UdpFecConfig cfg = small_cfg(&stats);
  UdpListener listener(0, cfg);
  const int kChurn = 100;  // well past the grace window
  // Client sockets stay open for the whole churn so the kernel cannot hand
  // a later dial an ephemeral port that is still inside the tombstone
  // window (a tombstone suppresses traffic from its address by design).
  std::vector<std::unique_ptr<UdpTransport>> clients;
  for (int i = 0; i < kChurn; ++i) {
    auto link = UdpSocketLink::connect("127.0.0.1", listener.port());
    ASSERT_NE(link, nullptr);
    clients.push_back(std::make_unique<UdpTransport>(std::move(link), cfg));
    ASSERT_TRUE(clients.back()->send(test_frame(9000 + i, 1)));
    auto t = listener.accept(std::chrono::milliseconds(3000));
    ASSERT_NE(t, nullptr);
    EXPECT_TRUE(t->recv(std::chrono::milliseconds(3000)).has_value());
    t->close();  // drops the peer: entry becomes a bounded tombstone
  }
  // Live entries: zero. Tombstoned entries: at most the grace window.
  EXPECT_LE(listener.peer_count(), 70u);
  listener.close();
}

TEST(UdpRealSocket, ZeroTimeoutAcceptDrainsReadableFd) {
  // The event-loop integration contract: flserver watches listener.fd() in
  // the epoll loop and, on readability, drains new peers with
  // accept(0ms). A zero-timeout accept must therefore do one non-blocking
  // pump (discovering any sender whose datagram is sitting in the socket
  // buffer) instead of returning before ever reading the socket.
  FecStats stats;
  UdpFecConfig cfg = small_cfg(&stats);
  UdpListener listener(0, cfg);
  ASSERT_GE(listener.fd(), 0);

  // Nothing pending: immediate nullptr, no blocking.
  EXPECT_EQ(listener.accept(std::chrono::milliseconds(0)), nullptr);

  auto link = UdpSocketLink::connect("127.0.0.1", listener.port());
  ASSERT_NE(link, nullptr);
  UdpTransport client(std::move(link), cfg);
  ASSERT_TRUE(client.send(test_frame(64, 100)));

  // Wait for readability exactly as the event loop would, then drain with
  // zero timeout.
  struct pollfd pfd{};
  pfd.fd = listener.fd();
  pfd.events = POLLIN;
  ASSERT_GT(::poll(&pfd, 1, 3000), 0);
  auto t = listener.accept(std::chrono::milliseconds(0));
  ASSERT_NE(t, nullptr);
  const auto f = t->recv(std::chrono::milliseconds(3000));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->round, 100u);
  listener.close();
}

TEST(UdpRealSocket, ZeroTimeoutRecvLeavesTheSocketToItsDrainer) {
  // In flserver the loop thread drains the mux socket (accept(0ms) from
  // its watched-fd callback) and is its only reader: a known peer's
  // recv(0ms) takes what was routed to it, and a datagram still in the
  // kernel buffer waits for the drainer, which calls the peer's wake.
  FecStats stats;
  UdpFecConfig cfg = small_cfg(&stats);
  UdpListener listener(0, cfg);
  auto link = UdpSocketLink::connect("127.0.0.1", listener.port());
  ASSERT_NE(link, nullptr);
  UdpTransport client(std::move(link), cfg);
  ASSERT_TRUE(client.send(test_frame(64, 1)));
  auto t = listener.accept(std::chrono::milliseconds(3000));
  ASSERT_NE(t, nullptr);
  ASSERT_TRUE(t->recv(std::chrono::milliseconds(3000)));  // blocking: pumps
  std::atomic<int> wakes{0};
  ASSERT_TRUE(t->set_wake([&wakes] { wakes.fetch_add(1); }));

  ASSERT_TRUE(client.send(test_frame(64, 2)));
  struct pollfd pfd{};
  pfd.fd = listener.fd();
  pfd.events = POLLIN;
  ASSERT_GT(::poll(&pfd, 1, 3000), 0);
  EXPECT_FALSE(t->recv(std::chrono::milliseconds(0)))
      << "a zero-timeout recv read the socket";
  EXPECT_EQ(wakes.load(), 0);

  std::optional<Frame> f;
  for (int i = 0; i < 300 && !f; ++i) {
    EXPECT_EQ(listener.accept(std::chrono::milliseconds(0)), nullptr);
    f = t->recv(std::chrono::milliseconds(0));
    if (!f) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(f) << "the drained frame never reached its peer";
  EXPECT_EQ(f->round, 2u);
  EXPECT_GT(wakes.load(), 0);
  listener.close();
}

TEST(UdpRealSocket, ChurnConcurrentWithLiveTraffic) {
  // The mux rework moves new-peer registration off the hot receive path:
  // established peers exchanging frames (each recv pumps the shared socket
  // or waits on its own per-peer cv) must not lose or stall traffic while
  // other threads churn short-lived peers through the registration and
  // tombstone paths.
  FecStats stats;
  UdpFecConfig cfg = small_cfg(&stats);
  UdpListener listener(0, cfg);
  constexpr int kPeers = 3;
  constexpr int kFramesPerPeer = 20;
  constexpr int kChurn = 30;

  // Establish the persistent peers first so their server ends exist before
  // the churn starts interleaving registrations.
  std::vector<std::unique_ptr<UdpTransport>> clients;
  std::vector<std::unique_ptr<Transport>> servers;
  for (int p = 0; p < kPeers; ++p) {
    auto link = UdpSocketLink::connect("127.0.0.1", listener.port());
    ASSERT_NE(link, nullptr);
    clients.push_back(std::make_unique<UdpTransport>(std::move(link), cfg));
    ASSERT_TRUE(clients.back()->send(test_frame(64, 1000 + static_cast<std::uint32_t>(p))));
    auto t = listener.accept(std::chrono::milliseconds(3000));
    ASSERT_NE(t, nullptr);
    ASSERT_TRUE(t->recv(std::chrono::milliseconds(3000)).has_value());
    servers.push_back(std::move(t));
  }

  std::atomic<int> echoed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kPeers; ++p) {
    threads.emplace_back([&, p] {  // server side: echo
      for (int i = 0; i < kFramesPerPeer; ++i) {
        auto f = servers[static_cast<std::size_t>(p)]->recv(
            std::chrono::milliseconds(5000));
        if (!f) return;
        if (!servers[static_cast<std::size_t>(p)]->send(*f)) return;
      }
    });
    threads.emplace_back([&, p] {  // client side: send + match echo
      for (int i = 0; i < kFramesPerPeer; ++i) {
        const Frame f = test_frame(
            64, static_cast<std::uint32_t>(2000 + p * kFramesPerPeer + i));
        if (!clients[static_cast<std::size_t>(p)]->send(f)) return;
        const auto echo = clients[static_cast<std::size_t>(p)]->recv(
            std::chrono::milliseconds(5000));
        if (!echo || echo->round != f.round) return;
        echoed.fetch_add(1);
      }
    });
  }

  // Churn transient peers through register -> retire while the echo
  // traffic runs. Transient client sockets stay open (see
  // MuxEvictsDroppedPeersUnderChurn for why).
  std::vector<std::unique_ptr<UdpTransport>> transient;
  for (int i = 0; i < kChurn; ++i) {
    auto link = UdpSocketLink::connect("127.0.0.1", listener.port());
    ASSERT_NE(link, nullptr);
    transient.push_back(std::make_unique<UdpTransport>(std::move(link), cfg));
    ASSERT_TRUE(transient.back()->send(test_frame(64, 5000 + static_cast<std::uint32_t>(i))));
    auto t = listener.accept(std::chrono::milliseconds(3000));
    ASSERT_NE(t, nullptr);
    EXPECT_TRUE(t->recv(std::chrono::milliseconds(3000)).has_value());
    t->close();
  }

  for (auto& th : threads) th.join();
  EXPECT_EQ(echoed.load(), kPeers * kFramesPerPeer);
  listener.close();
}

}  // namespace
}  // namespace adafl
