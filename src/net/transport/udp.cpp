#include "net/transport/udp.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <utility>

#include "compress/bytes.h"
#include "net/fec/interleave.h"
#include "net/transport/crc32.h"
#include "tensor/check.h"

namespace adafl::net::transport {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kRecvBufBytes = kDatagramHeaderBytes + kMaxShardBytes;
/// Header offsets of the fields a stamp writes or a header is read for.
constexpr std::size_t kSeqAt = 8;
constexpr std::size_t kGenIndexAt = 16;
constexpr std::size_t kShardLenAt = 32;
constexpr std::size_t kCrcAt = kDatagramHeaderBytes - 4;
/// A mux poll never blocks longer than this so close() is noticed promptly.
constexpr std::chrono::milliseconds kMuxSlice{50};

void bump(FecStats* s, std::atomic<std::int64_t> FecStats::*field,
          std::int64_t by = 1) {
  if (s != nullptr) (s->*field).fetch_add(by, std::memory_order_relaxed);
}

std::uint16_t rd_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

std::uint32_t rd_u32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

std::uint64_t rd_u64(const std::uint8_t* p) {
  return std::uint64_t{rd_u32(p)} | (std::uint64_t{rd_u32(p + 4)} << 32);
}

void wr_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void wr_u64(std::uint8_t* p, std::uint64_t v) {
  wr_u32(p, static_cast<std::uint32_t>(v));
  wr_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

/// CRC of a datagram: its header up to the CRC field, then its payload.
std::uint32_t datagram_crc(const std::uint8_t* header,
                           std::span<const std::uint8_t> payload) {
  return crc32_update(crc32_update(0, {header, kCrcAt}), payload);
}

/// crc32_update over `n` zero bytes.
std::uint32_t crc_zeros(std::uint32_t crc, std::size_t n) {
  static constexpr std::array<std::uint8_t, 1024> kZeros{};
  while (n > 0) {
    const std::size_t step = std::min(n, kZeros.size());
    crc = crc32_update(crc, {kZeros.data(), step});
    n -= step;
  }
  return crc;
}

std::size_t shard_len_of(const std::uint8_t* header) {
  return rd_u16(header + kShardLenAt);
}

/// `out` = the datagram of `header` and the payload at `payload`.
void join_datagram(std::vector<std::uint8_t>& out, const std::uint8_t* header,
                   const std::uint8_t* payload) {
  const std::size_t len = shard_len_of(header);
  out.reserve(kDatagramHeaderBytes + len);
  out.assign(header, header + kDatagramHeaderBytes);
  out.insert(out.end(), payload, payload + len);
}

/// Calls `fn(header, payload)` on each of a frame's datagrams in order;
/// stops at the first false and returns it.
template <class Fn>
bool each_datagram(std::span<const std::uint8_t> headers,
                   const FecImage& image, Fn&& fn) {
  const std::uint8_t* payload = image.payloads.data();
  for (std::size_t at = 0; at < headers.size(); at += kDatagramHeaderBytes) {
    const std::uint8_t* header = headers.data() + at;
    if (!fn(header, payload)) return false;
    payload += shard_len_of(header);
  }
  return true;
}

/// Appends h's header bytes, frame_seq and crc left 0.
void put_header(std::vector<std::uint8_t>& out, const DatagramHeader& h) {
  bytes::put_u32(out, kDatagramMagic);
  bytes::put_u8(out, kDatagramVersion);
  bytes::put_u8(out, h.shard);
  bytes::put_u8(out, h.k);
  bytes::put_u8(out, h.r);
  bytes::put_u64(out, 0);  // frame_seq
  bytes::put_u32(out, h.gen_index);
  bytes::put_u32(out, h.gen_count);
  bytes::put_u32(out, h.frame_len);
  bytes::put_u32(out, h.gen_off);
  bytes::put_u16(out, h.shard_len);
  bytes::put_u16(out, 0);  // reserved
  bytes::put_u32(out, 0);  // crc
}

/// The RS code for (n, k) from `cache`, rebuilt when the geometry differs
/// from the last one: a hostile peer can name any (k, r), so one geometry
/// is all a fragmenter or reassembler keeps.
const fec::RsCode& code_for(std::optional<fec::RsCode>& cache, int n, int k) {
  if (!cache || cache->n() != n || cache->k() != k) cache.emplace(n, k);
  return *cache;
}

void validate_fec_config(const UdpFecConfig& cfg) {
  ADAFL_CHECK_MSG(cfg.data_shards >= 1 && cfg.parity_shards >= 0 &&
                      cfg.data_shards + cfg.parity_shards <= fec::kRsMaxSymbols,
                  "udp: invalid FEC geometry k=" << cfg.data_shards
                                                 << " r=" << cfg.parity_shards);
  ADAFL_CHECK_MSG(cfg.max_shard_bytes >= 1 &&
                      cfg.max_shard_bytes <= kMaxShardBytes,
                  "udp: max_shard_bytes " << cfg.max_shard_bytes
                                          << " out of range");
  ADAFL_CHECK_MSG(cfg.max_assemblies >= 1, "udp: max_assemblies < 1");
}

}  // namespace

// --------------------------------------------------------------------------
// Datagram codec
// --------------------------------------------------------------------------

std::vector<std::uint8_t> encode_datagram(
    const DatagramHeader& h, std::span<const std::uint8_t> payload) {
  ADAFL_CHECK_MSG(payload.size() == h.shard_len,
                  "datagram: payload size " << payload.size()
                                            << " != shard_len " << h.shard_len);
  std::vector<std::uint8_t> out;
  out.reserve(kDatagramHeaderBytes + payload.size());
  put_header(out, h);
  wr_u64(out.data() + kSeqAt, h.frame_seq);
  wr_u32(out.data() + kCrcAt, datagram_crc(out.data(), payload));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::optional<DatagramHeader> parse_datagram(
    std::span<const std::uint8_t> d) {
  if (d.size() < kDatagramHeaderBytes) return std::nullopt;
  const std::uint8_t* p = d.data();
  if (rd_u32(p) != kDatagramMagic) return std::nullopt;
  if (p[4] != kDatagramVersion) return std::nullopt;
  DatagramHeader h;
  h.shard = p[5];
  h.k = p[6];
  h.r = p[7];
  h.frame_seq = rd_u64(p + 8);
  h.gen_index = rd_u32(p + 16);
  h.gen_count = rd_u32(p + 20);
  h.frame_len = rd_u32(p + 24);
  h.gen_off = rd_u32(p + 28);
  h.shard_len = rd_u16(p + 32);
  const std::uint16_t reserved = rd_u16(p + 34);
  const std::uint32_t want_crc = rd_u32(p + 36);

  if (reserved != 0) return std::nullopt;
  if (d.size() != kDatagramHeaderBytes + h.shard_len) return std::nullopt;
  if (datagram_crc(p, d.subspan(kDatagramHeaderBytes)) != want_crc)
    return std::nullopt;

  // Structural bounds: every later consumer may assume these hold.
  const int n = static_cast<int>(h.k) + static_cast<int>(h.r);
  if (h.k < 1 || n > fec::kRsMaxSymbols) return std::nullopt;
  if (h.shard >= n) return std::nullopt;
  if (h.shard_len < 1) return std::nullopt;
  if (h.gen_count < 1 || h.gen_count > kMaxGenerationsPerFrame)
    return std::nullopt;
  if (h.gen_index >= h.gen_count) return std::nullopt;
  if (h.frame_len < kFrameHeaderBytes ||
      h.frame_len > kFrameHeaderBytes + kMaxFramePayload)
    return std::nullopt;
  if (h.gen_off >= h.frame_len) return std::nullopt;
  // Every data shard must cover at least one real frame byte.
  const std::uint64_t tail = std::uint64_t{h.frame_len} - h.gen_off;
  if (std::uint64_t(h.k - 1) * h.shard_len >= tail) return std::nullopt;
  return h;
}

std::uint32_t datagram_crc_correction(std::uint64_t frame_seq,
                                      std::size_t shard_len) {
  const std::size_t n = kCrcAt + shard_len;  // the bytes a CRC covers
  std::uint8_t seq[8];
  wr_u64(seq, frame_seq);
  const std::uint32_t e =
      crc_zeros(crc32_update(crc_zeros(0, kSeqAt), seq), n - kSeqAt - 8);
  return e ^ crc_zeros(0, n);
}

// --------------------------------------------------------------------------
// Fragmenter
// --------------------------------------------------------------------------

FrameFragmenter::FrameFragmenter(const UdpFecConfig& cfg) : cfg_(cfg) {
  validate_fec_config(cfg_);
}

std::shared_ptr<const FecImage> FrameFragmenter::build(
    std::span<const std::uint8_t> enc) {
  const int K = cfg_.data_shards;
  const int R = cfg_.parity_shards;
  const std::size_t frame_len = enc.size();
  const std::size_t max_s = std::min(cfg_.max_shard_bytes, frame_len);
  const std::size_t per_gen = static_cast<std::size_t>(K) * max_s;
  const std::uint32_t gen_count =
      static_cast<std::uint32_t>((frame_len + per_gen - 1) / per_gen);
  ADAFL_CHECK_MSG(gen_count <= kMaxGenerationsPerFrame,
                  "udp: frame of " << frame_len
                                   << " bytes exceeds the generation cap; "
                                      "raise max_shard_bytes or data_shards");

  auto img = std::make_shared<FecImage>();
  img->data_shards = K;
  img->parity_shards = R;
  img->max_shard_bytes = cfg_.max_shard_bytes;
  const std::size_t most = static_cast<std::size_t>(gen_count) *
                          static_cast<std::size_t>(K + R);
  img->headers.reserve(most * kDatagramHeaderBytes);
  img->crcs.reserve(most);
  // Every generation but the last is K full shards; the last is resized
  // below and holds no more, so this bounds the payload bytes.
  img->payloads.resize(static_cast<std::size_t>(gen_count) *
                       static_cast<std::size_t>(K + R) * max_s);
  std::size_t used = 0;
  std::vector<std::uint8_t*> ptr(static_cast<std::size_t>(K + R));
  for (std::uint32_t g = 0; g < gen_count; ++g) {
    const std::size_t off = static_cast<std::size_t>(g) * per_gen;
    const std::size_t gen_len = std::min(per_gen, frame_len - off);
    // Shrink the final generation: s = ceil(gen_len / K) bytes per shard,
    // then kg = ceil(gen_len / s) shards actually needed (kg <= K, and
    // (kg - 1) * s < gen_len so every data shard carries real bytes).
    const std::size_t s =
        (gen_len + static_cast<std::size_t>(K) - 1) / static_cast<std::size_t>(K);
    const int kg = static_cast<int>((gen_len + s - 1) / s);
    const int n = kg + R;

    for (int i = 0; i < n; ++i)
      ptr[static_cast<std::size_t>(i)] =
          img->payloads.data() + used + static_cast<std::size_t>(i) * s;
    used += static_cast<std::size_t>(n) * s;
    fec::interleave(enc.subspan(off, gen_len), kg, s, ptr.data());
    if (R > 0)
      code_for(code_, n, kg).encode_shards(ptr.data(), ptr.data() + kg, s);

    DatagramHeader h;
    h.k = static_cast<std::uint8_t>(kg);
    h.r = static_cast<std::uint8_t>(R);
    h.gen_index = g;
    h.gen_count = gen_count;
    h.frame_len = static_cast<std::uint32_t>(frame_len);
    h.gen_off = static_cast<std::uint32_t>(off);
    h.shard_len = static_cast<std::uint16_t>(s);
    for (int i = 0; i < n; ++i) {
      h.shard = static_cast<std::uint8_t>(i);
      put_header(img->headers, h);
      img->crcs.push_back(datagram_crc(
          img->headers.data() + img->headers.size() - kDatagramHeaderBytes,
          {ptr[static_cast<std::size_t>(i)], s}));
    }
    img->parity_bytes +=
        static_cast<std::int64_t>(R) *
        static_cast<std::int64_t>(kDatagramHeaderBytes + s);
  }
  img->payloads.resize(used);
  return img;
}

FrameDatagrams FrameFragmenter::fragment(const Frame& f, FrameImage& slot) {
  std::shared_ptr<const FecImage> img = slot.fec;
  if (!img || img->data_shards != cfg_.data_shards ||
      img->parity_shards != cfg_.parity_shards ||
      img->max_shard_bytes != cfg_.max_shard_bytes) {
    // The slot's stream bytes if a peer made them; else a transient
    // encoding, not kept in the slot beside the image.
    img = slot.bytes ? build(*slot.bytes) : build(encode_frame(f));
    if (!slot.fec) slot.fec = img;
  }
  const std::uint64_t seq = next_seq_++;
  bump(cfg_.stats, &FecStats::frames_sent);
  bump(cfg_.stats, &FecStats::datagrams_sent,
       static_cast<std::int64_t>(img->datagrams()));
  bump(cfg_.stats, &FecStats::parity_bytes, img->parity_bytes);

  // A shard length's correction is computed once: a frame has at most two
  // (full generations and the last).
  FrameDatagrams out{img->headers, img};
  std::size_t len = 0;
  std::uint32_t fix = 0;
  for (std::size_t i = 0; i < img->datagrams(); ++i) {
    std::uint8_t* header = out.headers.data() + i * kDatagramHeaderBytes;
    if (shard_len_of(header) != len) {
      len = shard_len_of(header);
      fix = datagram_crc_correction(seq, len);
    }
    wr_u64(header + kSeqAt, seq);
    wr_u32(header + kCrcAt, img->crcs[i] ^ fix);
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> FrameFragmenter::fragment(
    const Frame& f) {
  FrameImage once;
  const FrameDatagrams d = fragment(f, once);
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(d.image->datagrams());
  each_datagram(
      d.headers, *d.image,
      [&out](const std::uint8_t* header, const std::uint8_t* payload) {
        join_datagram(out.emplace_back(), header, payload);
        return true;
      });
  return out;
}

// --------------------------------------------------------------------------
// Reassembler
// --------------------------------------------------------------------------

FrameReassembler::FrameReassembler(const UdpFecConfig& cfg) : cfg_(cfg) {
  validate_fec_config(cfg_);
}

void FrameReassembler::drop_malformed() {
  bump(cfg_.stats, &FecStats::datagrams_malformed);
}

bool FrameReassembler::late(std::span<const std::uint8_t> d) const {
  if (d.size() < kDatagramHeaderBytes) return false;
  const std::uint64_t seq = rd_u64(d.data() + kSeqAt);
  if (done_.count(seq) != 0) return true;
  const auto it = assemblies_.find(seq);
  if (it == assemblies_.end()) return false;
  const auto git = it->second.gens.find(rd_u32(d.data() + kGenIndexAt));
  return git != it->second.gens.end() && !git->second.data.empty();
}

std::optional<DatagramHeader> FrameReassembler::screen(
    std::span<const std::uint8_t> d) {
  bump(cfg_.stats, &FecStats::datagrams_received);
  // A late datagram is dropped before its CRC: verified, it would be
  // dropped all the same (late parity is half of a lossless frame).
  if (late(d)) return std::nullopt;
  auto h = parse_datagram(d);
  if (!h) drop_malformed();
  return h;
}

void FrameReassembler::offer(std::vector<std::uint8_t>&& datagram) {
  if (const auto h = screen(datagram)) keep(*h, std::move(datagram));
}

void FrameReassembler::offer(std::span<const std::uint8_t> datagram) {
  if (const auto h = screen(datagram))
    keep(*h, {datagram.begin(), datagram.end()});
}

void FrameReassembler::keep(const DatagramHeader& h,
                            std::vector<std::uint8_t> datagram) {
  auto it = assemblies_.find(h.frame_seq);
  if (it == assemblies_.end()) {
    if (assemblies_.size() >= cfg_.max_assemblies) {
      // Older than everything in flight: a stray straggler, not a new frame.
      if (h.frame_seq < assemblies_.begin()->first) return;
      evict_oldest();
    }
    Assembly a;
    a.frame_len = h.frame_len;
    a.gen_count = h.gen_count;
    it = assemblies_.emplace(h.frame_seq, std::move(a)).first;
  }
  Assembly& a = it->second;
  if (h.frame_len != a.frame_len || h.gen_count != a.gen_count)
    return drop_malformed();

  const auto [git, fresh] = a.gens.try_emplace(h.gen_index);
  Gen& g = git->second;
  if (fresh) {
    g.k = h.k;
    g.r = h.r;
    g.shard_len = h.shard_len;
    g.gen_off = h.gen_off;
  } else if (h.k != g.k || h.r != g.r || h.shard_len != g.shard_len ||
             h.gen_off != g.gen_off) {
    return drop_malformed();
  }
  for (const auto& shard : g.arrived)
    if (shard.first == h.shard) return;  // duplicate
  g.arrived.emplace_back(h.shard, std::move(datagram));
  if (g.arrived.size() >= g.k) try_complete_gen(a, g);

  if (a.gens_complete == a.gen_count) {
    // assemble throws on any inconsistency, untiled generations included;
    // the frame-level CRC is the final integrity gate. A bad frame is
    // dropped, never propagated.
    try {
      ready_.push_back(assemble(a));
      bump(cfg_.stats, &FecStats::frames_delivered);
    } catch (const CheckError&) {
      bump(cfg_.stats, &FecStats::frames_dropped);
    }
    done_.emplace(it->first, true);
    done_order_.push_back(it->first);
    while (done_order_.size() > 4 * cfg_.max_assemblies + 16) {
      done_.erase(done_order_.front());
      done_order_.pop_front();
    }
    assemblies_.erase(it);
  }
}

Frame FrameReassembler::assemble(Assembly& a) {
  const auto gen_len = [&a](const Gen& g) {
    return std::min<std::size_t>(std::size_t{g.k} * g.shard_len,
                                 a.frame_len - g.gen_off);
  };
  std::uint64_t end = 0;
  for (const auto& [index, g] : a.gens) {
    ADAFL_CHECK_MSG(g.gen_off == end, "udp: generations do not tile a frame");
    end += gen_len(g);
  }
  ADAFL_CHECK_MSG(end == a.frame_len, "udp: generations do not tile a frame");
  // Generations go straight into the payload. One that holds frame header
  // bytes (the first; more when a generation is under 24 bytes) is split
  // through `split`.
  std::array<std::uint8_t, kFrameHeaderBytes> header{};
  std::vector<std::uint8_t> payload(a.frame_len - kFrameHeaderBytes);
  std::vector<std::uint8_t> split;
  std::vector<const std::uint8_t*> ptr;
  for (auto& [index, g] : a.gens) {
    ptr.clear();
    for (const auto& shard : g.data)
      ptr.push_back(shard.data() + kDatagramHeaderBytes);
    const std::size_t len = gen_len(g);
    if (g.gen_off >= kFrameHeaderBytes) {
      fec::deinterleave(
          ptr.data(), g.k, g.shard_len,
          {payload.data() + (g.gen_off - kFrameHeaderBytes), len});
    } else {
      split.resize(len);
      fec::deinterleave(ptr.data(), g.k, g.shard_len, split);
      const std::size_t head = std::min(len, kFrameHeaderBytes - g.gen_off);
      std::copy_n(split.begin(), head, header.begin() + g.gen_off);
      // Past the header the generation continues at payload byte 0.
      std::copy(split.begin() + static_cast<std::ptrdiff_t>(head), split.end(),
                payload.begin());
    }
    g.data = {};  // the frame holds these bytes now
  }
  return decode_frame(header, std::move(payload));
}

void FrameReassembler::try_complete_gen(Assembly& a, Gen& g) {
  const int n = static_cast<int>(g.k) + static_cast<int>(g.r);
  const std::size_t s = g.shard_len;
  std::vector<std::uint8_t*> ptr(static_cast<std::size_t>(n), nullptr);
  for (auto& [index, bytes] : g.arrived)
    ptr[index] = bytes.data() + kDatagramHeaderBytes;
  std::vector<bool> present(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < present.size(); ++i)
    present[i] = ptr[i] != nullptr;

  // Only missing DATA shards count as observed losses: the generation
  // completes as soon as k shards arrive, so parity that is merely still in
  // flight must not register as lost (it is silently ignored when it lands).
  // Parity genuinely dropped on a clean generation is thus never counted —
  // the price of zero-round-trip completion.
  std::vector<std::vector<std::uint8_t>> data(g.k);
  int missing_data = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (ptr[i] != nullptr) continue;
    data[i].resize(kDatagramHeaderBytes + s);
    ptr[i] = data[i].data() + kDatagramHeaderBytes;
    ++missing_data;
  }
  // With k shards present only a singular system could refuse, which an MDS
  // code never is; if it did, the generation stays incomplete, unguessed.
  if (missing_data > 0 &&
      !code_for(code_, n, g.k).reconstruct_shards(ptr.data(), present, s))
    return;
  for (auto& [index, bytes] : g.arrived)
    if (index < g.k) data[index] = std::move(bytes);
  g.data = std::move(data);
  g.arrived.clear();
  g.arrived.shrink_to_fit();
  ++a.gens_complete;
  if (missing_data == 0) return;

  bump(cfg_.stats, &FecStats::datagrams_repaired, missing_data);
  if (cfg_.hooks.on_fec_repair)
    cfg_.hooks.on_fec_repair(missing_data,
                             static_cast<std::int64_t>(missing_data) *
                                 static_cast<std::int64_t>(s));
  bump(cfg_.stats, &FecStats::datagrams_lost, missing_data);
  if (cfg_.hooks.on_datagram_lost)
    for (int i = 0; i < missing_data; ++i)
      cfg_.hooks.on_datagram_lost(
          static_cast<std::int64_t>(kDatagramHeaderBytes + s));
}

void FrameReassembler::evict_oldest() {
  const auto it = assemblies_.begin();
  for (const auto& [index, g] : it->second.gens) {
    if (!g.data.empty()) continue;
    bump(cfg_.stats, &FecStats::unrecoverable_generations);
    const int n = static_cast<int>(g.k) + static_cast<int>(g.r);
    bump(cfg_.stats, &FecStats::datagrams_lost,
         n - static_cast<int>(g.arrived.size()));
  }
  bump(cfg_.stats, &FecStats::frames_dropped);
  assemblies_.erase(it);
}

std::optional<Frame> FrameReassembler::next() {
  if (ready_.empty()) return std::nullopt;
  Frame f = std::move(ready_.front());
  ready_.pop_front();
  return f;
}

// --------------------------------------------------------------------------
// Datagram links
// --------------------------------------------------------------------------

bool DatagramLink::send_frame(std::vector<std::uint8_t> headers,
                              std::shared_ptr<const FecImage> image) {
  std::vector<std::uint8_t> d;  // reused: send() copies or writes it out
  return each_datagram(
      headers, *image,
      [this, &d](const std::uint8_t* header, const std::uint8_t* payload) {
        join_datagram(d, header, payload);
        return send(d);
      });
}

struct LoopbackDatagramLink::Channel {
  /// Sends in flight, in order: a whole datagram from send(), or a frame
  /// from send_frame() (its stamped headers and the image holding its
  /// payloads) that recv() hands out one datagram at a time.
  struct Queued {
    std::vector<std::uint8_t> datagram;
    std::vector<std::uint8_t> headers;
    std::shared_ptr<const FecImage> image;
    std::size_t count = 0;   ///< the frame's datagrams that were queued
    std::size_t next = 0;    ///< the one recv() hands out next
    std::size_t offset = 0;  ///< its payload's offset in image->payloads
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Queued> q;
  std::size_t queued = 0;  ///< datagrams in q, at most kMaxQueuedDatagrams
  bool closed = false;
  Wake wake;  ///< the receiving end's, until it closes
};

LoopbackDatagramLink::LoopbackDatagramLink(std::shared_ptr<Channel> tx,
                                           std::shared_ptr<Channel> rx)
    : tx_(std::move(tx)), rx_(std::move(rx)) {}

std::pair<std::unique_ptr<LoopbackDatagramLink>,
          std::unique_ptr<LoopbackDatagramLink>>
make_datagram_loopback_pair() {
  auto a = std::make_shared<LoopbackDatagramLink::Channel>();
  auto b = std::make_shared<LoopbackDatagramLink::Channel>();
  return {std::unique_ptr<LoopbackDatagramLink>(new LoopbackDatagramLink(a, b)),
          std::unique_ptr<LoopbackDatagramLink>(new LoopbackDatagramLink(b, a))};
}

bool LoopbackDatagramLink::send(std::span<const std::uint8_t> datagram) {
  std::lock_guard<std::mutex> lk(tx_->mu);
  if (tx_->closed) return false;
  if (tx_->queued < kMaxQueuedDatagrams) {
    tx_->q.emplace_back().datagram.assign(datagram.begin(), datagram.end());
    ++tx_->queued;
  }
  tx_->cv.notify_all();
  if (tx_->wake) tx_->wake();
  return true;
}

bool LoopbackDatagramLink::send_frame(std::vector<std::uint8_t> headers,
                                      std::shared_ptr<const FecImage> image) {
  std::lock_guard<std::mutex> lk(tx_->mu);
  if (tx_->closed) return false;
  const std::size_t fit =
      std::min(headers.size() / kDatagramHeaderBytes,
               kMaxQueuedDatagrams - tx_->queued);
  if (fit > 0) {
    Channel::Queued& e = tx_->q.emplace_back();
    e.headers = std::move(headers);
    e.image = std::move(image);
    e.count = fit;
    tx_->queued += fit;
  }
  tx_->cv.notify_all();
  if (tx_->wake) tx_->wake();
  return true;
}

std::optional<std::vector<std::uint8_t>> LoopbackDatagramLink::recv(
    std::chrono::milliseconds timeout) {
  std::shared_ptr<const FecImage> drained;  // released after the lock
  std::unique_lock<std::mutex> lk(rx_->mu);
  // As in LoopbackTransport::recv: a zero timeout polls without waiting.
  if (timeout.count() > 0)
    rx_->cv.wait_for(lk, timeout,
                     [&] { return !rx_->q.empty() || rx_->closed; });
  if (rx_->q.empty()) return std::nullopt;
  --rx_->queued;
  Channel::Queued& e = rx_->q.front();
  std::vector<std::uint8_t> d;
  if (!e.image) {
    d = std::move(e.datagram);
    rx_->q.pop_front();
    return d;
  }
  const std::uint8_t* header =
      e.headers.data() + e.next * kDatagramHeaderBytes;
  join_datagram(d, header, e.image->payloads.data() + e.offset);
  e.offset += shard_len_of(header);
  if (++e.next == e.count) {
    drained = std::move(e.image);
    rx_->q.pop_front();
  }
  return d;
}

bool LoopbackDatagramLink::set_wake(Wake wake) {
  std::lock_guard<std::mutex> lk(rx_->mu);
  rx_->wake = std::move(wake);
  return true;
}

bool LoopbackDatagramLink::closed() const {
  // Own close is visible immediately; a PEER's close only once every
  // queued datagram has been drained — so a final frame (e.g. SHUTDOWN)
  // queued right before the peer closed is never lost to a racing closed()
  // poll between recvs. A real UDP socket has no peer-close signal at all,
  // so erring toward late detection is the faithful direction. (The rx
  // queue may retain already-redundant parity datagrams of a delivered
  // frame; one nullopt recv() drains them before closed() flips.)
  {
    std::lock_guard<std::mutex> lk(tx_->mu);
    if (tx_->closed) return true;
  }
  std::lock_guard<std::mutex> lk(rx_->mu);
  return rx_->closed && rx_->q.empty();
}

void LoopbackDatagramLink::close() {
  // Closes only the OUTBOUND channel (a socket close's FIN analogue): the
  // peer keeps draining what was already sent, and this end's closed()
  // reports via the tx flag. Waking the rx waiter lets a blocked recv on
  // this end re-check and time out instead of sleeping its full budget.
  {
    std::lock_guard<std::mutex> lk(tx_->mu);
    if (!std::exchange(tx_->closed, true) && tx_->wake) tx_->wake();
    tx_->cv.notify_all();
  }
  std::lock_guard<std::mutex> lk(rx_->mu);
  rx_->cv.notify_all();
  rx_->wake = nullptr;  // no signal outlives close()
}

// --------------------------------------------------------------------------
// UdpTransport
// --------------------------------------------------------------------------

UdpTransport::UdpTransport(std::unique_ptr<DatagramLink> link,
                           UdpFecConfig cfg)
    : link_(std::move(link)), cfg_(cfg), frag_(cfg), reasm_(cfg) {
  ADAFL_CHECK_MSG(link_ != nullptr, "UdpTransport: null datagram link");
}

bool UdpTransport::send(const Frame& f) {
  FrameImage once;
  return send_shared(f, once);
}

bool UdpTransport::send_shared(const Frame& f, FrameImage& image) {
  std::lock_guard<std::mutex> lk(send_mu_);
  if (link_->closed()) return false;
  FrameDatagrams d = frag_.fragment(f, image);
  return link_->send_frame(std::move(d.headers), std::move(d.image));
}

std::optional<Frame> UdpTransport::recv(std::chrono::milliseconds timeout) {
  std::lock_guard<std::mutex> lk(recv_mu_);
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    if (auto f = reasm_.next()) return f;
    std::chrono::milliseconds wait{0};
    if (timeout.count() > 0) {
      const auto now = Clock::now();
      if (now < deadline)
        wait = std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                     now);
    }
    auto d = link_->recv(wait);
    if (!d) return std::nullopt;  // timed out / closed with nothing queued
    reasm_.offer(std::move(*d));
    // Past the deadline the loop keeps draining with zero-wait recvs until
    // the link has nothing buffered, so a ready frame is never left behind.
  }
}

bool UdpTransport::closed() const { return link_->closed(); }
void UdpTransport::close() { link_->close(); }
std::string UdpTransport::peer() const { return link_->peer(); }

// --------------------------------------------------------------------------
// Client socket link
// --------------------------------------------------------------------------

UdpSocketLink::UdpSocketLink(int fd, std::string peer)
    : fd_(fd), peer_(std::move(peer)), recv_buf_(kRecvBufBytes) {}

UdpSocketLink::~UdpSocketLink() { close(); }

std::unique_ptr<UdpSocketLink> UdpSocketLink::connect(const std::string& host,
                                                      std::uint16_t port) {
  struct addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_DGRAM;
  struct addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  if (::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res) != 0 ||
      res == nullptr)
    return nullptr;
  int fd = -1;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, SOCK_DGRAM, 0);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) return nullptr;
  // Generations land in bursts; deep socket buffers keep the kernel from
  // shedding what FEC could have repaired for free.
  int sz = 1 << 21;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &sz, sizeof(sz));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sz, sizeof(sz));
  return std::unique_ptr<UdpSocketLink>(
      new UdpSocketLink(fd, host + ":" + port_str));
}

bool UdpSocketLink::send(std::span<const std::uint8_t> datagram) {
  if (closed_.load()) return false;
  const ssize_t n = ::send(fd_, datagram.data(), datagram.size(), MSG_NOSIGNAL);
  if (n == static_cast<ssize_t>(datagram.size())) return true;
  // A shed datagram (full buffers, ICMP-refused peer not up yet) is exactly
  // the loss FEC and the session's timeouts already absorb; only a broken
  // socket kills the link.
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS ||
                errno == ECONNREFUSED || errno == EINTR || errno == EMSGSIZE))
    return true;
  close();
  return false;
}

std::optional<std::vector<std::uint8_t>> UdpSocketLink::recv(
    std::chrono::milliseconds timeout) {
  if (closed_.load()) return std::nullopt;
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    struct pollfd p{};
    p.fd = fd_;
    p.events = POLLIN;
    const int rc =
        ::poll(&p, 1, left.count() > 0 ? static_cast<int>(left.count()) : 0);
    if (closed_.load()) return std::nullopt;
    if (rc > 0 && (p.revents & (POLLIN | POLLERR)) != 0) {
      std::lock_guard<std::mutex> lk(recv_mu_);
      const ssize_t n =
          ::recv(fd_, recv_buf_.data(), recv_buf_.size(), MSG_DONTWAIT);
      if (n >= 0)
        return std::vector<std::uint8_t>(recv_buf_.begin(),
                                         recv_buf_.begin() + n);
      // ECONNREFUSED: queued ICMP error from a peer that was not up yet —
      // consume it and keep waiting; the session's own timeout decides.
      if (errno != ECONNREFUSED && errno != EINTR && errno != EAGAIN &&
          errno != EWOULDBLOCK) {
        close();
        return std::nullopt;
      }
    }
    if (Clock::now() >= deadline) return std::nullopt;
  }
}

void UdpSocketLink::close() {
  if (closed_.exchange(true)) return;
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

// --------------------------------------------------------------------------
// Server-side mux
// --------------------------------------------------------------------------

namespace detail {

struct UdpMux {
  int fd = -1;
  std::uint16_t port = 0;
  std::atomic<bool> closed{false};

  struct Peer {
    std::mutex mu;  ///< guards q and wake; never held with another peer's
    std::condition_variable cv;
    std::deque<std::vector<std::uint8_t>> q;
    Wake wake;  ///< the owner's (MuxPeerLink::set_wake), until retire()
    std::atomic<bool> dead{false};
    std::string desc;
    std::string key;  ///< raw-sockaddr map key (for tombstone eviction)
    sockaddr_storage addr{};
    socklen_t alen = 0;
  };

  /// Dead peers linger in the map this many retirements as tombstones
  /// before their entries are reclaimed.
  static constexpr std::size_t kTombstoneGrace = 64;
  /// Route-cache bound: past this the cache is simply cleared (it is a pure
  /// cache over `peers`; a clear costs one reg_mu lookup per peer).
  static constexpr std::size_t kRouteCacheMax = 4096;

  /// Registration state, cold path only: taken when a datagram arrives from
  /// an unknown address, on accept(), and on retire — never per datagram
  /// from a known peer.
  std::mutex reg_mu;
  std::condition_variable reg_cv;  ///< new pending peer / shutdown
  std::map<std::string, std::shared_ptr<Peer>> peers;
  std::deque<std::shared_ptr<Peer>> pending;
  std::deque<std::string> tombstones;  ///< retirement order (FIFO window)

  /// At most one thread drains the socket at a time; the holder owns
  /// route_cache and pump_buf, so the hot receive path resolves known
  /// senders without touching any shared lock at all.
  std::mutex pump_mu;
  std::map<std::string, std::shared_ptr<Peer>> route_cache;
  std::vector<std::uint8_t> pump_buf;

  ~UdpMux() {
    // The fd is released only here: every transport and the listener hold a
    // shared_ptr, so nothing can poll a recycled descriptor.
    if (fd >= 0) ::close(fd);
  }

  void shut() {
    closed.store(true);
    std::lock_guard<std::mutex> lk(reg_mu);
    for (auto& [key, p] : peers) {
      p->dead.store(true);
      std::lock_guard<std::mutex> plk(p->mu);
      p->cv.notify_all();
      if (p->wake) p->wake();
    }
    reg_cv.notify_all();
  }

  /// Drains the socket into per-peer queues, waiting up to `timeout` for
  /// readability. Returns false without doing anything when another thread
  /// already holds the pump (the caller then waits on its own peer's cv —
  /// the drainer routes and notifies for everyone).
  bool pump(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> plk(pump_mu, std::try_to_lock);
    if (!plk.owns_lock()) return false;
    if (closed.load()) return true;
    struct pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    const int rc = ::poll(&p, 1, static_cast<int>(timeout.count()));
    if (rc <= 0 || closed.load()) return true;
    if (pump_buf.size() < kRecvBufBytes) pump_buf.resize(kRecvBufBytes);
    for (;;) {
      sockaddr_storage ss{};
      socklen_t sl = sizeof(ss);
      const ssize_t n =
          ::recvfrom(fd, pump_buf.data(), pump_buf.size(), MSG_DONTWAIT,
                     reinterpret_cast<sockaddr*>(&ss), &sl);
      if (n < 0) break;
      route({pump_buf.data(), static_cast<std::size_t>(n)}, ss, sl);
    }
    return true;
  }

  /// Routes one datagram to its peer. Caller holds pump_mu. The cache hit
  /// path — every datagram after a peer's first — takes only that peer's
  /// own lock; reg_mu is touched solely for unknown senders (registration)
  /// and stale cache entries.
  void route(std::span<const std::uint8_t> d, const sockaddr_storage& ss,
             socklen_t sl) {
    const std::string key(reinterpret_cast<const char*>(&ss),
                          static_cast<std::size_t>(sl));
    std::shared_ptr<Peer> p;
    auto cit = route_cache.find(key);
    if (cit != route_cache.end()) {
      if (cit->second->dead.load()) {
        // Stale cache entry: the address may have been reclaimed past its
        // tombstone window and re-registered — re-resolve from the map.
        route_cache.erase(cit);
      } else {
        p = cit->second;
      }
    }
    if (!p) {
      std::lock_guard<std::mutex> lk(reg_mu);
      auto it = peers.find(key);
      if (it == peers.end()) {
        p = std::make_shared<Peer>();
        p->addr = ss;
        p->alen = sl;
        p->desc = describe(ss);
        p->key = key;
        peers.emplace(key, p);
        pending.push_back(p);
        reg_cv.notify_all();
      } else {
        p = it->second;
      }
      if (route_cache.size() >= kRouteCacheMax) route_cache.clear();
      route_cache.emplace(key, p);
    }
    // Dead peers stay in the map as tombstones so stragglers from a closed
    // connection don't masquerade as a new client — but only for a bounded
    // grace window (see retire()), so churn can't grow the map forever.
    if (!p->dead.load()) {
      std::lock_guard<std::mutex> plk(p->mu);
      if (p->q.size() < kMaxQueuedDatagrams)
        p->q.emplace_back(d.begin(), d.end());
      p->cv.notify_all();
      if (p->wake) p->wake();
    }
  }

  /// Marks a peer dead and schedules its address-map entry for eviction.
  /// The entry survives as a tombstone while the FIFO window slides over
  /// it; once kTombstoneGrace newer retirements have happened, the entry
  /// is reclaimed and the address may join as a fresh peer again.
  void retire(const std::shared_ptr<Peer>& p) {
    const bool was_dead = p->dead.exchange(true);
    {
      std::lock_guard<std::mutex> plk(p->mu);
      p->q.clear();
      p->cv.notify_all();
      p->wake = nullptr;  // no signal outlives the link's close()
    }
    if (was_dead) return;
    std::lock_guard<std::mutex> lk(reg_mu);
    tombstones.push_back(p->key);
    while (tombstones.size() > kTombstoneGrace) {
      auto it = peers.find(tombstones.front());
      if (it != peers.end() && it->second->dead.load()) peers.erase(it);
      tombstones.pop_front();
    }
    reg_cv.notify_all();
  }

  bool send_to(const Peer& p, std::span<const std::uint8_t> d) {
    if (closed.load()) return false;
    const ssize_t n =
        ::sendto(fd, d.data(), d.size(), MSG_NOSIGNAL,
                 reinterpret_cast<const sockaddr*>(&p.addr), p.alen);
    if (n == static_cast<ssize_t>(d.size())) return true;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                     errno == ENOBUFS || errno == ECONNREFUSED ||
                     errno == EINTR || errno == EMSGSIZE);
  }

  static std::string describe(const sockaddr_storage& ss) {
    char ip[INET6_ADDRSTRLEN] = "?";
    std::uint16_t port = 0;
    if (ss.ss_family == AF_INET) {
      const auto* a = reinterpret_cast<const sockaddr_in*>(&ss);
      ::inet_ntop(AF_INET, &a->sin_addr, ip, sizeof(ip));
      port = ntohs(a->sin_port);
    } else if (ss.ss_family == AF_INET6) {
      const auto* a = reinterpret_cast<const sockaddr_in6*>(&ss);
      ::inet_ntop(AF_INET6, &a->sin6_addr, ip, sizeof(ip));
      port = ntohs(a->sin6_port);
    }
    return std::string(ip) + ":" + std::to_string(port) + "/udp";
  }
};

}  // namespace detail

namespace {

/// DatagramLink view of one mux peer.
class MuxPeerLink final : public DatagramLink {
 public:
  MuxPeerLink(std::shared_ptr<detail::UdpMux> mux,
              std::shared_ptr<detail::UdpMux::Peer> peer)
      : mux_(std::move(mux)), peer_(std::move(peer)) {}

  ~MuxPeerLink() override { close(); }

  bool send(std::span<const std::uint8_t> datagram) override {
    if (peer_->dead.load()) return false;
    return mux_->send_to(*peer_, datagram);
  }

  /// A zero timeout only pops the peer's queue; it never touches the
  /// socket. Whoever drains the mux (flserver's loop thread, through
  /// accept(0)) fills the queue and calls the wake. A blocking recv pumps
  /// the socket itself, for callers that run no loop.
  std::optional<std::vector<std::uint8_t>> recv(
      std::chrono::milliseconds timeout) override {
    const auto deadline = Clock::now() + timeout;
    for (;;) {
      {
        std::lock_guard<std::mutex> lk(peer_->mu);
        if (!peer_->q.empty()) {
          std::vector<std::uint8_t> d = std::move(peer_->q.front());
          peer_->q.pop_front();
          return d;
        }
      }
      if (timeout.count() == 0) return std::nullopt;
      if (peer_->dead.load() || mux_->closed.load()) return std::nullopt;
      const auto now = Clock::now();
      if (now >= deadline) return std::nullopt;
      const auto left = std::min(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now),
          kMuxSlice);
      if (!mux_->pump(left)) {
        // Another thread holds the pump: sleep on our own queue's cv — the
        // drainer routes into it and notifies (no global lock involved).
        std::unique_lock<std::mutex> lk(peer_->mu);
        if (peer_->q.empty() && !peer_->dead.load() && left.count() > 0)
          peer_->cv.wait_for(lk, left);
      }
    }
  }

  bool set_wake(Wake wake) override {
    std::lock_guard<std::mutex> lk(peer_->mu);
    peer_->wake = std::move(wake);
    return true;
  }

  bool closed() const override {
    return peer_->dead.load() || mux_->closed.load();
  }

  void close() override { mux_->retire(peer_); }

  std::string peer() const override { return peer_->desc; }

 private:
  std::shared_ptr<detail::UdpMux> mux_;
  std::shared_ptr<detail::UdpMux::Peer> peer_;
};

}  // namespace

// --------------------------------------------------------------------------
// UdpListener
// --------------------------------------------------------------------------

UdpListener::UdpListener(std::uint16_t port, UdpFecConfig cfg)
    : mux_(std::make_shared<detail::UdpMux>()), cfg_(cfg) {
  validate_fec_config(cfg_);
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ADAFL_CHECK_MSG(fd >= 0, "udp: socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  int sz = 1 << 22;  // many peers burst into one socket
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &sz, sizeof(sz));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sz, sizeof(sz));
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ADAFL_CHECK_MSG(false,
                    "udp: bind on port " << port << " failed: " << err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    ::close(fd);
    ADAFL_CHECK_MSG(false, "udp: getsockname failed");
  }
  mux_->fd = fd;
  mux_->port = ntohs(addr.sin_port);
}

UdpListener::~UdpListener() { close(); }

std::uint16_t UdpListener::port() const { return mux_->port; }

void UdpListener::close() { mux_->shut(); }

bool UdpListener::closed() const { return mux_->closed.load(); }

std::size_t UdpListener::peer_count() const {
  std::lock_guard<std::mutex> lk(mux_->reg_mu);
  return mux_->peers.size();
}

int UdpListener::fd() const { return mux_->fd; }

std::unique_ptr<Transport> UdpListener::accept(
    std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  // accept(0ms) — the event-loop readable callback — still drains once:
  // whatever the kernel has buffered registers its senders before the
  // pending check below, without ever blocking.
  if (timeout.count() == 0) mux_->pump(std::chrono::milliseconds(0));
  for (;;) {
    if (mux_->closed.load()) return nullptr;
    std::shared_ptr<detail::UdpMux::Peer> p;
    {
      std::lock_guard<std::mutex> lk(mux_->reg_mu);
      while (!mux_->pending.empty()) {
        auto cand = mux_->pending.front();
        mux_->pending.pop_front();
        if (!cand->dead.load()) {
          p = std::move(cand);
          break;
        }
      }
    }
    if (p)
      return std::make_unique<UdpTransport>(
          std::make_unique<MuxPeerLink>(mux_, std::move(p)), cfg_);
    const auto now = Clock::now();
    if (now >= deadline) return nullptr;
    auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    left = std::min(left, kMuxSlice);
    if (!mux_->pump(left)) {
      // A transport thread is draining; wait for it to register someone.
      std::unique_lock<std::mutex> lk(mux_->reg_mu);
      if (mux_->pending.empty() && !mux_->closed.load())
        mux_->reg_cv.wait_for(lk, left);
    }
  }
}

}  // namespace adafl::net::transport
