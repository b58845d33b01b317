// FEC-coded datagram transport: Reed-Solomon-protected UDP frame delivery.
//
// The session protocol speaks Frames (frame.h). Over TCP a frame is a byte
// stream; here each encoded frame is FRAGMENTED into datagrams, the
// datagrams are grouped into FEC GENERATIONS of k data shards, and every
// generation ships r extra parity shards (RS(k+r, k) over GF(256), one
// codeword per byte column, frame bytes block-interleaved across the data
// shards; fec/rs.h computes parity and repair as matrix products). The
// receiver repairs up to r lost datagrams per generation with zero round
// trips; only a generation that loses more than r datagrams leaves the
// frame incomplete, and then the session layer's existing retransmit nudge
// re-sends the whole frame — exactly the fallback it already uses against
// TCP frame loss.
//
// A frame's datagrams differ between links only in frame_seq and the CRC.
// Everything else (interleaved data and parity payloads, the other header
// fields, each datagram's CRC at frame_seq 0) is one immutable FecImage,
// built once per broadcast: the first UdpTransport of a broadcast fills the
// broadcast's FrameImage slot with it, and every peer stamps its own
// frame_seq on a copy of the headers, with each CRC derived from the
// image's (datagram_crc_correction). The link gets the whole frame in one
// call (send_frame): LoopbackDatagramLink queues it as one entry, the
// stamped headers plus a reference to the image, and copies each datagram
// out of the image only when it is read.
//
// Datagram wire format (little-endian, version 1):
//
//   u32 magic        "AFD1" (0x31'44'46'41 on the wire)
//   u8  version      1
//   u8  shard        index within the generation: data 0..k-1, parity k..n-1
//   u8  k            data shards in THIS generation (the final one may
//                    carry fewer than the configured k)
//   u8  r            parity shards (k + r <= 255)
//   u64 frame_seq    sender-monotonic frame number (reassembly key)
//   u32 gen_index    generation index within the frame
//   u32 gen_count    generations in the frame
//   u32 frame_len    total encoded-frame bytes
//   u32 gen_off      frame byte offset of this generation's first data byte
//   u16 shard_len    payload bytes per shard in this generation
//   u16 reserved     0
//   u32 crc          CRC-32 of the 36 header bytes above + the payload
//   u8  payload[shard_len]
//
// The reassembler NEVER throws: a malformed, duplicate, stale, or
// inconsistent datagram is counted and dropped (loss tolerance is the whole
// point — one bad datagram must not cost the peer). It holds what arrived,
// not what headers claim: each shard is the received datagram itself, and
// a frame's payload is allocated only once its repaired generations tile
// [0, frame_len). The inner frame's own CRC (validated by decode_frame on
// reassembly) remains the last line of defense against any reconstruction
// the datagram CRCs failed to catch.
//
// Layering: everything here sits on DatagramLink — a UDP socket, a mux'd
// server-side peer, or an in-process loopback pair — so deterministic
// datagram-level chaos (FaultyDatagramLink, faulty.h) and the loopback
// sim-equivalence oracle wrap the exact bytes a real socket would carry.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/fec/rs.h"
#include "net/transport/transport.h"

namespace adafl::net::transport {

constexpr std::uint32_t kDatagramMagic = 0x31444641u;  // "AFD1"
constexpr std::uint8_t kDatagramVersion = 1;
constexpr std::size_t kDatagramHeaderBytes = 40;
/// Hard ceiling on a shard payload (u16 field; real configs stay near MTU).
constexpr std::size_t kMaxShardBytes = 65495;
/// Ceiling on generations per frame a reassembler will track (a forged
/// header cannot make it allocate unboundedly).
constexpr std::uint32_t kMaxGenerationsPerFrame = 16384;
/// Datagrams a loopback link or a mux peer holds unread: past it new
/// arrivals are dropped (datagram semantics; FEC absorbs the loss).
constexpr std::size_t kMaxQueuedDatagrams = 65536;

/// Parsed datagram header (see the wire layout above).
struct DatagramHeader {
  std::uint8_t shard = 0;
  std::uint8_t k = 1;
  std::uint8_t r = 0;
  std::uint64_t frame_seq = 0;
  std::uint32_t gen_index = 0;
  std::uint32_t gen_count = 1;
  std::uint32_t frame_len = 0;
  std::uint32_t gen_off = 0;
  std::uint16_t shard_len = 0;
};

/// Encodes header + payload (payload.size() must equal h.shard_len).
std::vector<std::uint8_t> encode_datagram(const DatagramHeader& h,
                                          std::span<const std::uint8_t> payload);

/// Validates magic/version/CRC and structural field bounds. Returns the
/// header (payload = datagram.subspan(kDatagramHeaderBytes)) or nullopt —
/// never throws.
std::optional<DatagramHeader> parse_datagram(
    std::span<const std::uint8_t> datagram);

/// What to XOR into the CRC of a datagram with a `shard_len`-byte payload,
/// stamped with frame_seq 0, to get its CRC under `frame_seq`. CRC-32 is
/// affine: for equal lengths crc(a ^ b) = crc(a) ^ crc(b) ^ crc(0...0), and
/// the two datagrams differ only in the frame_seq bytes, so the correction
/// is crc(e) ^ crc(0...0) for e = frame_seq's bytes in an otherwise zero
/// datagram. It depends on nothing else in the datagram.
std::uint32_t datagram_crc_correction(std::uint64_t frame_seq,
                                      std::size_t shard_len);

/// One frame's datagrams minus what differs per link (frame_seq and the
/// CRC), for one FEC geometry. Immutable once built; every peer of a
/// broadcast shares one through its FrameImage slot.
struct FecImage {
  int data_shards = 0;  ///< the UdpFecConfig geometry it was built for
  int parity_shards = 0;
  std::size_t max_shard_bytes = 0;
  /// kDatagramHeaderBytes per datagram, in send order; frame_seq and crc 0.
  std::vector<std::uint8_t> headers;
  /// Every datagram's payload (shard_len bytes each), in send order.
  std::vector<std::uint8_t> payloads;
  /// Every datagram's CRC as stamped with frame_seq 0, in send order.
  std::vector<std::uint32_t> crcs;
  std::int64_t parity_bytes = 0;  ///< wire bytes of the parity datagrams

  std::size_t datagrams() const {
    return headers.size() / kDatagramHeaderBytes;
  }
};

/// One frame's datagrams for one link: their stamped headers
/// (kDatagramHeaderBytes each, in send order) and the image whose payloads,
/// consecutive and shard_len bytes each, follow them one to one.
struct FrameDatagrams {
  std::vector<std::uint8_t> headers;
  std::shared_ptr<const FecImage> image;
};

/// Shared FEC/datagram counters. One instance may back many transports
/// (e.g. every server-side connection), so everything is atomic.
struct FecStats {
  std::atomic<std::int64_t> datagrams_sent{0};
  std::atomic<std::int64_t> datagrams_received{0};
  /// Failed the header checks or the CRC, or disagrees with its frame's
  /// other datagrams. One whose header names a frame already delivered or
  /// a generation already complete is dropped before either check and is
  /// not counted here, corrupt or not.
  std::atomic<std::int64_t> datagrams_malformed{0};
  std::atomic<std::int64_t> datagrams_lost{0};      ///< detected missing
  std::atomic<std::int64_t> datagrams_repaired{0};  ///< rebuilt from parity
  std::atomic<std::int64_t> parity_bytes{0};        ///< parity datagram bytes
  std::atomic<std::int64_t> unrecoverable_generations{0};
  std::atomic<std::int64_t> frames_sent{0};
  std::atomic<std::int64_t> frames_delivered{0};
  std::atomic<std::int64_t> frames_dropped{0};
};

/// Observability callbacks (optional). The transport layer stays
/// metrics-free (adafl_net's dependencies are tensor-only); the CLIs bind
/// these to tracer datagram_lost / fec_repair events.
struct FecHooks {
  std::function<void(std::int64_t bytes)> on_datagram_lost;
  std::function<void(int shards, std::int64_t bytes)> on_fec_repair;
};

struct UdpFecConfig {
  int data_shards = 16;             ///< k: data datagrams per generation
  int parity_shards = 4;            ///< r: parity datagrams per generation
  std::size_t max_shard_bytes = 1200;  ///< datagram payload target (~MTU)
  std::size_t max_assemblies = 8;   ///< concurrent frames under reassembly
  FecStats* stats = nullptr;        ///< optional shared counters
  FecHooks hooks;                   ///< optional loss/repair callbacks
};

/// One-datagram medium: the seam under UdpTransport. send() is
/// fire-and-forget (false only when the link itself is down); recv()
/// returns one whole datagram or nullopt on timeout/close.
class DatagramLink {
 public:
  virtual ~DatagramLink() = default;
  virtual bool send(std::span<const std::uint8_t> datagram) = 0;
  /// Sends one frame's datagrams in order (FrameDatagrams: `headers` are
  /// stamped, the payloads are `image`'s). This default joins each header
  /// to its payload and calls send(), stopping at the first false.
  virtual bool send_frame(std::vector<std::uint8_t> headers,
                          std::shared_ptr<const FecImage> image);
  virtual std::optional<std::vector<std::uint8_t>> recv(
      std::chrono::milliseconds timeout) = 0;
  /// Transport::set_wake for datagrams: `wake` runs each time a datagram
  /// or a close becomes receivable here, until close() returns. This
  /// default cannot signal.
  virtual bool set_wake(Wake /*wake*/) { return false; }
  virtual bool closed() const = 0;
  virtual void close() = 0;
  virtual std::string peer() const = 0;
};

class LoopbackDatagramLink;

/// In-process datagram pair (lossless, ordered — faults are injected by
/// wrapping an end in FaultyDatagramLink). The UDP analogue of
/// make_loopback_pair(): the sim-equivalence oracle for the datagram path.
std::pair<std::unique_ptr<LoopbackDatagramLink>,
          std::unique_ptr<LoopbackDatagramLink>>
make_datagram_loopback_pair();

class LoopbackDatagramLink final : public DatagramLink {
 public:
  ~LoopbackDatagramLink() override { close(); }

  bool send(std::span<const std::uint8_t> datagram) override;
  /// Queues the frame as one entry, the headers and a reference to the
  /// image, under one lock and one wake; recv() hands its datagrams out in
  /// order. The queue cap counts datagrams: those past it are dropped.
  bool send_frame(std::vector<std::uint8_t> headers,
                  std::shared_ptr<const FecImage> image) override;
  std::optional<std::vector<std::uint8_t>> recv(
      std::chrono::milliseconds timeout) override;
  /// The peer's sends and its close call `wake`.
  bool set_wake(Wake wake) override;
  bool closed() const override;
  void close() override;
  std::string peer() const override { return "dgram-loopback"; }

 private:
  friend std::pair<std::unique_ptr<LoopbackDatagramLink>,
                   std::unique_ptr<LoopbackDatagramLink>>
  make_datagram_loopback_pair();

  struct Channel;
  LoopbackDatagramLink(std::shared_ptr<Channel> tx,
                       std::shared_ptr<Channel> rx);

  std::shared_ptr<Channel> tx_;
  std::shared_ptr<Channel> rx_;
};

/// Splits encoded frames into FEC generations of sequenced datagrams.
class FrameFragmenter {
 public:
  explicit FrameFragmenter(const UdpFecConfig& cfg);

  /// `f`'s datagrams in send order (per generation: data then parity),
  /// stamped with this fragmenter's next frame_seq. The FEC image is
  /// `slot`'s if it was built for this geometry; otherwise it is built here,
  /// and kept in the slot if the slot had none. Each call consumes one
  /// frame_seq.
  FrameDatagrams fragment(const Frame& f, FrameImage& slot);

  /// All datagrams for `f`, whole, as fragment() with a slot for this
  /// frame only.
  std::vector<std::vector<std::uint8_t>> fragment(const Frame& f);

 private:
  /// The image of the frame whose stream bytes are `enc`.
  std::shared_ptr<const FecImage> build(std::span<const std::uint8_t> enc);

  UdpFecConfig cfg_;
  std::uint64_t next_seq_ = 0;
  std::optional<fec::RsCode> code_;  ///< the geometry last encoded
};

/// Rebuilds frames from datagrams, repairing up to r erasures per
/// generation. offer() never throws; hostile input is counted and dropped.
class FrameReassembler {
 public:
  explicit FrameReassembler(const UdpFecConfig& cfg);

  /// Feeds one received datagram. A shard it carries is kept in the
  /// datagram's own buffer, not copied out of it.
  void offer(std::vector<std::uint8_t>&& datagram);
  /// Feeds a copy of one received datagram.
  void offer(std::span<const std::uint8_t> datagram);

  /// Pops the oldest fully reassembled frame, if any.
  std::optional<Frame> next();

 private:
  /// Each shard buffer is a whole datagram: the shard starts at
  /// kDatagramHeaderBytes (a repaired one has an unused header).
  struct Gen {
    std::uint8_t k = 0;
    std::uint8_t r = 0;
    std::uint16_t shard_len = 0;
    std::uint32_t gen_off = 0;
    /// Shards as they arrived (index, datagram), until the generation
    /// completes.
    std::vector<std::pair<std::uint8_t, std::vector<std::uint8_t>>> arrived;
    /// The k data shards, repaired, once it has: nonempty means complete.
    std::vector<std::vector<std::uint8_t>> data;
  };
  struct Assembly {
    std::uint32_t frame_len = 0;
    std::uint32_t gen_count = 0;
    std::uint32_t gens_complete = 0;
    std::map<std::uint32_t, Gen> gens;  ///< only generations seen
  };

  /// The frame `a` carries once every generation is repaired (its shards
  /// are released as they are copied). Throws CheckError when the
  /// generations do not tile [0, frame_len) exactly, or as decode_frame
  /// does. The payload is allocated only after the tiling check, so a
  /// forged frame_len costs no more than the bytes that arrived.
  static Frame assemble(Assembly& a);
  /// True when `d`'s header, not yet verified, names a delivered frame or a
  /// complete generation: the datagram would be dropped after its CRC.
  bool late(std::span<const std::uint8_t> d) const;
  /// Counts `d` as received; its header if it is neither late nor
  /// malformed (which is counted), before any copy of it is made.
  std::optional<DatagramHeader> screen(std::span<const std::uint8_t> d);
  /// Files a screened datagram under its frame and generation.
  void keep(const DatagramHeader& h, std::vector<std::uint8_t> datagram);
  void drop_malformed();
  void try_complete_gen(Assembly& a, Gen& g);
  void evict_oldest();

  UdpFecConfig cfg_;
  std::optional<fec::RsCode> code_;  ///< the geometry last repaired
  std::map<std::uint64_t, Assembly> assemblies_;
  std::deque<Frame> ready_;
  std::deque<std::uint64_t> done_order_;  ///< recently delivered frame_seqs
  std::map<std::uint64_t, bool> done_;    ///< late-datagram suppression
};

/// Frame Transport over any DatagramLink: fragments + FEC on send,
/// reassembles + repairs on recv. Thread-safe like the session expects
/// (send and recv may race from different threads).
class UdpTransport final : public Transport {
 public:
  UdpTransport(std::unique_ptr<DatagramLink> link, UdpFecConfig cfg);

  bool send(const Frame& f) override;
  /// Sends from the broadcast's FEC image (FrameFragmenter::fragment), so a
  /// broadcast to N peers of one geometry builds one image.
  bool send_shared(const Frame& f, FrameImage& image) override;
  std::optional<Frame> recv(std::chrono::milliseconds timeout) override;
  /// Signals as its link does.
  bool set_wake(Wake wake) override {
    return link_->set_wake(std::move(wake));
  }
  bool closed() const override;
  void close() override;
  std::string peer() const override;

 private:
  std::unique_ptr<DatagramLink> link_;
  UdpFecConfig cfg_;
  std::mutex send_mu_;
  FrameFragmenter frag_;
  std::mutex recv_mu_;
  FrameReassembler reasm_;
};

/// Client-side connected UDP socket link.
class UdpSocketLink final : public DatagramLink {
 public:
  /// Resolves host:port and connect()s a nonblocking UDP socket. Returns
  /// nullptr on resolution/socket failure (mirrors TcpTransport::connect).
  static std::unique_ptr<UdpSocketLink> connect(const std::string& host,
                                                std::uint16_t port);
  ~UdpSocketLink() override;

  bool send(std::span<const std::uint8_t> datagram) override;
  std::optional<std::vector<std::uint8_t>> recv(
      std::chrono::milliseconds timeout) override;
  bool closed() const override { return closed_.load(); }
  void close() override;
  std::string peer() const override { return peer_; }

 private:
  UdpSocketLink(int fd, std::string peer);

  int fd_ = -1;
  std::atomic<bool> closed_{false};
  std::string peer_;
  /// recv() reads each datagram into recv_buf_ and returns a copy of
  /// exactly its bytes. A second concurrent recv() waits on recv_mu_ for
  /// the buffer (UdpTransport already serializes its reads).
  std::mutex recv_mu_;
  std::vector<std::uint8_t> recv_buf_;
};

namespace detail {
struct UdpMux;
}

/// Server-side UDP endpoint: one bound socket, peers demultiplexed by
/// source address. accept() returns a ready UdpTransport for each
/// previously-unseen source; datagrams for known peers are routed to their
/// transport (and its wake called) as a side effect of accept() or of a
/// blocking recv(). A zero-timeout recv() only takes what was routed.
class UdpListener {
 public:
  /// Binds 0.0.0.0:port (0 = ephemeral). Accepted transports use `cfg`
  /// (typically sharing one FecStats across all peers). Throws CheckError
  /// if the address is unavailable.
  UdpListener(std::uint16_t port, UdpFecConfig cfg);
  ~UdpListener();

  UdpListener(const UdpListener&) = delete;
  UdpListener& operator=(const UdpListener&) = delete;

  std::uint16_t port() const;

  /// Waits up to `timeout` for a datagram from a new source address;
  /// nullptr on timeout or after close().
  std::unique_ptr<Transport> accept(std::chrono::milliseconds timeout);

  /// Stops the mux; pending and future accept()/recv() calls drain out.
  /// Safe to call from another thread than accept().
  void close();
  bool closed() const;

  /// Address-map entries currently held (live peers + dead entries inside
  /// the tombstone grace window). Dropped peers are evicted once the
  /// window slides past them, so this stays bounded under churn.
  std::size_t peer_count() const;

  /// The mux's UDP socket, for EventLoop::watch_fd: the loop thread calls
  /// accept(0ms) when it turns readable instead of a thread blocking here,
  /// and is then the socket's only reader. The mux still owns the fd.
  int fd() const;

 private:
  std::shared_ptr<detail::UdpMux> mux_;
  UdpFecConfig cfg_;
};

}  // namespace adafl::net::transport
