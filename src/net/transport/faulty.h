// Deterministic chaos injection for the deployed FL transport.
//
// FaultyTransport wraps any Transport (loopback or TCP) and applies a
// scripted FaultPlan: drop a frame, corrupt a byte of its encoding,
// duplicate it, delay it, or sever the connection — each rule one-shot and
// matched by direction, frame index, message type, and/or round. Because the
// plan is data (and the random builder is seeded), every chaos run is
// reproducible bit-for-bit at any thread count.
//
// Fault semantics mirror what the real network would do:
//   * drop       — the frame silently vanishes (send still reports success,
//                  exactly like a TCP send whose segments die in flight).
//   * corrupt    — the frame is re-encoded, one byte is XOR-flipped, and the
//                  result is re-parsed. A flip the wire format *detects*
//                  (payload/CRC/magic damage) behaves like a malformed
//                  stream: recv throws CheckError, send severs. A flip it
//                  cannot detect (header round/client_id, which the CRC does
//                  not cover) delivers a valid-but-wrong frame — the case
//                  the session layer's staleness checks must absorb.
//   * duplicate  — the frame is delivered twice.
//   * delay      — delivery is postponed by a fixed interval.
//   * sever      — the connection drops abruptly (SIGKILL-grade: no
//                  shutdown handshake), before the matched frame arrives.
//
// The optional on_fault callback fires as a rule triggers; tests use it to
// stop a server at an exact protocol moment (kill-and-resume proofs).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/transport/transport.h"
#include "net/transport/udp.h"

namespace adafl::net::transport {

enum class FaultDir : std::uint8_t { kSend, kRecv };
enum class FaultKind : std::uint8_t {
  kDrop,
  kCorrupt,
  kDuplicate,
  kDelay,
  kSever,
};

const char* to_string(FaultDir d);
const char* to_string(FaultKind k);

/// Matches any frame index.
constexpr std::uint64_t kAnyFrame = ~std::uint64_t{0};

/// One scripted fault. All set matchers must hold for the rule to fire;
/// every rule fires at most once.
struct FaultRule {
  FaultDir dir = FaultDir::kRecv;
  FaultKind kind = FaultKind::kDrop;

  // Matchers (wildcards: kAnyFrame / -1).
  std::uint64_t frame_index = kAnyFrame;  ///< Nth frame in `dir`, 0-based
  int msg_type = -1;                      ///< raw MsgType value
  std::int64_t round = -1;                ///< frame round field

  // Parameters.
  std::size_t corrupt_offset = 0;  ///< byte offset into the encoded frame
  std::chrono::milliseconds delay{0};

  /// < 0: scripted one-shot rule (fires once, then `fired`). >= 0:
  /// persistent probabilistic rule — every matching frame rolls this
  /// probability on the rule's own splitmix64 stream (`rng`), and the rule
  /// never retires. Used to model sustained loss rates for loss sweeps.
  double probability = -1.0;
  std::uint64_t rng = 0;  ///< per-rule RNG state for probabilistic rules

  bool fired = false;
};

/// A scripted sequence of faults. Builders return *this for chaining.
struct FaultPlan {
  std::vector<FaultRule> rules;

  FaultPlan& drop(FaultDir dir, MsgType t, std::int64_t round = -1);
  FaultPlan& drop_frame(FaultDir dir, std::uint64_t index);
  /// Corruption is modelled on the receive path (where the parser sits).
  FaultPlan& corrupt_recv(MsgType t, std::int64_t round, std::size_t offset);
  FaultPlan& duplicate(FaultDir dir, MsgType t, std::int64_t round = -1);
  FaultPlan& delay_frame(FaultDir dir, MsgType t, std::int64_t round,
                         std::chrono::milliseconds d);
  /// Abrupt connection loss just before the matched frame is delivered.
  FaultPlan& sever_on_recv(MsgType t, std::int64_t round = -1);
  /// Abrupt connection loss when the Nth outbound frame is attempted.
  FaultPlan& sever_on_send_frame(std::uint64_t index);

  /// Seed-deterministic plan: `n_faults` fully recoverable faults (drop /
  /// duplicate / delay of round-data frames) spread over rounds
  /// 1..`horizon`, plus one MODEL-recv sever when `include_sever`. Every
  /// generated fault is survived by nudge retransmission or deduplication,
  /// so a random plan never wedges a run or changes its final weights.
  static FaultPlan random(std::uint64_t seed, int n_faults,
                          std::uint64_t horizon, bool include_sever);

  /// Persistent i.i.d. loss of round-data frames: every SCORE/UPDATE send
  /// and MODEL/SELECT recv is independently dropped with probability
  /// `prob`. Control frames (HELLO/WELCOME/SHUTDOWN) are never touched, so
  /// — like random() — every loss is survivable via the retransmit nudge.
  /// This is the TCP-side counterpart of DatagramFaultPlan loss rates, used
  /// to compare transports at matched loss in scripts/loss_sweep.sh.
  FaultPlan& iid_frame_loss(double prob, std::uint64_t seed);
};

/// Transport decorator applying a FaultPlan to the frames passing through.
/// Thread-safe to the same degree as the wrapped transport.
class FaultyTransport : public Transport {
 public:
  /// (rule that fired, frame it matched)
  using OnFault = std::function<void(const FaultRule&, const Frame&)>;

  FaultyTransport(std::unique_ptr<Transport> inner, FaultPlan plan);

  void set_on_fault(OnFault cb);

  /// Rules fired so far.
  std::uint64_t faults_fired() const;

  bool send(const Frame& f) override;
  std::optional<Frame> recv(std::chrono::milliseconds timeout) override;
  bool closed() const override;
  void close() override;
  std::string peer() const override;

 private:
  /// Returns (a copy of) the first unfired matching rule, marking it fired.
  std::optional<FaultRule> take_match(FaultDir dir, const Frame& f);

  std::unique_ptr<Transport> inner_;
  OnFault on_fault_;

  mutable std::mutex mu_;
  FaultPlan plan_;
  std::uint64_t sent_ = 0;
  std::uint64_t recvd_ = 0;
  std::uint64_t fired_ = 0;
  std::optional<Frame> dup_pending_;  ///< recv-side duplicate to replay
};

// --- Datagram-level chaos (UDP transport). --------------------------------

/// Seed-deterministic datagram fault model, applied on the SEND path of a
/// FaultyDatagramLink (so outcomes never depend on receiver poll timing):
///   * i.i.d. loss     — each datagram independently dropped with drop_prob.
///   * reorder         — with reorder_prob a datagram is held back and
///                       released after the next one (pairwise swap).
///   * Gilbert-Elliott — two-state burst loss: in the bad state every
///                       datagram is lost; good->bad with ge_p, bad->good
///                       with ge_q per datagram.
struct DatagramFaultPlan {
  double drop_prob = 0.0;
  double reorder_prob = 0.0;
  double ge_p = 0.0;
  double ge_q = 1.0;
  std::uint64_t seed = 0;

  /// Pure i.i.d. loss at `prob`.
  static DatagramFaultPlan iid(double prob, std::uint64_t seed);
  /// Gilbert-Elliott with long-run loss `rate` and mean burst length
  /// `mean_burst` datagrams: ge_q = 1/mean_burst, ge_p = rate*ge_q/(1-rate).
  static DatagramFaultPlan burst(double rate, double mean_burst,
                                 std::uint64_t seed);
};

/// DatagramLink decorator applying a DatagramFaultPlan. Deterministic for a
/// fixed seed and send sequence at any thread count or poll cadence.
class FaultyDatagramLink final : public DatagramLink {
 public:
  FaultyDatagramLink(std::unique_ptr<DatagramLink> inner,
                     DatagramFaultPlan plan);

  std::uint64_t dropped() const;
  std::uint64_t reordered() const;
  std::uint64_t delivered() const;

  bool send(std::span<const std::uint8_t> datagram) override;
  std::optional<std::vector<std::uint8_t>> recv(
      std::chrono::milliseconds timeout) override;
  /// Faults act on send; recv passes through, so the inner link signals.
  bool set_wake(Wake wake) override {
    return inner_->set_wake(std::move(wake));
  }
  bool closed() const override;
  void close() override;
  std::string peer() const override;

 private:
  bool roll(double p);  ///< mu_ held

  std::unique_ptr<DatagramLink> inner_;
  DatagramFaultPlan plan_;
  mutable std::mutex mu_;
  std::uint64_t rng_;
  bool bad_state_ = false;
  std::uint64_t dropped_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t delivered_ = 0;
  std::optional<std::vector<std::uint8_t>> held_;  ///< reorder hold-back
};

}  // namespace adafl::net::transport
