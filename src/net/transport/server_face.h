// The serving side of every role, free of I/O: the one implementation of how
// a server looks after the leaves under it. ServerSession (the root) and
// RelaySession's child side both run a ServerFace over their leaf-id range
// [base, base + count); it runs on an injected clock and never sends.
//
// Routes. A leaf is reached over its own connection (HELLO) or through a
// range binding (RELAY_HELLO from a relay or sub-relay) that announces, per
// leaf, which of its leaves are alive. A re-HELLO or an overlapping
// RELAY_HELLO supersedes the old route: bind() returns the superseded
// connections for the caller to close, and unbind() returns the leaves that
// lost their last live route (a relay reports them upward as CHILD_GONE).
//
// Round debts. Per leaf: scored, selected (with its ratio) and delivered. A
// round opens in its score phase; the caller closes it (the root after
// selection, a relay at its parent's first SELECT or SKIP). A leaf owes an
// update while it is selected and undelivered.
//
// Catch-up and nudge: the server's policy, for every role.
//  - A bound leaf gets WELCOME, then MODEL if the score phase is open and it
//    has not scored, otherwise a SELECT if it owes an update.
//  - A bound range gets WELCOME, the round's MODEL, and a SELECT for every
//    leaf in it that owes one.
//  - A nudge applies the same rules over live routes only, with one MODEL
//    per range that has a live unscored leaf. It fires retransmit_nudge
//    after a phase opens, then after twice the previous gap; the backoff
//    restarts at every phase, and a gap <= 0 turns nudges off.
//
// Output. Operations queue Sends; the caller takes them, builds the frames
// and books the bytes. Nothing here depends on which role runs the face:
// the roles differ only in their range and in when the score phase closes.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "net/transport/transport.h"

namespace adafl::net::transport {

struct ServerFaceConfig {
  /// Leaf ids served: [base, base + count).
  int base = 0;
  int count = 0;
  /// First nudge gap of a phase; doubles after each firing. <= 0 disables.
  std::chrono::milliseconds retransmit_nudge{2000};
};

class ServerFace {
 public:
  using Clock = std::chrono::steady_clock;
  using ClockFn = std::function<Clock::time_point()>;

  enum class Phase : std::uint8_t { kScore, kUpdate };
  enum class Kind : std::uint8_t { kWelcome, kModel, kSelect };

  /// One frame for the caller to build and send.
  struct Send {
    ConnId conn = kNoConn;
    Kind kind = Kind::kWelcome;
    /// The leaf the frame serves; a range's base for its WELCOME and MODEL.
    int leaf = 0;
    /// A MODEL this leaf or range already got this round, or any SELECT
    /// (the caller sends the first SELECT itself).
    bool resend = false;
  };

  /// A validated HELLO (one leaf) or RELAY_HELLO (a range) claim.
  struct Claim {
    int base = 0;
    int count = 1;
    bool range = false;
    bool covers(std::uint32_t id) const {
      return id >= static_cast<std::uint32_t>(base) &&
             id - static_cast<std::uint32_t>(base) <
                 static_cast<std::uint32_t>(count);
    }
  };

  explicit ServerFace(ServerFaceConfig cfg, ClockFn clock = &Clock::now);

  /// True when leaf `id` is in this face's range.
  bool contains(std::uint32_t id) const { return range_.covers(id); }

  /// Checks a connection's first frame: a HELLO with the protocol version
  /// and a leaf id in range, or a RELAY_HELLO with the protocol version and
  /// a range inside this face aligned to `agg_group` (> 0). Throws
  /// CheckError on anything else.
  Claim check_hello(const Frame& f, int agg_group) const;

  // --- Routes. -----------------------------------------------------------
  /// Binds the unbound `conn` to `claim` and queues its catch-up. A range
  /// starts with none of its leaves alive. Returns the connections the
  /// binding superseded; the caller closes them and then unbinds them.
  std::vector<ConnId> bind(ConnId conn, const Claim& claim);
  /// Forgets `conn`'s binding, keeping the round's debts. Returns the leaves
  /// that were live and no longer are. No-op for an unbound connection.
  std::vector<int> unbind(ConnId conn);
  /// `conn`'s binding, or nullptr when it has none.
  const Claim* binding(ConnId conn) const;
  /// Marks a leaf behind a range alive (proof of life) or gone.
  void set_alive(int leaf, bool alive) { at(leaf).alive = alive; }
  /// A leaf announced alive behind a range (a relayed HELLO): marks it alive
  /// and queues the SELECT it owes.
  void announce(int leaf);
  /// The leaf's own connection, or kNoConn.
  ConnId direct(int leaf) const { return at(leaf).direct; }
  /// The leaf's own connection, else the range covering it, else kNoConn.
  ConnId route(int leaf) const { return at(leaf).route(); }
  /// True with a direct route, or a range route that announced the leaf.
  bool live(int leaf) const { return at(leaf).live(); }
  /// Every bound connection: leaves first, ascending, then ranges.
  std::vector<ConnId> conns() const;

  // --- Round debts. ------------------------------------------------------
  /// Opens round `round` (>= 1) in its score phase, forgetting the previous
  /// round's debts, and queues the round's MODEL on every binding.
  void begin_round(int round);
  /// Closes the score phase; no-op when it is already closed.
  void close_scores();
  void score(int leaf) { scored_[index(leaf)] = true; }
  void select(int leaf, double ratio);
  void deliver(int leaf);

  int round() const { return round_; }
  Phase phase() const { return phase_; }
  bool scored(int leaf) const { return scored_[index(leaf)]; }
  /// Scored flags of the whole range, indexed by leaf - base.
  const std::vector<bool>& scored_flags() const { return scored_; }
  bool selected(int leaf) const { return at(leaf).selected; }
  /// The selected leaf's compression ratio.
  double ratio(int leaf) const { return at(leaf).ratio; }
  bool delivered(int leaf) const { return at(leaf).delivered; }
  int delivered_count() const { return delivered_count_; }
  bool owes_update(int leaf) const { return owes(at(leaf)); }

  // --- Catch-up and nudge. -----------------------------------------------
  /// Queues the MODELs owed while the score phase is open: one per unscored
  /// leaf with a direct route, one per range with a live unscored leaf.
  void resend_models();
  /// Fires the nudge when it is due: the owed MODELs and the owed SELECTs
  /// over live routes, then doubles the gap.
  void poll();

  /// The queued sends, oldest first.
  std::vector<Send> take_sends();

 private:
  /// One leaf's routes and round debts (scored_ is kept apart, in the form
  /// selection takes).
  struct Leaf {
    ConnId direct = kNoConn;
    ConnId range = kNoConn;  ///< the range binding covering it
    bool alive = false;      ///< announced alive behind its range
    char model_sent = 0;     ///< its own connection got the round's MODEL
    bool selected = false;
    bool delivered = false;
    double ratio = 0.0;
    ConnId route() const { return direct != kNoConn ? direct : range; }
    bool live() const {
      return direct != kNoConn || (range != kNoConn && alive);
    }
  };
  struct Binding {
    Claim claim;
    char model_sent = 0;  ///< a range's MODEL went out this round
  };

  std::size_t index(int leaf) const {
    return static_cast<std::size_t>(leaf - range_.base);
  }
  Leaf& at(int leaf) { return leaves_[index(leaf)]; }
  const Leaf& at(int leaf) const { return leaves_[index(leaf)]; }
  bool owes(const Leaf& l) const {
    return phase_ == Phase::kUpdate && l.selected && !l.delivered;
  }
  /// Queues a MODEL, a resend when `sent` is set, and sets it.
  void queue_model(ConnId conn, int leaf, char& sent);
  void queue_select(int leaf);
  void restart_nudges();

  Claim range_;  ///< this face's leaves
  std::chrono::milliseconds retransmit_nudge_;
  ClockFn clock_;

  std::map<ConnId, Binding> bindings_;
  std::vector<Leaf> leaves_;  ///< indexed by leaf - base
  std::vector<bool> scored_;  ///< likewise

  int round_ = 0;  ///< 0 until the first round opens
  Phase phase_ = Phase::kScore;
  int delivered_count_ = 0;
  std::chrono::milliseconds nudge_gap_{0};
  Clock::time_point next_nudge_{};
  std::vector<Send> sends_;
};

}  // namespace adafl::net::transport
