// Communication-cost ledger: every byte a protocol puts on the wire is
// recorded here, so Tables I/II cost columns come from actual accounting
// rather than analytical estimates.
#pragma once

#include <cstdint>
#include <map>

namespace adafl::metrics {

/// Per-direction traffic counters for one FL run.
class CommLedger {
 public:
  /// Records a client->server update transmission. `delivered` = false means
  /// the bytes were sent but lost (they still consumed client bandwidth).
  void record_upload(int client_id, std::int64_t bytes, bool delivered);

  /// Records a server->client model broadcast leg.
  void record_download(int client_id, std::int64_t bytes);

  /// Records bytes that had to be RE-sent because a connection dropped and
  /// was re-established mid-round (deployed transport only; the simulators
  /// never retransmit). Retransmitted bytes also count toward the
  /// directional totals via record_upload/record_download at the re-send
  /// site; this counter isolates the resilience overhead.
  void record_retransmit(int client_id, std::int64_t bytes);

  /// Records one successful reconnect of a previously-joined client.
  void record_reconnect(int client_id);

  /// Records one crash recovery: the run resumed from a durable checkpoint
  /// instead of restarting at round 1.
  void record_recovery();

  /// Records one injected transport fault (chaos runs; FaultyTransport).
  void record_fault();

  std::int64_t total_upload_bytes() const { return up_bytes_; }
  std::int64_t total_download_bytes() const { return down_bytes_; }
  std::int64_t total_bytes() const { return up_bytes_ + down_bytes_; }
  std::int64_t total_retransmitted_bytes() const { return retrans_bytes_; }
  std::int64_t total_reconnects() const { return reconnects_; }
  std::int64_t total_recoveries() const { return recoveries_; }
  std::int64_t total_faults() const { return faults_; }
  std::int64_t reconnects_of(int client_id) const;

  /// Number of *delivered* client->server updates (the paper's
  /// "update frequency" column).
  std::int64_t delivered_updates() const { return delivered_updates_; }
  std::int64_t attempted_updates() const { return attempted_updates_; }

  std::int64_t upload_bytes_of(int client_id) const;
  std::int64_t updates_of(int client_id) const;

  /// Paper-style cost reduction versus an ideal schedule of
  /// `ideal_updates` dense uploads of `dense_bytes` each:
  ///   1 - total_upload_bytes / (ideal_updates * dense_bytes).
  double upload_cost_reduction(std::int64_t ideal_updates,
                               std::int64_t dense_bytes) const;

  /// Smallest / largest delivered update payloads (Tables' "gradient size").
  std::int64_t min_update_bytes() const { return min_update_bytes_; }
  std::int64_t max_update_bytes() const { return max_update_bytes_; }

  void reset();

 private:
  std::int64_t up_bytes_ = 0;
  std::int64_t down_bytes_ = 0;
  std::int64_t retrans_bytes_ = 0;
  std::int64_t reconnects_ = 0;
  std::int64_t recoveries_ = 0;
  std::int64_t faults_ = 0;
  std::int64_t delivered_updates_ = 0;
  std::int64_t attempted_updates_ = 0;
  std::int64_t min_update_bytes_ = 0;
  std::int64_t max_update_bytes_ = 0;
  std::map<int, std::int64_t> per_client_bytes_;
  std::map<int, std::int64_t> per_client_updates_;
  std::map<int, std::int64_t> per_client_reconnects_;
};

}  // namespace adafl::metrics
