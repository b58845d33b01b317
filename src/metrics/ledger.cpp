#include "metrics/ledger.h"

#include <algorithm>

#include "tensor/check.h"

namespace adafl::metrics {

void CommLedger::record_upload(int client_id, std::int64_t bytes,
                               bool delivered) {
  ADAFL_CHECK_MSG(bytes >= 0, "CommLedger: negative upload size");
  up_bytes_ += bytes;
  ++attempted_updates_;
  per_client_bytes_[client_id] += bytes;
  if (delivered) {
    ++delivered_updates_;
    ++per_client_updates_[client_id];
    if (min_update_bytes_ == 0 || bytes < min_update_bytes_)
      min_update_bytes_ = bytes;
    max_update_bytes_ = std::max(max_update_bytes_, bytes);
  }
}

void CommLedger::record_download(int client_id, std::int64_t bytes) {
  ADAFL_CHECK_MSG(bytes >= 0, "CommLedger: negative download size");
  (void)client_id;
  down_bytes_ += bytes;
}

void CommLedger::record_retransmit(int client_id, std::int64_t bytes) {
  ADAFL_CHECK_MSG(bytes >= 0, "CommLedger: negative retransmit size");
  (void)client_id;
  retrans_bytes_ += bytes;
}

void CommLedger::record_reconnect(int client_id) {
  ++reconnects_;
  ++per_client_reconnects_[client_id];
}

void CommLedger::record_recovery() { ++recoveries_; }

void CommLedger::record_fault() { ++faults_; }

std::int64_t CommLedger::reconnects_of(int client_id) const {
  auto it = per_client_reconnects_.find(client_id);
  return it == per_client_reconnects_.end() ? 0 : it->second;
}

std::int64_t CommLedger::upload_bytes_of(int client_id) const {
  auto it = per_client_bytes_.find(client_id);
  return it == per_client_bytes_.end() ? 0 : it->second;
}

std::int64_t CommLedger::updates_of(int client_id) const {
  auto it = per_client_updates_.find(client_id);
  return it == per_client_updates_.end() ? 0 : it->second;
}

double CommLedger::upload_cost_reduction(std::int64_t ideal_updates,
                                         std::int64_t dense_bytes) const {
  ADAFL_CHECK_MSG(ideal_updates > 0 && dense_bytes > 0,
                  "upload_cost_reduction: ideal schedule must be positive");
  const double ideal =
      static_cast<double>(ideal_updates) * static_cast<double>(dense_bytes);
  return 1.0 - static_cast<double>(up_bytes_) / ideal;
}

void CommLedger::reset() { *this = CommLedger(); }

}  // namespace adafl::metrics
