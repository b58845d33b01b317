#include "metrics/table.h"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "tensor/check.h"

namespace adafl::metrics {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  ADAFL_CHECK_MSG(!header_.empty(), "Table: empty header");
}

void Table::add_row(std::vector<std::string> row) {
  ADAFL_CHECK_MSG(row.size() == header_.size(),
                  "Table: row has " << row.size() << " cells, header has "
                                    << header_.size());
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c)
      width[c] = std::max(width[c], r[c].size());

  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(width[c])) << cells[c];
      if (c + 1 < cells.size()) os << "  ";
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c)
    total += width[c] + (c + 1 < width.size() ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& r : rows_) emit(r);
}

std::string fmt_pct(double fraction, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << fraction * 100.0 << '%';
  return os.str();
}

std::string fmt_bytes(std::int64_t bytes) {
  std::ostringstream os;
  const double b = static_cast<double>(bytes);
  if (bytes >= 1000000)
    os << std::fixed << std::setprecision(2) << b / 1e6 << "MB";
  else if (bytes >= 1000)
    os << std::fixed << std::setprecision(0) << b / 1e3 << "KB";
  else
    os << bytes << "B";
  return os.str();
}

std::string fmt_f(double v, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v;
  return os.str();
}

Table ledger_table(const CommLedger& ledger) {
  Table t({"metric", "value"});
  t.add_row({"upload", fmt_bytes(ledger.total_upload_bytes())});
  t.add_row({"download", fmt_bytes(ledger.total_download_bytes())});
  t.add_row({"retransmitted", fmt_bytes(ledger.total_retransmitted_bytes())});
  t.add_row({"delivered updates",
             std::to_string(ledger.delivered_updates())});
  t.add_row({"attempted updates",
             std::to_string(ledger.attempted_updates())});
  t.add_row({"reconnects", std::to_string(ledger.total_reconnects())});
  t.add_row({"recoveries", std::to_string(ledger.total_recoveries())});
  t.add_row({"injected faults", std::to_string(ledger.total_faults())});
  return t;
}

void write_csv(const std::string& path, const std::vector<std::string>& header,
               const std::vector<std::vector<std::string>>& rows) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("write_csv: cannot open " + path);
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) f << ',';
      f << cells[c];
    }
    f << '\n';
  };
  emit(header);
  for (const auto& r : rows) {
    ADAFL_CHECK_MSG(r.size() == header.size(), "write_csv: ragged row");
    emit(r);
  }
}

}  // namespace adafl::metrics
