#include "cli/report.h"

#include <cstdio>
#include <ostream>

#include "metrics/table.h"

namespace adafl::cli {

void print_run_report(std::ostream& os, const fl::TrainLog& log,
                      bool checkpoint_written,
                      std::vector<std::vector<std::string>> rows) {
  if (log.interrupted)
    os << (checkpoint_written
               ? "interrupted: 1 (checkpoint written; rerun with --resume=1 "
                 "to continue)\n"
               : "interrupted: 1 (no checkpoint configured; the run cannot "
                 "be resumed)\n");
  const bool evaluated = !log.records.empty();
  metrics::Table table({"metric", "value"});
  if (evaluated) {
    table.add_row({"final accuracy", metrics::fmt_pct(log.final_accuracy())});
    table.add_row({"best accuracy", metrics::fmt_pct(log.best_accuracy())});
  }
  for (auto& row : rows) table.add_row(std::move(row));
  table.print(os);
  if (evaluated) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", log.final_accuracy());
    os << "final-accuracy: " << buf << "\n";
  }
}

}  // namespace adafl::cli
