// End-of-run reporting shared by the binaries: the accuracy report (flsim,
// flserver) and the --trace/--metrics/--profile outputs (flsim, flserver,
// flclient).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cli/args.h"
#include "fl/types.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "net/transport/udp.h"

namespace adafl::cli {

/// Prints the end of a run's report: an "interrupted: 1" notice if the run
/// stopped early (telling it to resume only if `checkpoint_written`), a
/// metric/value table of the final and best test accuracy followed by
/// `rows`, and the machine-readable "final-accuracy:" line the soak scripts
/// read. A run stopped before its first evaluated round has no accuracy to
/// report (its log has no records); the accuracy rows and line are then
/// left out, so such a run reports and exits like any other early stop.
void print_run_report(std::ostream& os, const fl::TrainLog& log,
                      bool checkpoint_written,
                      std::vector<std::vector<std::string>> rows);

/// A binary's --trace, --metrics and --profile outputs, built once the
/// flags have parsed and the kernel backend is set. Construction opens the
/// trace (its manifest gains the kernel backend), counts trace events into
/// the registry when --metrics is also set, and with --profile attaches the
/// registry as the process-wide phase sink until destruction. The binary
/// declares the transports that feed observe_fec() after this object.
class RunOutputs {
 public:
  RunOutputs(const ArgParser& args, metrics::RunManifest manifest);

  /// The trace, or nullptr without --trace.
  metrics::Tracer* tracer() { return tracer_.enabled() ? &tracer_ : nullptr; }
  /// The registry, or nullptr without --metrics.
  metrics::Registry* registry() {
    return metrics_path_.empty() ? nullptr : &registry_;
  }

  /// Makes this a UDP run: `fec` counts its datagrams here and, when
  /// tracing, records lost-datagram and repair events.
  void observe_fec(net::transport::UdpFecConfig& fec);

  /// Closes the trace and writes --metrics: `ledger`'s projection (when
  /// given), the FEC counters (UDP runs) and the kernel gauges. Prints a
  /// "wrote" line per file.
  void write(std::ostream& os, const metrics::CommLedger* ledger);

  /// Prints the "udp-fec:" line (UDP runs) and, with --profile, the phase
  /// table.
  void print_footer(std::ostream& os) const;

 private:
  std::string trace_path_;
  std::string metrics_path_;
  metrics::Tracer tracer_;
  metrics::Registry registry_;
  bool profile_;
  metrics::PhaseSink phase_sink_;  // after registry_: detaches before it dies
  net::transport::FecStats fec_stats_;
  bool udp_ = false;
};

}  // namespace adafl::cli
