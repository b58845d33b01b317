#include "cli/report.h"

#include <chrono>
#include <cstdio>
#include <ostream>
#include <utility>

#include "metrics/table.h"
#include "tensor/dispatch.h"

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

RunOutputs::RunOutputs(const ArgParser& args, metrics::RunManifest manifest)
    : trace_path_(args.get("trace")),
      metrics_path_(args.get("metrics")),
      profile_(args.get_bool("profile")),
      phase_sink_(profile_ ? &registry_ : nullptr) {
  if (trace_path_.empty()) return;
  // The backend names which numerics produced this trace: same-backend
  // reruns are byte-identical, cross-backend comparisons are semantic-only
  // (see docs/protocols.md). Each peer names its own.
  manifest.config["kernel_backend"] = tensor::kernel_backend_name();
  tracer_.open(trace_path_, std::move(manifest));
  if (!metrics_path_.empty()) tracer_.attach_registry(&registry_);
}

void RunOutputs::observe_fec(net::transport::UdpFecConfig& fec) {
  udp_ = true;
  fec.stats = &fec_stats_;
  if (!tracer_.enabled()) return;
  // FEC events fire inside the datagram reassembler, which has no session
  // context, so they carry round 0 / client -1; trace_diff ignores them
  // with the other deployed-only transport events.
  metrics::Tracer* tr = &tracer_;
  auto since_t0 = [t0 = std::chrono::steady_clock::now()] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  fec.hooks.on_datagram_lost = [tr, since_t0](std::int64_t bytes) {
    tr->record(metrics::ev_datagram_lost(0, -1, bytes, since_t0()));
  };
  fec.hooks.on_fec_repair = [tr, since_t0](int /*shards*/,
                                           std::int64_t bytes) {
    tr->record(metrics::ev_fec_repair(0, -1, bytes, since_t0()));
  };
}

void RunOutputs::write(std::ostream& os, const metrics::CommLedger* ledger) {
  if (tracer_.enabled()) {
    tracer_.close();
    os << "wrote " << trace_path_ << " (" << tracer_.events_recorded()
       << " events)" << std::endl;
  }
  if (metrics_path_.empty()) return;
  if (ledger != nullptr) registry_.export_ledger(*ledger);
  if (udp_) {
    // Parity bytes are not part of the directional upload/download totals
    // (those stay comparable with the simulators and TCP): they are the
    // explicit price of zero-round-trip loss tolerance.
    const std::pair<const char*, std::int64_t> fec[] = {
        {"comm.parity_overhead_bytes", fec_stats_.parity_bytes.load()},
        {"comm.datagrams_sent", fec_stats_.datagrams_sent.load()},
        {"comm.datagrams_lost", fec_stats_.datagrams_lost.load()},
        {"comm.datagrams_repaired", fec_stats_.datagrams_repaired.load()},
        {"comm.unrecoverable_generations",
         fec_stats_.unrecoverable_generations.load()},
    };
    for (const auto& [name, value] : fec) registry_.counter(name).add(value);
  }
  registry_
      .gauge(std::string("kernel.backend.") + tensor::kernel_backend_name())
      .set(1.0);
  registry_.gauge("kernel.cpu.avx2")
      .set(tensor::cpu_supports_avx2() ? 1.0 : 0.0);
  registry_.write_json(metrics_path_);
  os << "wrote " << metrics_path_ << std::endl;
}

void RunOutputs::print_footer(std::ostream& os) const {
  if (udp_)
    os << "udp-fec: datagrams-sent=" << fec_stats_.datagrams_sent.load()
       << " datagrams-lost=" << fec_stats_.datagrams_lost.load()
       << " datagrams-repaired=" << fec_stats_.datagrams_repaired.load()
       << " unrecoverable-generations="
       << fec_stats_.unrecoverable_generations.load()
       << " parity-bytes=" << fec_stats_.parity_bytes.load() << std::endl;
  if (!profile_) return;
  const std::vector<metrics::Registry::Phase> phases = registry_.phases();
  if (phases.empty()) return;
  os << "\n--- profile (wall seconds + tensor heap allocations) ---\n";
  metrics::Table table({"phase", "calls", "seconds", "tensor-allocs"});
  for (const auto& p : phases)
    table.add_row({p.name, std::to_string(p.calls),
                   metrics::fmt_f(p.ms / 1000.0, 4),
                   std::to_string(p.tensor_allocs)});
  table.print(os);
}

}  // namespace adafl::cli
