// Metrics registry: the one store for a run's runtime measurements, and
// its one named export surface. Phase timings land here directly
// (PhaseScope); the CommLedger's per-run cost record is projected in by
// export_ledger(), so a run can dump *all* of its numbers — transport,
// compute, tracing — as one flat, sorted, machine-readable JSON document
// (`--metrics=<path>`).
//
// Three instrument kinds:
//   Counter   — monotonically increasing int64 (events, bytes)
//   Gauge     — last-set double (current round, config values)
//   Histogram — log2-bucketed distribution + count/sum/min/max
//
// Instruments are created on first use and live for the registry's
// lifetime; the handles returned by counter()/gauge()/histogram() stay
// valid and are cheap to update (no lookup after creation). Registration
// is mutex-guarded; updates through a handle are plain stores/adds — the
// callers are coarse-grained (per round / per frame), not per-kernel.
// record_phase() updates under the mutex, so phase scopes may record from
// any thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace adafl::metrics {

class CommLedger;

/// Monotonic int64 counter.
class Counter {
 public:
  void add(std::int64_t delta) { value_ += delta; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Last-written double value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Log2-bucketed histogram of non-negative observations. Bucket i counts
/// observations in [2^(i-1), 2^i) with bucket 0 holding [0, 1); exact
/// count/sum/min/max ride along so no information is lost to bucketing
/// for the summary statistics that matter.
class Histogram {
 public:
  static constexpr int kBuckets = 48;

  void observe(double v);

  /// Estimated p-quantile (p in [0,1]) from the log2 buckets: finds the
  /// bucket holding the p-th observation and log-interpolates within it.
  /// Exact min/max anchor the tails (percentile(0) == min(),
  /// percentile(1) == max()); returns 0 when empty. Estimation error is
  /// bounded by the bucket's 2x width — plenty for latency reporting
  /// (p50/p99 dashboards), not for arithmetic.
  double percentile(double p) const;

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  const std::uint64_t* buckets() const { return buckets_; }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t buckets_[kBuckets] = {};
};

/// Named instrument store. Lookup creates on miss; names are unique per
/// kind and may not be reused across kinds.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Projects a CommLedger's totals into "comm.*" counters (overwriting
  /// any previous export). Call once at end of run.
  void export_ledger(const CommLedger& ledger);

  /// Adds one execution of `phase` under the registry's lock: `ms` of wall
  /// time to histogram "profile.<phase>_ms" (its count is the call count)
  /// and `tensor_allocs` to counter "profile.<phase>.tensor_allocs".
  void record_phase(const std::string& phase, double ms,
                    std::uint64_t tensor_allocs);

  /// Totals of one phase recorded by record_phase().
  struct Phase {
    std::string name;
    std::uint64_t calls = 0;
    double ms = 0.0;
    std::int64_t tensor_allocs = 0;
  };
  /// Every recorded phase, in name order.
  std::vector<Phase> phases() const;

  /// All instruments as one flat JSON object, keys sorted (deterministic).
  /// Histograms render as {"count":..,"sum":..,"min":..,"max":..,
  /// "buckets":[..]} with trailing zero buckets trimmed.
  std::string to_json() const;

  /// Writes to_json() + newline to `path`. Throws std::runtime_error if
  /// the file cannot be written.
  void write_json(const std::string& path) const;

 private:
  Counter& counter_locked(const std::string& name);
  Histogram& histogram_locked(const std::string& name);

  mutable std::mutex mu_;
  // node-stable maps: handles returned above must survive future inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Attaches a registry as the process-wide sink of PhaseScope measurements
/// for the guard's lifetime, and restores the previous sink (normally none)
/// on destruction, so every exit path detaches. A null registry leaves no
/// sink attached.
class PhaseSink {
 public:
  explicit PhaseSink(Registry* registry);
  ~PhaseSink();
  PhaseSink(const PhaseSink&) = delete;
  PhaseSink& operator=(const PhaseSink&) = delete;

 private:
  Registry* previous_;
};

/// RAII measurement of one phase execution (client training, compression,
/// aggregation, evaluation, ...): wall time plus the number of tensor heap
/// allocations (tensor::tensor_allocations()) made inside the scope, so a
/// profile shows both where time goes and whether the steady state stays
/// allocation-free. Recorded into the attached PhaseSink's registry on
/// destruction; with no sink attached a scope is one atomic load and reads
/// no clock. `phase` must outlive the scope (string literals only).
class PhaseScope {
 public:
  explicit PhaseScope(const char* phase);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  const char* phase_;
  Registry* registry_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t start_allocs_ = 0;
};

}  // namespace adafl::metrics
