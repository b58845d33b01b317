#include "metrics/registry.h"

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "metrics/ledger.h"
#include "tensor/check.h"
#include "tensor/tensor.h"

namespace adafl::metrics {

namespace {

void append_f64(std::string& out, double v) {
  char buf[32];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

void append_key(std::string& out, const std::string& name, bool& first) {
  if (!first) out += ',';
  first = false;
  out += '"';
  out += name;  // instrument names are code-controlled: no escaping needed
  out += "\":";
}

// The registry PhaseScopes record into (PhaseSink), or none.
std::atomic<Registry*> g_phase_sink{nullptr};

constexpr const char* kPhasePrefix = "profile.";
constexpr const char* kPhaseMsSuffix = "_ms";
constexpr const char* kPhaseAllocsSuffix = ".tensor_allocs";

}  // namespace

void Histogram::observe(double v) {
  ADAFL_CHECK_MSG(std::isfinite(v) && v >= 0.0,
                  "histogram: observation must be finite and >= 0, got "
                      << v);
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
  int b = 0;
  if (v >= 1.0) {
    b = std::ilogb(v) + 1;
    if (b >= kBuckets) b = kBuckets - 1;
  }
  ++buckets_[b];
}

double Histogram::percentile(double p) const {
  ADAFL_CHECK_MSG(std::isfinite(p) && p >= 0.0 && p <= 1.0,
                  "histogram: percentile p must be in [0,1], got " << p);
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return min();
  if (p >= 1.0) return max();
  // Rank of the target observation (1-based), then walk the buckets.
  const double rank = p * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const std::uint64_t next = seen + buckets_[b];
    if (static_cast<double>(next) >= rank) {
      // Log-interpolate within [lo, hi) = [2^(b-1), 2^b), clamped to the
      // exact observed range so the estimate never leaves [min, max].
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
      const double hi = std::ldexp(1.0, b);
      const double frac =
          (rank - static_cast<double>(seen)) /
          static_cast<double>(buckets_[b]);
      double est = lo + (hi - lo) * frac;
      if (est < min_) est = min_;
      if (est > max_) est = max_;
      return est;
    }
    seen = next;
  }
  return max();
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return counter_locked(name);
}

Counter& Registry::counter_locked(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return histogram_locked(name);
}

Histogram& Registry::histogram_locked(const std::string& name) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void Registry::export_ledger(const CommLedger& ledger) {
  struct Item {
    const char* name;
    std::int64_t value;
  };
  const Item items[] = {
      {"comm.upload_bytes", ledger.total_upload_bytes()},
      {"comm.download_bytes", ledger.total_download_bytes()},
      {"comm.retransmitted_bytes", ledger.total_retransmitted_bytes()},
      {"comm.reconnects", ledger.total_reconnects()},
      {"comm.recoveries", ledger.total_recoveries()},
      {"comm.injected_faults", ledger.total_faults()},
      {"comm.delivered_updates", ledger.delivered_updates()},
      {"comm.attempted_updates", ledger.attempted_updates()},
  };
  for (const Item& it : items) {
    Counter& c = counter(it.name);
    c.add(it.value - c.value());  // idempotent re-export
  }
  gauge("comm.min_update_bytes")
      .set(static_cast<double>(ledger.min_update_bytes()));
  gauge("comm.max_update_bytes")
      .set(static_cast<double>(ledger.max_update_bytes()));
}

void Registry::record_phase(const std::string& phase, double ms,
                            std::uint64_t tensor_allocs) {
  const std::string base = kPhasePrefix + phase;
  std::lock_guard<std::mutex> lock(mu_);
  histogram_locked(base + kPhaseMsSuffix).observe(ms);
  counter_locked(base + kPhaseAllocsSuffix)
      .add(static_cast<std::int64_t>(tensor_allocs));
}

std::vector<Registry::Phase> Registry::phases() const {
  const std::string prefix = kPhasePrefix;
  const std::string suffix = kPhaseMsSuffix;
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Phase> out;
  for (auto it = histograms_.lower_bound(prefix);
       it != histograms_.end() && it->first.starts_with(prefix); ++it) {
    const std::string& key = it->first;
    if (!key.ends_with(suffix)) continue;
    Phase p;
    p.name = key.substr(prefix.size(),
                        key.size() - prefix.size() - suffix.size());
    p.calls = it->second->count();
    p.ms = it->second->sum();
    const auto allocs = counters_.find(prefix + p.name + kPhaseAllocsSuffix);
    if (allocs != counters_.end()) p.tensor_allocs = allocs->second->value();
    out.push_back(std::move(p));
  }
  return out;
}

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    append_key(out, name, first);
    append_i64(out, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    append_key(out, name, first);
    append_f64(out, g->value());
  }
  for (const auto& [name, h] : histograms_) {
    append_key(out, name, first);
    out += "{\"count\":";
    append_u64(out, h->count());
    out += ",\"sum\":";
    append_f64(out, h->sum());
    out += ",\"min\":";
    append_f64(out, h->min());
    out += ",\"max\":";
    append_f64(out, h->max());
    out += ",\"buckets\":[";
    int last = Histogram::kBuckets - 1;
    while (last > 0 && h->buckets()[last] == 0) --last;
    for (int i = 0; i <= last; ++i) {
      if (i != 0) out += ',';
      append_u64(out, h->buckets()[i]);
    }
    out += "]}";
  }
  out += '}';
  return out;
}

void Registry::write_json(const std::string& path) const {
  const std::string doc = to_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    throw std::runtime_error("metrics: cannot open '" + path +
                             "' for writing");
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

PhaseSink::PhaseSink(Registry* registry)
    : previous_(g_phase_sink.exchange(registry)) {}

PhaseSink::~PhaseSink() { g_phase_sink.store(previous_); }

PhaseScope::PhaseScope(const char* phase)
    : phase_(phase), registry_(g_phase_sink.load()) {
  if (registry_ == nullptr) return;
  start_allocs_ = tensor::tensor_allocations();
  start_ = std::chrono::steady_clock::now();
}

PhaseScope::~PhaseScope() {
  if (registry_ == nullptr) return;
  const std::chrono::duration<double, std::milli> ms =
      std::chrono::steady_clock::now() - start_;
  registry_->record_phase(phase_, ms.count(),
                          tensor::tensor_allocations() - start_allocs_);
}

}  // namespace adafl::metrics
