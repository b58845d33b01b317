// Shared plumbing of adafl_bench: options, the per-workload result record,
// clocks, the load-budget guard, and small statistics helpers.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace adafl::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options of one workload run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed section at the reference speed (see rounds_for).
  double seconds = 20.0;
  bool smoke = false;
  /// Non-empty: traced run; the Chrome trace is written into this directory.
  std::string trace_dir;
  bool traced() const { return !trace_dir.empty(); }
};

/// Untimed rounds every workload runs before its timed ones.
constexpr int kWarmRounds = 2;

/// Threads one workload may use in total (session, pool, relays, drivers).
constexpr int kThreadBudget = 4;

/// One workload's outcome: metrics by name plus the verdicts the runner
/// turns into the benchmark's result line.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  bool correct = true;
  /// False when the load generator, not the system under test, set the
  /// pace (some driver busier than kMaxDriverBusyShare).
  bool valid = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Free-form "key=value" facts printed beside the metrics (sample counts,
  /// script size, CRCs).
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, const std::string& value);
  /// Marks the run incorrect and records why.
  void fail(const std::string& why);
};

constexpr double kMaxDriverBusyShare = 0.8;

/// Load-budget guard: exits the process with code 2 when more than
/// kThreadBudget threads exist or any socket is open. Returns the thread
/// count it saw. Thread-safe.
int check_budget();

/// Highest thread count check_budget() has seen in this process.
int threads_max();

/// CPU seconds consumed on a CPU-time clock (e.g. another thread's).
double cpu_clock_s(clockid_t clock);
/// CPU seconds used by the whole process.
double process_cpu_s();

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
void reset_peak_rss();
/// VmHWM in MiB.
double peak_rss_mb();

/// CRC-32 of the raw bytes of a weight vector (flsim's weights-crc32).
std::uint32_t weights_crc(const std::vector<float>& w);
std::string hex32(std::uint32_t v);

/// v / n, or 0 when nothing was counted (n = 0).
inline double per(double v, double n) { return n > 0 ? v / n : 0.0; }

/// Linear-interpolation quantile (q in [0,1]) of a non-empty sample.
double quantile(std::vector<double> v, double q);

/// Median of per-round durations, in seconds, plus the upper percentile
/// reported beside it.
void set_round_metrics(Result& r, const std::vector<double>& round_s);

/// Machine stamp recorded with every result: CPU features, kernel backend,
/// online CPUs.
std::string machine_json();

/// Writes `results` as a JSON array to `path` (throws on I/O failure).
void write_results_json(const std::string& path,
                        const std::vector<Result>& results);
/// Prints "workload metric value unit" lines plus notes.
void print_result(const Result& r);

}  // namespace adafl::bench
