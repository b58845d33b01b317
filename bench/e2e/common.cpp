#include "common.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "net/transport/crc32.h"
#include "tensor/dispatch.h"

namespace adafl::bench {

namespace {

std::atomic<int> g_threads_max{0};

std::string fmt_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  for (Metric& m : metrics)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics.push_back({name, value, unit});
}

void Result::note(const std::string& key, const std::string& value) {
  notes.push_back(key + "=" + value);
}

void Result::fail(const std::string& why) {
  correct = false;
  notes.push_back("error=" + why);
}

namespace {

std::set<std::string> open_sockets() {
  namespace fs = std::filesystem;
  std::set<std::string> out;
  std::error_code ec;
  for (fs::directory_iterator it("/proc/self/fd", ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code lec;
    const std::string target = fs::read_symlink(it->path(), lec).string();
    if (!lec && target.rfind("socket:", 0) == 0) out.insert(target);
  }
  return out;
}

}  // namespace

int check_budget() {
  namespace fs = std::filesystem;
  // Sockets inherited from the parent process are not the workload's.
  static const std::set<std::string> inherited = open_sockets();
  std::error_code ec;
  int threads = 0;
  for (fs::directory_iterator it("/proc/self/task", ec), end; !ec && it != end;
       it.increment(ec))
    ++threads;
  int seen = g_threads_max.load();
  while (threads > seen && !g_threads_max.compare_exchange_weak(seen, threads)) {
  }
  if (threads > kThreadBudget) {
    std::fprintf(stderr,
                 "adafl_bench: load budget exceeded: %d threads (budget %d)\n",
                 threads, kThreadBudget);
    std::_Exit(2);
  }
  for (const std::string& s : open_sockets())
    if (inherited.count(s) == 0) {
      std::fprintf(stderr, "adafl_bench: load budget exceeded: %s opened\n",
                   s.c_str());
      std::_Exit(2);
    }
  return threads;
}

int threads_max() { return g_threads_max.load(); }

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

void reset_peak_rss() {
  // Hand freed heap (the recording loop's clients) back first, so the mark
  // restarts from what the workload still holds.
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::uint32_t weights_crc(const std::vector<float>& w) {
  return net::transport::crc32(
      {reinterpret_cast<const std::uint8_t*>(w.data()), w.size() * 4});
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void set_round_metrics(Result& r, const std::vector<double>& round_s) {
  if (round_s.empty()) {
    r.fail("no timed rounds");
    return;
  }
  r.set("round_s_p50", quantile(round_s, 0.5), "s");
  r.set("round_s_p75", quantile(round_s, 0.75), "s");
  r.note("round_samples", std::to_string(round_s.size()));
  r.note("round_s_max", fmt_number(quantile(round_s, 1.0)));
}

std::string machine_json() {
  std::ostringstream o;
  o << "{\"cpu_features\": \"" << json_escape(tensor::cpu_feature_string())
    << "\", \"kernel_backend\": \"" << tensor::kernel_backend_name()
    << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << "}";
  return o.str();
}

void write_results_json(const std::string& path,
                        const std::vector<Result>& results) {
  std::ostringstream o;
  o << "[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    o << (i ? ",\n " : "\n ") << "{\"workload\": \"" << r.workload
      << "\", \"seed\": " << r.seed
      << ", \"traced\": " << (r.traced ? "true" : "false")
      << ", \"correct\": " << (r.correct ? "true" : "false")
      << ", \"valid\": " << (r.valid ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"machine\": " << machine_json() << ", \"metrics\": {";
    for (std::size_t j = 0; j < r.metrics.size(); ++j)
      o << (j ? ", " : "") << "\"" << r.metrics[j].name
        << "\": {\"value\": " << fmt_number(r.metrics[j].value)
        << ", \"unit\": \"" << r.metrics[j].unit << "\"}";
    o << "}, \"notes\": [";
    for (std::size_t j = 0; j < r.notes.size(); ++j)
      o << (j ? ", " : "") << "\"" << json_escape(r.notes[j]) << "\"";
    o << "]}";
  }
  o << "\n]\n";
  std::ofstream f(path);
  f << o.str();
  if (!f) throw std::runtime_error("cannot write " + path);
}

void print_result(const Result& r) {
  for (const Result::Metric& m : r.metrics)
    std::cout << r.workload << " " << m.name << " " << fmt_number(m.value)
              << " " << m.unit << "\n";
  for (const std::string& n : r.notes)
    std::cout << r.workload << " # " << n << "\n";
  std::cout << r.workload << " # correct=" << (r.correct ? "1" : "0")
            << " valid=" << (r.valid ? "1" : "0")
            << " attempted=" << r.attempted << " failed=" << r.failed
            << std::endl;
}

}  // namespace adafl::bench
