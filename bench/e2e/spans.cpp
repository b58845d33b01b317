#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <stdexcept>

namespace adafl::bench {

namespace {

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Spans kept in memory; later ones are counted as dropped, not stored.
constexpr std::size_t kSpanCapacity = 400000;

}  // namespace

SpanLog::SpanLog() : t0_(Clock::now()) {}

int SpanLog::open(const char* name, int round, int parent) {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kSpanCapacity) {
    dropped_.fetch_add(1);
    return -1;
  }
  spans_.push_back({name, now, now, parent, round, thread_index()});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int id) {
  if (id < 0) return;
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

void SpanLog::add(const char* name, Clock::time_point start,
                  Clock::time_point end, int round, int parent) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kSpanCapacity) {
    dropped_.fetch_add(1);
    return;
  }
  spans_.push_back({name, start, end, parent, round, thread_index()});
}

std::map<std::string, SpanLog::Stat> SpanLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] +=
          1e-6 * static_cast<double>(ns_between(s.start, s.end));
  std::map<std::string, Stat> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double ms =
        1e-6 * static_cast<double>(ns_between(spans_[i].start, spans_[i].end));
    Stat& st = out[spans_[i].name];
    ++st.count;
    st.total_ms += ms;
    st.self_ms += ms - child_ms[i];
  }
  return out;
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  std::lock_guard<std::mutex> lock(mu_);
  f << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, "
        "\"round\": %d}}",
        i ? "," : "", s.name, s.tid,
        1e-3 * static_cast<double>(ns_between(t0_, s.start)),
        1e-3 * static_cast<double>(ns_between(s.start, s.end)), i, s.parent,
        s.round);
    f << buf;
  }
  f << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped_spans\": "
    << dropped_.load() << "}}\n";
  if (!f) throw std::runtime_error("cannot write " + path);
}

void SpanLog::print_self_times() const {
  auto all = stats();
  std::vector<std::pair<std::string, Stat>> rows(all.begin(), all.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::cout << std::left << std::setw(28) << "span" << std::right
            << std::setw(10) << "count" << std::setw(14) << "total_ms"
            << std::setw(14) << "self_ms" << "\n";
  for (const auto& [name, st] : rows)
    std::cout << std::left << std::setw(28) << name << std::right
              << std::setw(10) << st.count << std::setw(14) << std::fixed
              << std::setprecision(2) << st.total_ms << std::setw(14)
              << st.self_ms << "\n";
  std::cout.unsetf(std::ios::floatfield);
  std::cout << std::setprecision(6);
  if (dropped_.load() > 0)
    std::cout << "(span log full: " << dropped_.load() << " spans dropped)\n";
}

std::atomic<bool>& in_situ_tracing() {
  static std::atomic<bool> on{false};
  return on;
}

TimedTransport::TimedTransport(
    std::unique_ptr<net::transport::Transport> inner,
    TransportCounters* counters, SpanLog* spans)
    : inner_(std::move(inner)), counters_(counters), spans_(spans) {}

bool TimedTransport::send(const net::transport::Frame& f) {
  if (!in_situ_tracing().load(std::memory_order_relaxed))
    return inner_->send(f);
  const auto t0 = Clock::now();
  const bool ok = inner_->send(f);
  const auto t1 = Clock::now();
  counters_->send_ns.fetch_add(ns_between(t0, t1));
  counters_->send_frames.fetch_add(1);
  counters_->send_bytes.fetch_add(static_cast<std::int64_t>(f.wire_size()));
  spans_->add("transport.send", t0, t1, static_cast<int>(f.round));
  return ok;
}

std::optional<net::transport::Frame> TimedTransport::recv(
    std::chrono::milliseconds timeout) {
  if (!in_situ_tracing().load(std::memory_order_relaxed))
    return inner_->recv(timeout);
  const auto t0 = Clock::now();
  auto f = inner_->recv(timeout);
  const auto t1 = Clock::now();
  counters_->recv_ns.fetch_add(ns_between(t0, t1));
  counters_->recv_calls.fetch_add(1);
  if (f) {
    counters_->recv_frames.fetch_add(1);
    if (f->type == net::transport::MsgType::kUpdateAgg)
      counters_->agg_frames.fetch_add(1);
    spans_->add("transport.recv", t0, t1, static_cast<int>(f->round));
  }
  return f;
}

CountingDatagramLink::CountingDatagramLink(
    std::unique_ptr<net::transport::DatagramLink> inner,
    std::atomic<std::int64_t>* sent_bytes,
    std::atomic<std::int64_t>* recv_bytes)
    : inner_(std::move(inner)), sent_(sent_bytes), recv_(recv_bytes) {}

bool CountingDatagramLink::send(std::span<const std::uint8_t> datagram) {
  sent_->fetch_add(static_cast<std::int64_t>(datagram.size()),
                   std::memory_order_relaxed);
  return inner_->send(datagram);
}

std::optional<std::vector<std::uint8_t>> CountingDatagramLink::recv(
    std::chrono::milliseconds timeout) {
  auto d = inner_->recv(timeout);
  if (d)
    recv_->fetch_add(static_cast<std::int64_t>(d->size()),
                     std::memory_order_relaxed);
  return d;
}

}  // namespace adafl::bench
