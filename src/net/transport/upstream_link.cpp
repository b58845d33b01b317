#include "net/transport/upstream_link.h"

#include <algorithm>

#include "metrics/trace.h"
#include "tensor/check.h"

namespace adafl::net::transport {

UpstreamLink::UpstreamLink(UpstreamLinkConfig cfg, DialFn dial,
                           std::size_t endpoint_count, ClockFn clock)
    : cfg_(cfg),
      dial_(std::move(dial)),
      endpoint_count_(endpoint_count),
      clock_(std::move(clock)) {
  ADAFL_CHECK_MSG(dial_ != nullptr && clock_ != nullptr,
                  "UpstreamLink: null callback");
  ADAFL_CHECK_MSG(endpoint_count_ >= 1, "UpstreamLink: empty endpoint list");
  t0_ = clock_();
  next_dial_ = t0_;
}

UpstreamLink::Event UpstreamLink::poll() {
  if (gave_up_) return Event::kGaveUp;
  const Clock::time_point now = clock_();
  if (conn_ != nullptr) {
    if (!conn_->closed()) {
      if (now - last_rx_ < cfg_.liveness_timeout) {
        if (now - last_rx_ >= cfg_.heartbeat_interval &&
            now - last_ping_ >= cfg_.heartbeat_interval) {
          send(Frame{MsgType::kPing, 0, cfg_.self_id, {}});
          last_ping_ = now;
        }
        return Event::kIdle;
      }
      conn_->close();  // upstream unresponsive: redial
    }
    conn_.reset();
    if (got_frame_)
      next_dial_ = now + cfg_.backoff.delay(ep_attempts_);
    else
      fail(now);  // closed before any frame: the dial did not take
    if (gave_up_) return Event::kGaveUp;
  }
  if (now < next_dial_) return Event::kIdle;
  conn_ = dial_(endpoint_);
  if (conn_ == nullptr) {
    fail(now);
    return gave_up_ ? Event::kGaveUp : Event::kIdle;
  }
  if (ever_connected_) {
    ++reconnects_;
    if (cfg_.tracer != nullptr && cfg_.tracer->enabled())
      cfg_.tracer->record(
          metrics::ev_reconnect(round_, trace_client(cfg_.self_id),
                                trace_now()));
  }
  ever_connected_ = true;
  got_frame_ = false;
  last_rx_ = last_ping_ = now;
  return Event::kConnected;
}

void UpstreamLink::fail(Clock::time_point now) {
  const int budget = cfg_.backoff.max_attempts > 0
                         ? cfg_.backoff.max_attempts
                         : kUnboundedRotateAttempts;
  if (++ep_attempts_ >= budget) {
    if (cfg_.backoff.max_attempts > 0 &&
        ++dead_endpoints_ >= endpoint_count_) {
      gave_up_ = true;
      return;
    }
    endpoint_ = (endpoint_ + 1) % endpoint_count_;
    ep_attempts_ = 0;
    if (endpoint_count_ > 1) ++rotations_;
  }
  next_dial_ = now + cfg_.backoff.delay(ep_attempts_);
}

UpstreamLink::Clock::time_point UpstreamLink::next_poll() const {
  if (!connected()) return next_dial_;
  const Clock::time_point ping =
      std::max(last_rx_, last_ping_) + cfg_.heartbeat_interval;
  return std::min(ping, last_rx_ + cfg_.liveness_timeout);
}

bool UpstreamLink::send(const Frame& f) {
  if (!connected()) return false;
  if (!conn_->send(f)) {
    conn_->close();
    return false;
  }
  trace_frame(true, f);
  return true;
}

std::optional<Frame> UpstreamLink::recv(std::chrono::milliseconds timeout) {
  if (!connected()) return std::nullopt;
  std::optional<Frame> f;
  try {
    f = conn_->recv(timeout);
  } catch (const CheckError&) {
    conn_->close();  // malformed stream: redial
    return std::nullopt;
  }
  if (!f) return std::nullopt;
  last_rx_ = clock_();
  got_frame_ = true;
  dead_endpoints_ = 0;
  trace_frame(false, *f);
  return f;
}

void UpstreamLink::round_done(int round) {
  round_ = round;
  ep_attempts_ = 0;
  dead_endpoints_ = 0;
}

void UpstreamLink::close() {
  if (conn_ != nullptr) conn_->close();
}

double UpstreamLink::trace_now() const {
  return std::chrono::duration<double>(clock_() - t0_).count();
}

void UpstreamLink::trace_frame(bool tx, const Frame& f) {
  if (cfg_.tracer == nullptr || !cfg_.tracer->enabled()) return;
  const int id =
      trace_client(f.client_id == kServerId ? cfg_.self_id : f.client_id);
  cfg_.tracer->record(metrics::ev_frame(
      tx ? metrics::TraceEventType::kFrameTx
         : metrics::TraceEventType::kFrameRx,
      static_cast<int>(f.round), id, to_string(f.type),
      static_cast<std::int64_t>(f.wire_size()), trace_now()));
}

}  // namespace adafl::net::transport
