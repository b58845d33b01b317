#include "net/transport/loopback.h"

namespace adafl::net::transport {

std::pair<std::unique_ptr<LoopbackTransport>,
          std::unique_ptr<LoopbackTransport>>
make_loopback_pair() {
  auto a_to_b = std::make_shared<LoopbackTransport::Channel>();
  auto b_to_a = std::make_shared<LoopbackTransport::Channel>();
  std::unique_ptr<LoopbackTransport> a(
      new LoopbackTransport(a_to_b, b_to_a));
  std::unique_ptr<LoopbackTransport> b(
      new LoopbackTransport(b_to_a, a_to_b));
  return {std::move(a), std::move(b)};
}

bool LoopbackTransport::send_shared(const Frame& f, FrameImage& image) {
  const FrameBytes& bytes = encode_once(f, image);
  std::lock_guard<std::mutex> lock(tx_->mu);
  if (tx_->closed) return false;
  tx_->queue.push_back(bytes);
  tx_->cv.notify_all();
  if (tx_->wake) tx_->wake();
  return true;
}

std::optional<Frame> LoopbackTransport::recv(
    std::chrono::milliseconds timeout) {
  FrameBytes bytes;
  {
    std::unique_lock<std::mutex> lock(rx_->mu);
    // A wait on a deadline already past still sleeps the timer slack
    // (~50 us), so a zero-timeout poll must not wait at all.
    if (timeout.count() > 0)
      rx_->cv.wait_for(lock, timeout, [&] {
        return !rx_->queue.empty() || rx_->closed;
      });
    if (rx_->queue.empty()) return std::nullopt;  // timeout or closed
    bytes = std::move(rx_->queue.front());
    rx_->queue.pop_front();
  }
  // Every entry is one whole encoded frame (send_shared queues
  // encode_once's bytes), so it completes exactly one frame.
  parser_.consume(*bytes);
  return parser_.next();
}

bool LoopbackTransport::set_wake(Wake wake) {
  std::lock_guard<std::mutex> lock(rx_->mu);
  rx_->wake = std::move(wake);
  return true;
}

bool LoopbackTransport::closed() const {
  std::lock_guard<std::mutex> lock(rx_->mu);
  return rx_->closed && rx_->queue.empty();
}

void LoopbackTransport::close() {
  {
    std::lock_guard<std::mutex> lock(tx_->mu);
    if (!std::exchange(tx_->closed, true) && tx_->wake) tx_->wake();
    tx_->cv.notify_all();
  }
  std::lock_guard<std::mutex> lock(rx_->mu);
  rx_->closed = true;
  rx_->cv.notify_all();
  rx_->wake = nullptr;  // no signal outlives close()
}

}  // namespace adafl::net::transport
