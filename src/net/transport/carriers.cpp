#include "net/transport/carriers.h"

#include <thread>

#include "tensor/check.h"

namespace adafl::net::transport {

void Carriers::add_transport(std::unique_ptr<Transport> t) {
  if (!t) return;
  std::lock_guard<std::mutex> lock(arrivals_mu_);
  arrivals_.push_back(std::move(t));
}

void Carriers::poll(std::vector<InFrame>& batch) {
  if (loop_ != nullptr) {
    for (const ConnId conn : loop_->take_closed()) gone_.push_back(conn);
    loop_->poll_all(batch);
    for (const ConnId conn : loop_->take_accepted()) loop_conns_.insert(conn);
  }
  {
    std::lock_guard<std::mutex> lock(arrivals_mu_);
    for (auto& t : arrivals_) pumped_.emplace(next_pumped_++, std::move(t));
    arrivals_.clear();
  }
  const auto now = std::chrono::steady_clock::now();
  for (auto& [conn, t] : pumped_) {
    try {
      while (std::optional<Frame> f = t->recv(std::chrono::milliseconds(0)))
        batch.push_back(InFrame{conn, std::move(*f), now});
    } catch (const CheckError&) {
      t->close();  // malformed stream: its earlier frames still count
    }
    if (t->closed()) gone_.push_back(conn);
  }
}

bool Carriers::open(ConnId conn) const {
  return conn >= kPumpedBase ? pumped_.count(conn) != 0
                             : loop_conns_.count(conn) != 0;
}

bool Carriers::send(ConnId conn, const Frame& f, FrameImage* image) {
  FrameImage once;
  FrameImage& slot = image != nullptr ? *image : once;
  if (conn < kPumpedBase) {
    if (loop_conns_.count(conn) == 0) return false;
    // Queued on the loop thread; a dead peer surfaces in take_gone() on a
    // later pass, as a lost datagram would.
    loop_->send(conn, encode_once(f, slot));
    return true;
  }
  const auto it = pumped_.find(conn);
  if (it == pumped_.end()) return false;
  if (it->second->send_shared(f, slot)) return true;
  close(conn);
  return false;
}

void Carriers::close(ConnId conn) {
  if (conn < kPumpedBase) {
    if (loop_conns_.erase(conn) != 0) loop_->close_conn(conn);
    return;
  }
  const auto it = pumped_.find(conn);
  if (it == pumped_.end()) return;
  it->second->close();
  pumped_.erase(it);
}

void Carriers::wait(std::chrono::milliseconds idle) {
  // A frame landing on the loop mid-wait ends it at once.
  if (loop_ != nullptr)
    loop_->wait_activity(idle);
  else
    std::this_thread::sleep_for(idle);
}

void Carriers::close_all(std::chrono::milliseconds flush) {
  if (loop_ != nullptr) {
    // Loop sends are queued commands: drain them before the loop stops so
    // the final frames actually leave the box.
    if (flush.count() > 0) loop_->flush(flush);
    loop_->stop();  // closes every loop-owned socket
  }
  loop_conns_.clear();
  for (auto& [conn, t] : pumped_) t->close();
  pumped_.clear();
  gone_.clear();
  std::lock_guard<std::mutex> lock(arrivals_mu_);
  for (auto& t : arrivals_) t->close();
  arrivals_.clear();
}

std::size_t Carriers::size() const {
  std::lock_guard<std::mutex> lock(arrivals_mu_);
  return pumped_.size() + arrivals_.size() +
         (loop_ != nullptr ? loop_->open_connections() : 0);
}

}  // namespace adafl::net::transport
