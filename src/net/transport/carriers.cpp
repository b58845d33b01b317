#include "net/transport/carriers.h"

#include <algorithm>
#include <thread>

#include "tensor/check.h"

namespace adafl::net::transport {

void Carriers::attach(EventLoop* loop) {
  loop_ = loop;
  if (loop_ != nullptr) loop_->on_activity([this] { notify(signalled_); });
}

void Carriers::add_transport(std::unique_ptr<Transport> t) {
  if (!t) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    arrivals_.push_back(std::move(t));
  }
  notify(signalled_);
}

void Carriers::wake() { notify(woken_); }

void Carriers::notify(bool& flag) {
  std::unique_lock<std::mutex> lock(mu_);
  const bool told = signalled_ || woken_;
  flag = true;
  if (told) return;  // the waiter is already told
  lock.unlock();
  cv_.notify_one();
}

void Carriers::signal(ConnId conn, Pumped& p) {
  if (p.ready.exchange(true)) return;  // queued already: no lock, no syscall
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready_.push_back(conn);
  }
  notify(signalled_);
}

void Carriers::drain(ConnId conn, Transport& t, std::vector<InFrame>& batch,
                     std::chrono::steady_clock::time_point now) {
  try {
    while (std::optional<Frame> f = t.recv(std::chrono::milliseconds(0)))
      batch.push_back(InFrame{conn, std::move(*f), now});
  } catch (const CheckError&) {
    t.close();  // malformed stream: its earlier frames still count
  }
  if (t.closed()) gone_.push_back(conn);
}

void Carriers::poll(std::vector<InFrame>& batch) {
  std::vector<std::unique_ptr<Transport>> arrived;
  {
    // This pass serves every signal, arrival and loop activity so far; a
    // later one ends the next wait. A wake() is not served here (the owner
    // reads that transport itself), so only wait() takes it.
    std::lock_guard<std::mutex> lock(mu_);
    signalled_ = false;
    visit_.assign(ready_.begin(), ready_.end());
    ready_.clear();
    arrived.swap(arrivals_);
  }
  if (loop_ != nullptr) {
    for (const ConnId conn : loop_->take_closed()) gone_.push_back(conn);
    loop_->poll_all(batch);
    for (const ConnId conn : loop_->take_accepted()) loop_conns_.insert(conn);
  }
  const auto now = std::chrono::steady_clock::now();
  visit_.insert(visit_.end(), polled_.begin(), polled_.end());
  std::sort(visit_.begin(), visit_.end());
  for (const ConnId conn : visit_) {
    const auto it = pumped_.find(conn);
    if (it == pumped_.end()) continue;  // closed since it signalled
    // Unmarked before the drain, so a frame landing mid-drain marks it
    // again and is served by the next pass.
    it->second.ready.store(false);
    drain(conn, *it->second.t, batch, now);
  }
  if (arrived.empty()) return;
  {
    // Room for every arrival's signal before any can signal.
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t need = signalling_ + arrived.size();
    if (ready_.capacity() < need)
      ready_.reserve(std::max(need, 2 * ready_.capacity()));
  }
  // New connections take the next ids, so they still come in ConnId order.
  for (std::unique_ptr<Transport>& t : arrived) {
    const ConnId conn = next_pumped_++;
    Pumped& p = pumped_[conn];
    p.t = std::move(t);
    p.signals = p.t->set_wake([this, conn, &p] { signal(conn, p); });
    if (p.signals)
      ++signalling_;
    else
      polled_.push_back(conn);
    drain(conn, *p.t, batch, now);  // what came before the wake
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
  if (it->second.t->send_shared(f, slot)) return true;
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
  Pumped& p = it->second;
  p.t->close();  // its wake is never called again
  if (p.signals) {
    --signalling_;
    if (p.ready.load()) {
      std::lock_guard<std::mutex> lock(mu_);
      std::erase(ready_, conn);
    }
  } else {
    polled_.erase(std::lower_bound(polled_.begin(), polled_.end(), conn));
  }
  pumped_.erase(it);
}

void Carriers::wait(std::chrono::milliseconds idle) {
  const auto start = std::chrono::steady_clock::now();
  // One wake per kWakeGap: what lands meanwhile is served by the next pass.
  const auto gap_end = std::min(woke_at_ + kWakeGap, start + idle);
  if (start < gap_end) std::this_thread::sleep_until(gap_end);
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_until(lock, start + idle,
                 [this] { return signalled_ || woken_; });
  signalled_ = woken_ = false;
  woke_at_ = std::chrono::steady_clock::now();
}

void Carriers::close_all(std::chrono::milliseconds flush) {
  if (loop_ != nullptr) {
    // Loop sends are queued commands: drain them before the loop stops so
    // the final frames actually leave the box.
    if (flush.count() > 0) loop_->flush(flush);
    loop_->stop();  // closes every loop-owned socket
  }
  loop_conns_.clear();
  for (auto& [conn, p] : pumped_) p.t->close();
  pumped_.clear();
  polled_.clear();
  signalling_ = 0;
  gone_.clear();
  std::vector<std::unique_ptr<Transport>> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending.swap(arrivals_);
    ready_.clear();
  }
  for (auto& t : pending) t->close();
}

std::size_t Carriers::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pumped_.size() + arrivals_.size() +
         (loop_ != nullptr ? loop_->open_connections() : 0);
}

}  // namespace adafl::net::transport
