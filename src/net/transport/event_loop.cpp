#include "net/transport/event_loop.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "tensor/check.h"

namespace adafl::net::transport {

namespace {

// epoll_event.data.u64 tags for non-connection fds. Connection ids are
// allocated from 0 upward and can never collide with these.
constexpr std::uint64_t kTagBase = 0xFFFFFFFF00000000ull;
constexpr std::uint64_t kTagWake = kTagBase + 0;
constexpr std::uint64_t kTagListener = kTagBase + 1;
constexpr std::uint64_t kTagWatched = kTagBase + 2;  // + watch index

}  // namespace

struct EventLoop::Conn {
  ConnId id = 0;
  int fd = -1;
  int shard = 0;
  FrameParser parser;
  std::deque<std::pair<FrameBytes, std::size_t>> outbuf;
  std::size_t outbuf_bytes = 0;
  std::uint32_t events = 0;  // currently registered epoll event mask
};

struct EventLoop::Shard {
  std::mutex mu;
  std::deque<InFrame> q;
  /// Mirrors `paused` for the session thread (poll_shard decides whether a
  /// resume wake is worth sending).
  std::atomic<bool> loop_paused{false};
  /// Session thread -> loop thread: queue drained below the low watermark.
  std::atomic<bool> resume_requested{false};
  /// Loop-thread state: reads of this shard's connections are unregistered.
  bool paused = false;
};

EventLoop::EventLoop(EventLoopConfig cfg) : cfg_(cfg) {
  ADAFL_CHECK_MSG(cfg_.shards >= 1, "event_loop: shards must be >= 1");
  ADAFL_CHECK_MSG(cfg_.queue_depth >= 1,
                  "event_loop: queue_depth must be >= 1");
  shards_ = std::make_unique<Shard[]>(static_cast<std::size_t>(cfg_.shards));
  read_chunk_.resize(std::min<std::size_t>(cfg_.read_budget, 64 * 1024));
  if (read_chunk_.empty()) read_chunk_.resize(4096);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  ADAFL_CHECK_MSG(epoll_fd_ >= 0,
                  "event_loop: epoll_create1: " << std::strerror(errno));
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  ADAFL_CHECK_MSG(wake_fd_ >= 0,
                  "event_loop: eventfd: " << std::strerror(errno));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTagWake;
  ADAFL_CHECK_MSG(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0,
                  "event_loop: epoll_ctl(wake): " << std::strerror(errno));
}

EventLoop::~EventLoop() {
  stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::adopt_listener(int listen_fd) {
  ADAFL_CHECK_MSG(!running_.load(), "event_loop: adopt_listener after start");
  listen_fd_ = listen_fd;
  const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTagListener;
  ADAFL_CHECK_MSG(
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
      "event_loop: epoll_ctl(listener): " << std::strerror(errno));
}

void EventLoop::watch_fd(int fd, std::function<void()> cb) {
  ADAFL_CHECK_MSG(!running_.load(), "event_loop: watch_fd after start");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTagWatched + watched_.size();
  ADAFL_CHECK_MSG(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
                  "event_loop: epoll_ctl(watch): " << std::strerror(errno));
  watched_.emplace_back(fd, std::move(cb));
}

void EventLoop::start() {
  if (running_.exchange(true)) return;
  thread_ = std::thread([this] { run(); });
}

void EventLoop::stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  wake();
  if (thread_.joinable()) thread_.join();
  for (auto& [id, c] : conns_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
    ::close(c->fd);
  }
  conns_.clear();
  open_conns_.store(0);
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::notify_activity() {
  if (on_activity_) on_activity_();
}

// ---------------------------------------------------------------------------
// Loop thread
// ---------------------------------------------------------------------------

void EventLoop::run() {
  std::vector<epoll_event> events(512);
  while (running_.load(std::memory_order_relaxed)) {
    apply_commands();
    for (int s = 0; s < cfg_.shards; ++s) {
      Shard& sh = shards_[static_cast<std::size_t>(s)];
      if (sh.resume_requested.exchange(false)) {
        std::size_t depth;
        {
          std::lock_guard<std::mutex> lk(sh.mu);
          depth = sh.q.size();
        }
        if (depth <= cfg_.queue_depth / 2) resume_shard_reads(s);
      }
    }
    if (cycle_activity_) {
      notify_activity();
      cycle_activity_ = false;
    }

    int timeout_ms = -1;
    const auto now = std::chrono::steady_clock::now();
    if (accept_paused_ && !accept_at_cap_) {
      const auto remain = std::chrono::duration_cast<std::chrono::milliseconds>(
          accept_resume_at_ - now);
      timeout_ms = static_cast<int>(std::max<std::int64_t>(0, remain.count()));
    }
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
    resume_accept_if_due(std::chrono::steady_clock::now());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable epoll failure: exit the loop
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[static_cast<std::size_t>(i)].data.u64;
      const std::uint32_t ev = events[static_cast<std::size_t>(i)].events;
      if (tag == kTagWake) {
        std::uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (tag == kTagListener) {
        handle_accept();
        continue;
      }
      if (tag >= kTagWatched) {
        const std::size_t idx = static_cast<std::size_t>(tag - kTagWatched);
        if (idx < watched_.size()) watched_[idx].second();
        // What the callback took off the fd (UDP datagrams) now waits in
        // transports the session pumps: wake it.
        cycle_activity_ = true;
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // dropped earlier in this batch
      Conn* c = it->second.get();
      if (ev & EPOLLOUT) {
        handle_writable(c);
        if (conns_.find(tag) == conns_.end()) continue;
      }
      if (ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
        // handle_readable() observes EOF/reset via recv() itself, so hangup
        // events funnel through the same path and drain any final bytes.
        handle_readable(c);
      }
    }
  }
}

void EventLoop::handle_accept() {
  for (;;) {
    if (cfg_.max_clients > 0 &&
        open_conns_.load() >= static_cast<std::size_t>(cfg_.max_clients)) {
      if (!accept_paused_) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        accept_paused_ = true;
        accept_at_cap_ = true;
      }
      return;
    }
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // fd exhaustion: pause accepting with exponential backoff instead
        // of spinning (level-triggered epoll would hand the same event
        // straight back) or dying.
        accept_delay_ = accept_delay_.count() == 0
                            ? cfg_.accept_backoff
                            : std::min(accept_delay_ * 2,
                                       cfg_.accept_backoff_max);
        accept_pauses_.fetch_add(1);
        pause_accept(accept_delay_);
        return;
      }
      if (errno == EINVAL || errno == EBADF || errno == ENOTSOCK) {
        // The listener itself is gone (TcpListener::close() shuts it down):
        // level-triggered epoll would report it again at once, forever.
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        listen_fd_ = -1;
        return;
      }
      return;  // other transient accept failures: retry on next event
    }
    accept_delay_ = std::chrono::milliseconds(0);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto c = std::make_unique<Conn>();
    c->id = next_id_++;
    c->fd = fd;
    c->shard = static_cast<int>(c->id % static_cast<ConnId>(cfg_.shards));
    c->events = EPOLLIN | EPOLLRDHUP;
    if (shards_[static_cast<std::size_t>(c->shard)].paused)
      c->events &= ~EPOLLIN;
    epoll_event ev{};
    ev.events = c->events;
    ev.data.u64 = c->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    const ConnId id = c->id;
    conns_.emplace(id, std::move(c));
    open_conns_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lk(event_mu_);
      accepted_.push_back(id);
    }
    cycle_activity_ = true;
  }
}

void EventLoop::pause_accept(std::chrono::milliseconds delay) {
  if (listen_fd_ < 0) return;
  if (!accept_paused_)
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  accept_paused_ = true;
  accept_at_cap_ = false;
  accept_resume_at_ = std::chrono::steady_clock::now() + delay;
}

void EventLoop::resume_accept_if_due(
    std::chrono::steady_clock::time_point now) {
  if (!accept_paused_ || listen_fd_ < 0) return;
  if (accept_at_cap_) {
    if (cfg_.max_clients > 0 &&
        open_conns_.load() >= static_cast<std::size_t>(cfg_.max_clients))
      return;
  } else if (now < accept_resume_at_) {
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTagListener;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0) {
    accept_paused_ = false;
    accept_at_cap_ = false;
  }
}

void EventLoop::handle_readable(Conn* c) {
  std::size_t budget = cfg_.read_budget;
  while (budget > 0) {
    {
      Shard& sh = shards_[static_cast<std::size_t>(c->shard)];
      std::lock_guard<std::mutex> lk(sh.mu);
      if (sh.q.size() >= cfg_.queue_depth) {
        // Shard saturated: stop reading before pulling more bytes off the
        // socket; backpressure propagates to the sender via TCP.
        break;
      }
    }
    const std::size_t want = std::min(budget, read_chunk_.size());
    const ssize_t n = ::recv(c->fd, read_chunk_.data(), want, 0);
    if (n == 0) {
      drop_conn(c);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      drop_conn(c);
      return;
    }
    budget -= static_cast<std::size_t>(n);
    std::size_t got = 0;
    try {
      got = c->parser.consume(std::span<const std::uint8_t>(
          read_chunk_.data(), static_cast<std::size_t>(n)));
    } catch (const adafl::CheckError&) {
      drop_conn(c);  // malformed stream: drop the peer, not the server
      return;
    }
    for (std::size_t i = 0; i < got; ++i) {
      auto f = c->parser.next();
      if (!f) break;
      enqueue_frame(c, std::move(*f));
    }
    if (static_cast<std::size_t>(n) < want) return;  // socket drained
  }
  // Budget exhausted or shard saturated. Level-triggered epoll re-arms the
  // fd next cycle unless the shard pause below unregistered it.
  Shard& sh = shards_[static_cast<std::size_t>(c->shard)];
  bool saturated;
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    saturated = sh.q.size() >= cfg_.queue_depth;
  }
  if (saturated) pause_shard_reads(c->shard);
}

void EventLoop::enqueue_frame(Conn* c, Frame&& f) {
  Shard& sh = shards_[static_cast<std::size_t>(c->shard)];
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.q.push_back(InFrame{c->id, std::move(f),
                           std::chrono::steady_clock::now()});
    depth = sh.q.size();
  }
  cycle_activity_ = true;
  std::size_t peak = peak_depth_.load(std::memory_order_relaxed);
  while (depth > peak &&
         !peak_depth_.compare_exchange_weak(peak, depth,
                                            std::memory_order_relaxed)) {
  }
}

void EventLoop::pause_shard_reads(int shard) {
  Shard& sh = shards_[static_cast<std::size_t>(shard)];
  if (sh.paused) return;
  sh.paused = true;
  sh.loop_paused.store(true);
  read_pauses_.fetch_add(1);
  for (auto& [id, c] : conns_) {
    if (c->shard != shard) continue;
    c->events &= ~static_cast<std::uint32_t>(EPOLLIN);
    update_events(c.get());
  }
}

void EventLoop::resume_shard_reads(int shard) {
  Shard& sh = shards_[static_cast<std::size_t>(shard)];
  if (!sh.paused) return;
  sh.paused = false;
  sh.loop_paused.store(false);
  for (auto& [id, c] : conns_) {
    if (c->shard != shard) continue;
    c->events |= EPOLLIN;
    update_events(c.get());
  }
}

void EventLoop::update_events(Conn* c) {
  epoll_event ev{};
  ev.events = c->events | (c->outbuf.empty() ? 0u : EPOLLOUT) | EPOLLRDHUP;
  ev.data.u64 = c->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
}

void EventLoop::handle_writable(Conn* c) {
  while (!c->outbuf.empty()) {
    auto& [buf, off] = c->outbuf.front();
    const ssize_t n = ::send(c->fd, buf->data() + off, buf->size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      drop_conn(c);
      return;
    }
    off += static_cast<std::size_t>(n);
    c->outbuf_bytes -= static_cast<std::size_t>(n);
    total_outbuf_.fetch_sub(static_cast<std::size_t>(n));
    if (off == buf->size()) c->outbuf.pop_front();
  }
  update_events(c);
}

void EventLoop::drop_conn(Conn* c) {
  const ConnId id = c->id;
  total_outbuf_.fetch_sub(c->outbuf_bytes);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
  ::close(c->fd);
  conns_.erase(id);
  open_conns_.fetch_sub(1);
  {
    std::lock_guard<std::mutex> lk(event_mu_);
    closed_.push_back(id);
  }
  cycle_activity_ = true;
  if (accept_paused_ && accept_at_cap_)
    resume_accept_if_due(std::chrono::steady_clock::now());
}

void EventLoop::apply_commands() {
  std::vector<Command> cmds;
  {
    std::lock_guard<std::mutex> lk(cmd_mu_);
    cmds.swap(commands_);
  }
  for (auto& cmd : cmds) {
    auto it = conns_.find(cmd.conn);
    if (it == conns_.end()) continue;
    Conn* c = it->second.get();
    switch (cmd.kind) {
      case Command::Kind::kSend: {
        c->outbuf_bytes += cmd.bytes->size();
        total_outbuf_.fetch_add(cmd.bytes->size());
        c->outbuf.emplace_back(std::move(cmd.bytes), 0);
        if (c->outbuf_bytes > cfg_.max_outbuf_bytes) {
          drop_conn(c);  // dead consumer: unbounded backlog otherwise
          break;
        }
        handle_writable(c);  // opportunistic flush; EPOLLOUT if it blocks
        break;
      }
      case Command::Kind::kClose:
        drop_conn(c);
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Session thread
// ---------------------------------------------------------------------------

std::size_t EventLoop::poll_shard(int shard, std::vector<InFrame>& out,
                                  std::size_t max) {
  Shard& sh = shards_[static_cast<std::size_t>(shard)];
  std::size_t moved = 0;
  bool drained_low = false;
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    while (moved < max && !sh.q.empty()) {
      out.push_back(std::move(sh.q.front()));
      sh.q.pop_front();
      ++moved;
    }
    drained_low = sh.q.size() <= cfg_.queue_depth / 2;
  }
  if (moved > 0 && drained_low && sh.loop_paused.load()) {
    sh.resume_requested.store(true);
    wake();
  }
  return moved;
}

std::size_t EventLoop::poll_all(std::vector<InFrame>& out) {
  std::size_t total = 0;
  for (int s = 0; s < cfg_.shards; ++s)
    total += poll_shard(s, out, static_cast<std::size_t>(-1));
  return total;
}

void EventLoop::send(ConnId conn, FrameBytes bytes) {
  {
    std::lock_guard<std::mutex> lk(cmd_mu_);
    commands_.push_back(
        Command{Command::Kind::kSend, conn, std::move(bytes)});
  }
  wake();
}

void EventLoop::close_conn(ConnId conn) {
  {
    std::lock_guard<std::mutex> lk(cmd_mu_);
    commands_.push_back(Command{Command::Kind::kClose, conn, nullptr});
  }
  wake();
}

bool EventLoop::flush(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    bool cmds_pending;
    {
      std::lock_guard<std::mutex> lk(cmd_mu_);
      cmds_pending = !commands_.empty();
    }
    if (!cmds_pending && total_outbuf_.load() == 0) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    wake();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::vector<ConnId> EventLoop::take_accepted() {
  std::lock_guard<std::mutex> lk(event_mu_);
  std::vector<ConnId> out;
  out.swap(accepted_);
  return out;
}

std::vector<ConnId> EventLoop::take_closed() {
  std::lock_guard<std::mutex> lk(event_mu_);
  std::vector<ConnId> out;
  out.swap(closed_);
  return out;
}

std::size_t EventLoop::peak_queue_depth() const { return peak_depth_.load(); }

std::size_t EventLoop::open_connections() const { return open_conns_.load(); }

std::uint64_t EventLoop::accept_pauses() const {
  return accept_pauses_.load();
}

std::uint64_t EventLoop::read_pauses() const { return read_pauses_.load(); }

}  // namespace adafl::net::transport
