#include "core/parallel.h"

#include <atomic>
#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

namespace adafl::core {

namespace {

thread_local bool tl_in_pool = false;

int auto_threads() {
  if (const char* env = std::getenv("ADAFL_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// The process-wide pool: size_-1 worker threads draining one FIFO task
/// queue; the thread that forks a parallel region participates as the
/// size_-th lane.
class Pool {
 public:
  static Pool& instance() {
    static Pool p;
    return p;
  }

  int size() {
    std::lock_guard<std::mutex> lk(config_mu_);
    return size_;
  }

  void resize(int n) {
    std::lock_guard<std::mutex> lk(config_mu_);
    const int target = n > 0 ? n : auto_threads();
    if (target == size_) return;
    stop_workers();
    size_ = target;
    start_workers();
  }

  void enqueue(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  ~Pool() {
    std::lock_guard<std::mutex> lk(config_mu_);
    stop_workers();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

 private:
  Pool() : size_(auto_threads()) { start_workers(); }

  void start_workers() {
    stop_ = false;
    workers_.reserve(static_cast<std::size_t>(std::max(0, size_ - 1)));
    for (int i = 0; i < size_ - 1; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  void stop_workers() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
    workers_.clear();
  }

  void worker_loop() {
    tl_in_pool = true;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
        if (stop_) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex config_mu_;  ///< guards size_ / worker lifetime
  int size_ = 1;

  std::mutex mu_;  ///< guards queue_ / stop_
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// One fork-join region: a fixed contiguous partition of [begin, begin+n)
/// into nchunks pieces. Threads claim chunks via an atomic cursor; the
/// partition itself never depends on which thread runs which chunk.
struct ForkJob {
  std::int64_t begin = 0;
  std::int64_t nchunks = 0;
  std::int64_t chunk = 0;  ///< base chunk length (n / nchunks)
  std::int64_t extra = 0;  ///< first `extra` chunks take one more index
  const std::function<void(std::int64_t, std::int64_t, std::int64_t)>* fn =
      nullptr;
  std::atomic<std::int64_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  std::int64_t done = 0;
  std::vector<std::exception_ptr> errors;

  void run_available_chunks() {
    for (;;) {
      const std::int64_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= nchunks) return;
      const std::int64_t b = begin + k * chunk + std::min(k, extra);
      const std::int64_t e = b + chunk + (k < extra ? 1 : 0);
      try {
        (*fn)(k, b, e);
      } catch (...) {
        errors[static_cast<std::size_t>(k)] = std::current_exception();
      }
      std::lock_guard<std::mutex> lk(mu);
      if (++done == nchunks) done_cv.notify_all();
    }
  }
};

}  // namespace

int num_threads() { return Pool::instance().size(); }

void set_num_threads(int n) { Pool::instance().resize(n); }

bool in_parallel_region() { return tl_in_pool; }

void parallel_for_blocked(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  parallel_for_blocked_indexed(
      begin, end,
      [&fn](std::int64_t, std::int64_t b, std::int64_t e) { fn(b, e); });
}

void parallel_for_blocked_indexed(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)>& fn) {
  if (end <= begin) return;
  const std::int64_t n = end - begin;
  Pool& pool = Pool::instance();
  const int threads = pool.size();
  // Serial paths: one lane configured, a single index, or we are already
  // inside a parallel region (nested parallelism runs flat).
  if (threads <= 1 || n <= 1 || tl_in_pool) {
    fn(0, begin, end);
    return;
  }

  auto job = std::make_shared<ForkJob>();
  job->begin = begin;
  job->nchunks = std::min<std::int64_t>(threads, n);
  job->chunk = n / job->nchunks;
  job->extra = n % job->nchunks;
  job->fn = &fn;
  job->errors.resize(static_cast<std::size_t>(job->nchunks));

  // One helper per additional lane; each drains chunks until none remain.
  // Helpers hold the job alive, so a late helper that finds no chunk left
  // exits harmlessly even after the caller returned.
  for (std::int64_t h = 0; h < job->nchunks - 1; ++h)
    pool.enqueue([job] { job->run_available_chunks(); });
  // The forking thread is one of the region's lanes: while it runs chunks,
  // nested regions run serially on it, as they do on a worker, so a chunk
  // does the same work whichever lane takes it. Chunk exceptions are caught
  // inside, so the flag is always reset.
  tl_in_pool = true;
  job->run_available_chunks();
  tl_in_pool = false;

  {
    std::unique_lock<std::mutex> lk(job->mu);
    job->done_cv.wait(lk, [&] { return job->done == job->nchunks; });
  }
  for (auto& err : job->errors)
    if (err) std::rethrow_exception(err);
}

void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& fn) {
  parallel_for_blocked(begin, end, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) fn(i);
  });
}

std::future<void> submit_task(std::function<void()> fn) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> fut = task->get_future();
  Pool& pool = Pool::instance();
  // Serial pool (or a submit from inside a worker): run inline so the
  // semantics match the single-threaded schedule exactly.
  if (pool.size() <= 1 || tl_in_pool) {
    (*task)();
    return fut;
  }
  pool.enqueue([task] { (*task)(); });
  return fut;
}

}  // namespace adafl::core
