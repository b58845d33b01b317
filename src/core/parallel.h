// Deterministic parallelism substrate: a persistent thread pool with
// fork-join helpers whose results are bitwise-independent of the thread
// count.
//
// Determinism contract:
//  - parallel_for / parallel_for_blocked split [begin, end) into a fixed
//    set of contiguous chunks (static partitioning). Which thread executes
//    a chunk is scheduling-dependent, but chunk boundaries and the work
//    done per index are not, so any computation whose indices write
//    disjoint outputs produces bitwise-identical results at every thread
//    count (including 1).
//  - parallel_map collects per-index results into a pre-sized vector, so
//    there is no reduction-order nondeterminism; callers that need an
//    ordered reduction fold the vector serially afterwards.
//  - Nested calls from inside a parallel region run serially on the lane
//    that makes them (OpenMP-style), a pool worker or the thread that forked
//    the region, so layered parallelism (trainer -> layer -> kernel) cannot
//    deadlock, stays deterministic, and does the same work on every lane.
//
// Sizing: the pool is lazily constructed with ADAFL_THREADS threads (if
// set and > 0) or std::thread::hardware_concurrency() otherwise; tests and
// the CLI override it with set_num_threads(). A size of N means N-1 worker
// threads plus the calling thread, so N == 1 is the zero-overhead serial
// path.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <vector>

namespace adafl::core {

/// Configured parallelism (>= 1). First call reads ADAFL_THREADS.
int num_threads();

/// Resizes the pool. n == 0 selects the automatic size (ADAFL_THREADS or
/// hardware_concurrency). Must not be called while parallel work is in
/// flight; intended for startup configuration and tests.
void set_num_threads(int n);

/// True on a pool worker thread, and on the thread that forked a region
/// while it runs the region's chunks (nested parallel calls run serially).
bool in_parallel_region();

/// Calls fn(chunk_begin, chunk_end) over a static contiguous partition of
/// [begin, end). Blocks until every chunk completed. The first exception
/// (by chunk order) is rethrown on the caller.
void parallel_for_blocked(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn);

/// Like parallel_for_blocked, but fn also receives the chunk index:
/// fn(chunk, chunk_begin, chunk_end). Chunk indices are 0-based, contiguous
/// and < min(num_threads(), end - begin); the serial path runs as chunk 0.
/// The partition depends only on (end - begin, num_threads()), never on
/// scheduling, so chunk indices are deterministic handles for per-chunk
/// scratch buffers (size the scratch table to num_threads() up front).
void parallel_for_blocked_indexed(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)>& fn);

/// Calls fn(i) for every i in [begin, end), chunked as above.
void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& fn);

/// Runs fn on the pool, returning a future for its completion. With a pool
/// size of 1 the task runs inline (the future is already ready). Used for
/// independent long-running tasks (e.g. one client's local training) whose
/// completion point the caller controls.
std::future<void> submit_task(std::function<void()> fn);

/// Maps [0, n) through fn into a pre-sized vector, index i holding fn(i).
template <typename T>
std::vector<T> parallel_map(std::int64_t n,
                            const std::function<T(std::int64_t)>& fn) {
  std::vector<T> out(static_cast<std::size_t>(n));
  parallel_for(0, n,
               [&](std::int64_t i) { out[static_cast<std::size_t>(i)] = fn(i); });
  return out;
}

}  // namespace adafl::core
