// Data parallelism for the dense kernel layer: one lazily started,
// process-wide pool of helper threads shared by every caller, under one core
// budget.
//
// All backend kernels partition their iteration space into contiguous chunks
// whose boundaries depend only on the problem size — never on the thread
// count — and each output element is produced by exactly one chunk. This
// makes every kernel bit-exact across thread counts: ADEPT_NUM_THREADS=8 and
// ADEPT_NUM_THREADS=1 produce identical bits, so tests stay deterministic.
//
// Core budget: at most num_threads() threads execute launches at any moment,
// counting callers and the pool helpers working for them. A launch recruits
// idle helpers only while that count is below num_threads() and otherwise
// runs inline on its caller, so N concurrent callers on N cores (server
// workers, comm ranks) run their kernels inline while a lone caller gets
// every core — no per-caller configuration. A launch from inside a chunk
// runs inline. The caller works through chunks itself and waits only for
// chunks a helper already claimed, so a launch never deadlocks. An
// exception from any chunk is rethrown to the caller once the claimed
// chunks have finished.
//
// Idle helpers poll for work for a short fixed time after each launch (so a
// caller's back-to-back launches find them awake), then park. The registry
// counters backend.pool.launches / .fanned_out / .parks (obs/metrics.h)
// show how many launches ran inline and how often helpers slept.
//
// Thread count resolution order:
//   1. set_num_threads(n) with n >= 1 (process-wide runtime override),
//   2. the ADEPT_NUM_THREADS environment variable (see common/env.h),
//   3. std::thread::hardware_concurrency().
// A value of 1 short-circuits to a plain serial loop on the calling thread.
#pragma once

#include <cstdint>
#include <functional>

namespace adept::backend {

// Effective core budget for the kernel layer (always >= 1).
int num_threads();

// Runtime override; n <= 0 restores the env/hardware default.
void set_num_threads(int n);

// RAII scope that forces a thread count (used by tests to compare threaded
// output against the serial fallback).
class ThreadScope {
 public:
  explicit ThreadScope(int n);
  ~ThreadScope();
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int prev_;
};

namespace detail {
// Splits [0, n) into chunks of at most `grain` iterations and runs
// fn(begin, end) over them on the caller plus whatever pool helpers the core
// budget allows. Chunk boundaries are a pure function of (n, grain).
void run_chunked(std::int64_t n, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& fn);
}  // namespace detail

// Parallel loop over the index range [0, n). `fn(begin, end)` is invoked on
// disjoint subranges covering [0, n); it must not write outside state owned
// by its subrange. `grain` caps the chunk size (and bounds scheduling
// overhead for tiny bodies); the loop runs serially when n <= grain or a
// single thread is configured.
template <typename Fn>
inline void parallel_for(std::int64_t n, std::int64_t grain, Fn&& fn) {
  if (n <= 0) return;
  // Serial fast path, mirroring run_chunked's own short-circuit: one chunk
  // on the calling thread, but without materializing a std::function (which
  // otherwise costs an allocation per kernel launch on 1-core hosts — the
  // batch-1 serving latency path cares).
  if (num_threads() <= 1 || n <= grain) {
    fn(static_cast<std::int64_t>(0), n);
    return;
  }
  detail::run_chunked(n, grain, fn);
}

}  // namespace adept::backend
