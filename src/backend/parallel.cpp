#include "backend/parallel.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/env.h"
#include "obs/metrics.h"

namespace adept::backend {

namespace {

using ChunkFn = std::function<void(std::int64_t, std::int64_t)>;

std::atomic<int> g_override{0};

// How long an idle helper polls for its next job before parking. Long
// enough that one caller's back-to-back launches find their helpers awake,
// short enough that idle helpers cannot starve busy threads on a contended
// machine (unbounded spinning made concurrent callers 1000x slower). 50 us
// and 2 ms both measured slower on perfbench's serve-model set-up training
// (4-vCPU VM). Not a knob.
constexpr auto kSpin = std::chrono::microseconds(200);

// The core budget's count: threads executing a launch right now, callers
// plus the helpers working for them. Written by every launch, so it fills a
// cache line of its own instead of slowing reads of its neighbours.
struct alignas(64) ActiveCount {
  std::atomic<int> n{0};
};
ActiveCount g_active;

// True on pool helpers and on a caller while it drives a launch; a launch
// from such a thread runs inline.
thread_local bool t_in_launch = false;

// Most threads one launch uses: the caller plus up to kMaxParts - 1 helpers.
constexpr int kMaxParts = 64;

// One launch. Lives on the caller's stack; the caller returns only after
// every helper that picked it up has left.
struct Job {
  // Participant i (the caller is 0, helpers 1.. in recruitment order) first
  // claims chunks from its own contiguous block, so a thread keeps meeting
  // the same rows, still in its cache, across a caller's launches; then it
  // steals from the other blocks. One cache line per block.
  struct alignas(64) Block {
    std::atomic<std::int64_t> next{0};
    std::int64_t end = 0;
  };

  Job(const ChunkFn& f, std::int64_t n_, std::int64_t grain_,
      std::int64_t chunks, int parts_)
      : fn(&f), n(n_), grain(grain_), parts(parts_) {
    for (int i = 0; i < parts; ++i) {
      blocks[i].next.store(chunks * i / parts, std::memory_order_relaxed);
      blocks[i].end = chunks * (i + 1) / parts;
    }
  }

  // Runs chunks on their (n, grain) boundaries until every block is empty;
  // a throwing chunk records the error and stops further claims.
  void work(int part) {
    for (int k = 0; k < parts; ++k) {
      Block& b = blocks[(part + k) % parts];
      while (!failed.load(std::memory_order_relaxed)) {
        const std::int64_t c = b.next.fetch_add(1, std::memory_order_relaxed);
        if (c >= b.end) break;
        const std::int64_t begin = c * grain;
        try {
          (*fn)(begin, std::min(begin + grain, n));
        } catch (...) {
          if (!failed.exchange(true)) error = std::current_exception();
          return;
        }
      }
    }
  }

  const ChunkFn* fn;
  std::int64_t n, grain;
  int parts;
  Block blocks[kMaxParts];
  std::atomic<int> helpers{0};  // recruited helpers that have not left yet
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written once, by the thread that set `failed`
};

struct Worker {
  std::atomic<bool> idle{true};      // free to be recruited
  std::atomic<Job*> job{nullptr};    // mailbox, written by the recruiter
  int part = 0;                      // its participant index in `job`
  std::atomic<bool> parked{false};
  std::mutex mu;  // park/wake handshake: `parked` and the wait on `cv`
  std::condition_variable cv;
  std::thread thread;
};

class Pool {
 public:
  Pool()
      : launches(obs::counter("backend.pool.launches")),
        fanned_out(obs::counter("backend.pool.fanned_out")),
        parks_(obs::counter("backend.pool.parks")) {}

  ~Pool() {
    stop_.store(true);
    const int size = size_.load();
    for (int i = 0; i < size; ++i) {
      Worker& w = *workers_[static_cast<std::size_t>(i)];
      { std::lock_guard lock(w.mu); }
      w.cv.notify_one();
      w.thread.join();
    }
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  obs::Counter& launches;    // launches of more than one chunk, budget > 1
  obs::Counter& fanned_out;  // ... of which recruited at least one helper

  // Hands `job` to up to `want` idle helpers, starting new ones while every
  // existing helper is busy. Returns how many were recruited.
  int recruit(Job& job, int want) {
    int got = 0;
    for (int i = 0; got < want; ++i) {
      if (i >= size_.load(std::memory_order_acquire) && !grow(i)) break;
      Worker& w = *workers_[static_cast<std::size_t>(i)];
      bool idle = true;
      if (!w.idle.compare_exchange_strong(idle, false)) continue;
      job.helpers.fetch_add(1);
      w.part = got + 1;
      w.job.store(&job);
      // Pairs with take(): either the helper sees the job before it waits,
      // or this load sees it parked and the notify wakes it.
      if (w.parked.load()) {
        { std::lock_guard lock(w.mu); }
        w.cv.notify_one();
      }
      ++got;
    }
    return got;
  }

  // Takes `job` back from recruited helpers that have not picked it up yet
  // and returns their budget; after this no mailbox holds `job`.
  void withdraw(Job& job) {
    const int size = size_.load(std::memory_order_acquire);
    for (int i = 0; i < size; ++i) {
      Worker& w = *workers_[static_cast<std::size_t>(i)];
      Job* expected = &job;
      if (w.job.load(std::memory_order_relaxed) != &job ||
          !w.job.compare_exchange_strong(expected, nullptr)) {
        continue;
      }
      w.idle.store(true);
      g_active.n.fetch_sub(1);
      job.helpers.fetch_sub(1);
    }
  }

 private:
  static constexpr int kMaxWorkers = 256;

  // Starts helper `i` if it does not exist yet; false at the capacity cap
  // or when no thread can be started (the launch then runs with the helpers
  // it already has — it must not throw while they hold its job).
  bool grow(int i) {
    std::lock_guard lock(grow_mu_);
    const int size = size_.load();
    if (i < size) return true;
    if (size >= kMaxWorkers) return false;
    try {
      auto w = std::make_unique<Worker>();
      Worker* raw = w.get();
      raw->thread = std::thread([this, raw] { loop(*raw); });
      workers_[static_cast<std::size_t>(size)] = std::move(w);
    } catch (...) {
      return false;
    }
    size_.store(size + 1, std::memory_order_release);
    return true;
  }

  void loop(Worker& w) {
    t_in_launch = true;
    while (Job* job = take(w)) {
      job->work(w.part);
      w.idle.store(true);
      g_active.n.fetch_sub(1);
      // Last touch of `job`: the caller may return as soon as this lands.
      job->helpers.fetch_sub(1, std::memory_order_release);
    }
  }

  // Next job for `w`: polls for kSpin, then parks until woken. Null once
  // the pool is stopping.
  Job* take(Worker& w) {
    for (;;) {
      const auto deadline = std::chrono::steady_clock::now() + kSpin;
      do {
        if (w.job.load(std::memory_order_relaxed) != nullptr) {
          if (Job* job = w.job.exchange(nullptr)) return job;
        }
        if (stop_.load(std::memory_order_relaxed)) return nullptr;
        std::this_thread::yield();
      } while (std::chrono::steady_clock::now() < deadline);
      std::unique_lock lock(w.mu);
      w.parked.store(true);
      parks_.inc();
      w.cv.wait(lock, [&] { return w.job.load() != nullptr || stop_.load(); });
      w.parked.store(false);
    }
  }

  obs::Counter& parks_;
  std::atomic<bool> stop_{false};
  std::mutex grow_mu_;  // serializes grow(); readers go through size_
  std::array<std::unique_ptr<Worker>, kMaxWorkers> workers_;
  std::atomic<int> size_{0};
};

Pool& pool() {
  static Pool p;
  return p;
}

// Holds one unit of the core budget for the calling thread and marks it as
// inside a launch, for the duration of a launch.
class CallerSlot {
 public:
  CallerSlot() : active_(g_active.n.fetch_add(1) + 1) { t_in_launch = true; }
  ~CallerSlot() {
    t_in_launch = false;
    g_active.n.fetch_sub(1);
  }
  CallerSlot(const CallerSlot&) = delete;
  CallerSlot& operator=(const CallerSlot&) = delete;

  // Reserves up to `want` more budget units for helpers; returns how many.
  int reserve(int want, int budget) {
    int got = 0;
    int active = active_;
    while (got < want && active < budget) {
      if (g_active.n.compare_exchange_weak(active, active + 1)) {
        ++active;
        ++got;
      }
    }
    return got;
  }

 private:
  int active_;
};

}  // namespace

int num_threads() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  // The env/hardware default cannot change mid-process; resolve it once so
  // per-kernel launches don't pay getenv + string construction.
  static const int resolved = [] {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw <= 0) hw = 1;
    const int env = adept::env_int("ADEPT_NUM_THREADS", hw);
    return env > 0 ? env : hw;
  }();
  return resolved;
}

void set_num_threads(int n) {
  g_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

ThreadScope::ThreadScope(int n) : prev_(g_override.load()) { set_num_threads(n); }
ThreadScope::~ThreadScope() { g_override.store(prev_); }

namespace detail {

void run_chunked(std::int64_t n, std::int64_t grain, const ChunkFn& fn) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const int nt = num_threads();
  if (nt <= 1 || n <= grain) {
    fn(0, n);
    return;
  }
  Pool& p = pool();
  p.launches.inc();
  if (t_in_launch) {
    fn(0, n);
    return;
  }
  // Chunk boundaries depend only on (n, grain): bit-exact for any budget.
  const std::int64_t chunks = (n + grain - 1) / grain;
  CallerSlot slot;
  const int reserved = slot.reserve(
      static_cast<int>(std::min<std::int64_t>({chunks, nt, kMaxParts}) - 1), nt);
  if (reserved == 0) {
    fn(0, n);
    return;
  }
  Job job(fn, n, grain, chunks, reserved + 1);
  const int recruited = p.recruit(job, reserved);
  if (recruited < reserved) g_active.n.fetch_sub(reserved - recruited);
  if (recruited > 0) p.fanned_out.inc();
  job.work(0);
  p.withdraw(job);
  while (job.helpers.load(std::memory_order_acquire) > 0) {
    std::this_thread::yield();
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace detail

}  // namespace adept::backend
