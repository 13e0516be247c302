#include "comm/communicator.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/env.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace adept::comm {

namespace {

// Elements per owner-reduced chunk. Size-only: boundaries are a pure
// function of n, so the reduction order never depends on the world's thread
// schedule. 4096 floats = 16 KiB keeps a chunk inside L1 while amortizing
// the two barriers per collective over plenty of arithmetic.
constexpr std::int64_t kChunkElems = 4096;

// Fixed pairwise reduction tree over rank indices for one element. `w` is a
// power of two <= kMaxWorld (enforced at world construction), but the loop
// is correct for any w: ranks with no partner at a stride pass through.
template <typename T>
inline T reduce_tree(T (&v)[kMaxWorld], int w) {
  for (int stride = 1; stride < w; stride *= 2) {
    for (int r = 0; r + stride < w; r += 2 * stride) {
      v[r] += v[r + stride];
    }
  }
  return v[0];
}

int floor_pow2(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

}  // namespace

TreeCommunicator::TreeCommunicator(std::unique_ptr<Transport> transport)
    : transport_(std::move(transport)) {
  if (transport_->world_size() > kMaxWorld) {
    throw std::invalid_argument("TreeCommunicator: world_size exceeds kMaxWorld");
  }
}

template <typename T>
void TreeCommunicator::allreduce_impl(T* data, std::int64_t n) {
  failpoint::maybe_fail("comm.allreduce");
  // Collective telemetry, every rank: one span per call (each rank's
  // records land in its own thread ring, so per-rank skew is visible in
  // the trace) plus call/byte counters. Instruments resolve once; the
  // steady-state cost is two relaxed fetch_adds and one relaxed load.
  static obs::Counter& calls = obs::counter("comm.allreduce.calls");
  static obs::Counter& bytes_moved = obs::counter("comm.allreduce.bytes");
  static const obs::TraceId t_span = obs::intern_name("comm.allreduce");
  calls.inc();
  if (n > 0) bytes_moved.inc(static_cast<std::uint64_t>(n) * sizeof(T));
  obs::TraceSpan span(t_span);
  const int w = world_size();
  if (w == 1 || n <= 0) return;
  const int me = rank();
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(T);
  reduced_.resize(bytes);
  scratch_.resize(std::min<std::size_t>(bytes, kChunkElems * sizeof(T)));
  T* red = reinterpret_cast<T*>(reduced_.data());

  // Phase 1 (reduce-scatter): chunk c is reduced by rank c % w, reading every
  // rank's published source buffer. The per-element order is the fixed rank
  // tree regardless of which rank owns the chunk.
  transport_->publish(data, bytes);
  const std::int64_t chunks = (n + kChunkElems - 1) / kChunkElems;
  for (std::int64_t c = 0; c < chunks; ++c) {
    if (c % w != me) continue;
    const std::int64_t lo = c * kChunkElems;
    const std::int64_t hi = std::min(n, lo + kChunkElems);
    const T* src[kMaxWorld];
    for (int r = 0; r < w; ++r) {
      src[r] = (r == me)
                   ? data + lo
                   : static_cast<const T*>(transport_->peer_window(
                         r, static_cast<std::size_t>(lo) * sizeof(T),
                         static_cast<std::size_t>(hi - lo) * sizeof(T),
                         scratch_.data())) ;
    }
    for (std::int64_t i = 0; i < hi - lo; ++i) {
      T v[kMaxWorld] = {};
      for (int r = 0; r < w; ++r) v[r] = src[r][i];
      red[lo + i] = reduce_tree(v, w);
    }
  }
  transport_->release();

  // Phase 2 (allgather of reduced chunks): every rank copies each chunk from
  // its owner, so all ranks end with byte-identical buffers.
  transport_->publish(red, bytes);
  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::int64_t lo = c * kChunkElems;
    const std::int64_t hi = std::min(n, lo + kChunkElems);
    const int owner = static_cast<int>(c % w);
    const std::size_t len = static_cast<std::size_t>(hi - lo) * sizeof(T);
    if (owner == me) {
      std::memcpy(data + lo, red + lo, len);
    } else {
      const void* src = transport_->peer_window(
          owner, static_cast<std::size_t>(lo) * sizeof(T), len, scratch_.data());
      std::memcpy(data + lo, src, len);
    }
  }
  transport_->release();
}

template <typename T>
void TreeCommunicator::broadcast_impl(T* data, std::int64_t n, int root) {
  static obs::Counter& calls = obs::counter("comm.broadcast.calls");
  static obs::Counter& bytes_moved = obs::counter("comm.broadcast.bytes");
  static const obs::TraceId t_span = obs::intern_name("comm.broadcast");
  calls.inc();
  if (n > 0) bytes_moved.inc(static_cast<std::uint64_t>(n) * sizeof(T));
  obs::TraceSpan span(t_span);
  const int w = world_size();
  if (w == 1 || n <= 0) return;
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(T);
  scratch_.resize(bytes);
  transport_->publish(data, bytes);
  if (rank() != root) {
    const void* src = transport_->peer_window(root, 0, bytes, scratch_.data());
    std::memcpy(data, src, bytes);
  }
  transport_->release();
}

template <typename T>
void TreeCommunicator::allgather_impl(const T* in, std::int64_t n, T* out) {
  static obs::Counter& calls = obs::counter("comm.allgather.calls");
  static obs::Counter& bytes_moved = obs::counter("comm.allgather.bytes");
  static const obs::TraceId t_span = obs::intern_name("comm.allgather");
  calls.inc();
  if (n > 0) bytes_moved.inc(static_cast<std::uint64_t>(n) * sizeof(T));
  obs::TraceSpan span(t_span);
  const int w = world_size();
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(T);
  if (w == 1) {
    if (n > 0) std::memmove(out, in, bytes);
    return;
  }
  if (n <= 0) return;
  scratch_.resize(bytes);
  transport_->publish(in, bytes);
  for (int r = 0; r < w; ++r) {
    if (r == rank()) {
      std::memcpy(out + static_cast<std::size_t>(r) * n, in, bytes);
    } else {
      const void* src = transport_->peer_window(r, 0, bytes, scratch_.data());
      std::memcpy(out + static_cast<std::size_t>(r) * n, src, bytes);
    }
  }
  transport_->release();
}

void TreeCommunicator::allreduce_sum(float* data, std::int64_t n) {
  allreduce_impl(data, n);
}
void TreeCommunicator::allreduce_sum(double* data, std::int64_t n) {
  allreduce_impl(data, n);
}
void TreeCommunicator::broadcast(float* data, std::int64_t n, int root) {
  broadcast_impl(data, n, root);
}
void TreeCommunicator::broadcast(double* data, std::int64_t n, int root) {
  broadcast_impl(data, n, root);
}
void TreeCommunicator::allgather(const float* in, std::int64_t n, float* out) {
  allgather_impl(in, n, out);
}
void TreeCommunicator::allgather(const double* in, std::int64_t n, double* out) {
  allgather_impl(in, n, out);
}

int max_world_size() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, kMaxWorld);
}

int resolve_ranks(int requested) {
  int r;
  if (requested > 0) {
    r = std::min(requested, kMaxWorld);
  } else {
    r = env_int("ADEPT_RANKS", 1);
    r = std::clamp(r, 1, max_world_size());
  }
  return floor_pow2(r);
}

void run_ranks(int world, const std::function<void(Communicator&)>& fn) {
  if (world < 1 || world > kMaxWorld) {
    throw std::invalid_argument("run_ranks: world out of [1, kMaxWorld]");
  }
  InProcessGroup group(world);
  if (world == 1) {
    TreeCommunicator comm(group.transport(0));
    fn(comm);
    return;
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  auto body = [&](int r) {
    try {
      TreeCommunicator comm(group.transport(r));
      fn(comm);
    } catch (...) {
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      group.abort();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world - 1));
  for (int r = 1; r < world; ++r) threads.emplace_back(body, r);
  body(0);
  for (auto& t : threads) t.join();
  // Prefer the root cause over the AbortedError cascades it triggered.
  for (const auto& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const AbortedError&) {
      continue;
    } catch (...) {
      std::rethrow_exception(e);
    }
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace adept::comm
