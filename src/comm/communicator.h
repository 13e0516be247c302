// Rank collectives for data-parallel search and training.
//
// Communicator is one rank's handle on an in-process group of rank threads.
// It owns the chunking and — critically — the reduction order.
// allreduce_sum computes every output element with a fixed pairwise tree
// over rank indices
//
//   stride = 1, 2, 4, ...:   v[r] += v[r + stride]
//
// evaluated serially per element by exactly one owner rank. Chunk boundaries
// depend only on the buffer size (never on thread counts or arrival order),
// and every rank copies the same owner-reduced bytes, so:
//   * all ranks leave an allreduce with bit-identical buffers, and
//   * the result is a pure function of the per-rank inputs — re-running the
//     collective on any machine, at any ADEPT_NUM_THREADS, gives the same
//     bits. This is the same size-only-chunking discipline the backend
//     kernels use (backend/parallel.h), lifted one level up.
//
// Ranks exchange data through a one-sided window table: each rank publishes
// a pointer to its buffer, peers read it directly (same address space), and
// a generation-counted barrier after every publish and before every buffer
// reuse is the happens-before edge that makes those reads safe. Ranks that
// publish different lengths (mismatched n is caller misuse) all throw before
// any of them reads a peer, and no read goes past a peer's published length.
// A zero-length call publishes too, so it meets that check; a negative n
// throws std::invalid_argument, which aborts the world like any other
// throwing rank.
//
// World sizes are powers of two up to kMaxWorld, which keeps rank subtrees
// aligned with the micro-shard tree in comm/sharded.h (see that header for
// why N-rank gradients then match 1-rank bit for bit).
//
// run_ranks() is the only way to get a Communicator: it spawns `world` rank
// threads (rank 0 runs on the caller's thread) and turns a throwing rank
// into a world-wide abort instead of a deadlock (the group's barrier is
// poisoned, so peers blocked in a collective unblock with AbortedError; the
// original exception is rethrown to the caller). Rank kernels share the
// backend's one core budget (backend/parallel.h), so ranks x kernel threads
// never oversubscribes the machine.
//
// Telemetry: collectives on a world of two or more ranks record the
// comm.allreduce.{calls,bytes} counters and a comm.allreduce span; a world
// of one moves nothing and records nothing.
//
// Failpoints: every allreduce evaluates the "comm.allreduce" site, so tests
// and operators can inject a mid-collective death (see common/failpoint.h).
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

namespace adept::comm {

// Hard cap on the in-process world size; also the widest rank tree the fixed
// reduction order supports.
inline constexpr int kMaxWorld = 8;

// Thrown out of any barrier-shaped call once a peer rank has failed: the
// collective cannot complete. Derives from std::runtime_error so generic
// catch sites treat it like any other collective failure.
struct AbortedError : std::runtime_error {
  AbortedError() : std::runtime_error("comm: collective aborted by a peer rank") {}
};

class InProcessGroup;  // shared state of one world, in communicator.cpp

class Communicator {
 public:
  int rank() const { return rank_; }
  int world_size() const { return world_; }
  // In-place elementwise sum across ranks; all ranks end with identical bits.
  void allreduce_sum(float* data, std::int64_t n);
  void allreduce_sum(double* data, std::int64_t n);
  void barrier();

 private:
  friend void run_ranks(int world,
                        const std::function<void(Communicator&)>& fn);
  Communicator(InProcessGroup& group, int rank, int world)
      : group_(&group), rank_(rank), world_(world) {}

  template <typename T>
  void allreduce_impl(T* data, std::int64_t n);

  InProcessGroup* group_;
  int rank_;
  int world_;
  std::vector<unsigned char> reduced_;  // owner-reduced chunks, full length
};

// Largest world the environment-driven knob may resolve to on this machine:
// hardware concurrency clamped to [1, kMaxWorld].
int max_world_size();

// Resolve a rank-count request to an effective world size.
//   requested > 0   explicit programmatic request: clamped to [1, kMaxWorld]
//                   (tests and benches may oversubscribe small machines —
//                   ranks beyond the core count timeslice; the kernel
//                   core budget keeps total threads bounded)
//   requested <= 0  read the ADEPT_RANKS environment knob: clamped to
//                   [1, max_world_size()]; unset, unparsable, or
//                   non-positive values fall back to 1
// Either way the result is rounded DOWN to a power of two so rank subtrees
// stay aligned with the fixed reduction tree (3 -> 2, 5..7 -> 4).
int resolve_ranks(int requested = 0);

// Run fn(comm) on `world` in-process rank threads and wait for all of them.
// Rank 0 executes on the calling thread. If any rank throws, the group is
// aborted (peers unblock with AbortedError) and the lowest-rank non-abort
// exception is rethrown after the join.
void run_ranks(int world, const std::function<void(Communicator&)>& fn);

}  // namespace adept::comm
