// darl/linalg/thread_pool.hpp
//
// Persistent worker pool for the gemm row schedule (DESIGN.md §16).
// One process-wide pool, sized once from DARL_LINALG_THREADS (default 1 =
// no worker threads at all), hands fixed chunk indices to long-lived
// workers — no per-call thread spawn on the kernel hot path. The caller
// participates as worker 0, so a pool of width W spawns W-1 threads.
//
// Determinism contract: run(task, ctx) invokes task(ctx, w, width) exactly
// once for every w in [0, width). The gemm schedule derives a fixed,
// disjoint row range from (w, width), so the arithmetic performed — and
// therefore every output bit — is identical whether chunks execute on
// worker threads, or inline on the caller (width 1, nested call, or a
// concurrent gemm from another thread that found the pool busy).
//
// This is the ONLY sanctioned std::thread construction site under
// src/darl/linalg + src/darl/nn; darl_lint enforces that (see
// tools/lint_engine.hpp, "thread-outside-pool").

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "darl/common/thread_safety.hpp"

namespace darl::linalg {

/// Process-wide persistent worker pool. Thread-safe: concurrent run()
/// calls are serialized by an atomic busy flag — the loser executes its
/// chunks inline (bitwise-identical results either way). configure() must
/// only be called at quiescent points (no run() in flight); benches and
/// tests use it to sweep widths.
class ThreadPool {
 public:
  /// Chunk function: invoked as task(ctx, w, width) for each worker index
  /// w in [0, width). Must not call ThreadPool::run (a nested call would
  /// fall back to inline execution, which is correct but defeats the
  /// point) and must confine writes to chunk-owned data.
  using Task = void (*)(void* ctx, std::size_t worker, std::size_t width);

  /// The singleton pool, sized from DARL_LINALG_THREADS on first use.
  static ThreadPool& instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Current width (>= 1). Width 1 means no worker threads exist.
  std::size_t width() const { return width_; }

  /// Join all workers and restart at `width` (clamped to [1, 64]).
  /// Not thread-safe against run(); call only while the pool is idle.
  void configure(std::size_t width);

  /// Execute task(ctx, w, width) for every w. Worker threads take
  /// w in [1, width); the calling thread runs w = 0, then blocks until
  /// all chunks are done. If the pool is busy with another run (nested or
  /// concurrent caller), every chunk runs inline on this thread instead.
  void run(Task task, void* ctx);

 private:
  ThreadPool();

  void start_workers() DARL_REQUIRES(mutex_);
  void stop_workers();
  void worker_loop(std::size_t w);

  std::size_t width_ = 1;  ///< set by ctor/configure while idle, read-only during run
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable work_cv_;   ///< signals a new epoch to workers
  std::condition_variable done_cv_;   ///< signals pending_ == 0 to the caller
  std::uint64_t epoch_ DARL_GUARDED_BY(mutex_) = 0;
  Task task_ DARL_GUARDED_BY(mutex_) = nullptr;
  void* ctx_ DARL_GUARDED_BY(mutex_) = nullptr;
  std::size_t pending_ DARL_GUARDED_BY(mutex_) = 0;
  bool stopping_ DARL_GUARDED_BY(mutex_) = false;

  /// run() serializer: losers execute inline rather than blocking, so a
  /// nested or concurrent gemm can never deadlock on the pool.
  std::atomic<bool> busy_{false};
};

/// Width requested by DARL_LINALG_THREADS (>= 1; 1 when unset/invalid).
std::size_t env_thread_width();

}  // namespace darl::linalg
