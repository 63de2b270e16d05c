#pragma once

/// \file thread_pool.h
/// \brief A small fixed-size worker pool with a blocking ParallelFor, used
/// by the clustering engine's batch-parallel assignment step.
///
/// The pool is deliberately minimal: one kind of job (a chunked index
/// range), one caller at a time, no futures. Determinism is the caller's
/// concern — ParallelFor only guarantees that every chunk runs exactly
/// once and that the call returns after the last chunk finished. Workers
/// receive a stable `worker_index` in [0, num_threads) so callers can give
/// each worker its own scratch state instead of locking.
///
/// All dispatch state is guarded by one annotated `Mutex`
/// (util/thread_annotations.h), so clang's `-Wthread-safety` proves at
/// compile time that no job field is touched without it; the user-supplied
/// chunk function itself runs unlocked, which is the whole point.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace lshclust {

/// Maps a thread-count option to an actual worker count: 0 means "one per
/// hardware thread", anything else is taken literally (minimum one). The
/// shared interpretation of every `num_threads`-style knob in the library.
inline uint32_t ResolveThreadCount(uint32_t requested) {
  if (requested == 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return requested;
}

/// \brief Fixed pool of worker threads executing chunked index ranges.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit ThreadPool(uint32_t num_threads) {
    const uint32_t count = std::max(1u, num_threads);
    workers_.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      MutexLock lock(mutex_);
      stop_ = true;
    }
    work_cv_.NotifyAll();
    for (auto& worker : workers_) worker.join();
  }

  /// Number of worker threads.
  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size());
  }

  /// Splits [begin, end) into consecutive chunks of `chunk_size` (the last
  /// chunk may be shorter) and invokes
  /// `fn(chunk_begin, chunk_end, worker_index)` for each across the
  /// workers. Blocks until every chunk completed. Chunk boundaries are a
  /// pure function of (begin, end, chunk_size) — never of thread timing —
  /// so callers that keep per-chunk results get a deterministic
  /// decomposition. Must not be called concurrently or from a worker.
  void ParallelFor(uint32_t begin, uint32_t end, uint32_t chunk_size,
                   const std::function<void(uint32_t, uint32_t, uint32_t)>& fn)
      LSHC_LOCKS_EXCLUDED(mutex_) {
    if (begin >= end) return;
    chunk_size = std::max(1u, chunk_size);
    MutexLock lock(mutex_);
    end_ = end;
    chunk_size_ = chunk_size;
    next_ = begin;
    completed_ = 0;
    total_chunks_ =
        (static_cast<uint64_t>(end) - begin + chunk_size - 1) / chunk_size;
    fn_ = &fn;
    ++job_epoch_;
    work_cv_.NotifyAll();
    while (completed_ != total_chunks_) done_cv_.Wait(mutex_);
    fn_ = nullptr;
  }

 private:
  void WorkerLoop(uint32_t worker_index) LSHC_LOCKS_EXCLUDED(mutex_) {
    uint64_t seen_epoch = 0;
    mutex_.Lock();
    while (true) {
      while (!stop_ && job_epoch_ == seen_epoch) work_cv_.Wait(mutex_);
      if (stop_) break;
      seen_epoch = job_epoch_;
      while (next_ < end_) {
        const uint32_t chunk_begin = next_;
        const uint32_t chunk_end =
            static_cast<uint32_t>(std::min<uint64_t>(
                end_, static_cast<uint64_t>(chunk_begin) + chunk_size_));
        next_ = chunk_end;
        const auto* fn = fn_;
        mutex_.Unlock();
        (*fn)(chunk_begin, chunk_end, worker_index);
        mutex_.Lock();
        ++completed_;
        if (completed_ == total_chunks_) done_cv_.NotifyAll();
      }
    }
    mutex_.Unlock();
  }

  Mutex mutex_;
  CondVar work_cv_;
  CondVar done_cv_;
  std::vector<std::thread> workers_;
  const std::function<void(uint32_t, uint32_t, uint32_t)>* fn_
      LSHC_GUARDED_BY(mutex_) = nullptr;
  uint32_t end_ LSHC_GUARDED_BY(mutex_) = 0;
  uint32_t chunk_size_ LSHC_GUARDED_BY(mutex_) = 1;
  uint32_t next_ LSHC_GUARDED_BY(mutex_) = 0;
  uint64_t completed_ LSHC_GUARDED_BY(mutex_) = 0;
  uint64_t total_chunks_ LSHC_GUARDED_BY(mutex_) = 0;
  uint64_t job_epoch_ LSHC_GUARDED_BY(mutex_) = 0;
  bool stop_ LSHC_GUARDED_BY(mutex_) = false;
};

}  // namespace lshclust
