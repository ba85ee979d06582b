// Fixed-size thread pool with a blocking parallel_for.
//
// The SIMD simulators apply the same operation to every PE; on the host we
// split the PE index range into contiguous chunks so results are
// deterministic regardless of thread count (each index writes only its own
// slot). A pool size of 0 or 1 degrades to a plain sequential loop with no
// thread machinery at all, which keeps the small-array experiments honest
// (no pool overhead pollutes the E4/E5 step measurements — those count SIMD
// steps, not wall time — and keeps E6's 1-thread baseline clean).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ppa::util {

/// Reusable worker pool. Threads are started once and parked between calls;
/// parallel_for blocks until every chunk completed. Exceptions thrown by the
/// body are captured and rethrown on the calling thread (first one wins).
class ThreadPool {
 public:
  /// `worker_count` == 0 or 1 means: run everything inline on the caller.
  explicit ThreadPool(std::size_t worker_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Applies `body(begin, end)` over [0, total) split into contiguous
  /// chunks, one chunk per worker (plus the caller's share). Blocks until
  /// done.
  void parallel_for(std::size_t total,
                    const std::function<void(std::size_t begin, std::size_t end)>& body);

  /// Cumulative wall time each lane spent inside parallel_for bodies since
  /// construction (docs/observability.md). Lane 0 is the caller's share,
  /// lanes 1..worker_count the workers — the spread across lanes is the
  /// chunk-imbalance signal the utilization profiler reports. Inline mode
  /// (<= 1 worker) keeps a single lane-0 slot. Snapshot/delta only between
  /// parallel_for calls: every slot is written either by the caller or
  /// under mutex_ before the final pending_ handoff, so a post-join read
  /// is race-free.
  [[nodiscard]] std::vector<double> busy_seconds();

 private:
  struct Job {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void worker_main(std::size_t worker_index);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::vector<Job> jobs_;         // one slot per worker
  std::vector<bool> job_ready_;   // guarded by mutex_
  std::vector<double> busy_;      // per-lane busy seconds; lane 0 = caller
  std::size_t pending_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

}  // namespace ppa::util
