#ifndef SKYSCRAPER_DAG_THREAD_POOL_H_
#define SKYSCRAPER_DAG_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace sky::dag {

/// Fixed-size worker pool. Plays the role Ray actors play in the paper's
/// Python implementation: UDF invocations are mapped onto a bounded set of
/// workers, one logical core each.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  /// Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task);

  /// Enqueues a task and returns a future for its result. Exceptions thrown
  /// by the task surface on future::get().
  template <typename F, typename R = std::invoke_result_t<std::decay_t<F>>>
  std::future<R> SubmitWithFuture(F&& fn) {
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Submit([task] { (*task)(); });
    return future;
  }

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  bool shutdown_ = false;
};

/// Reusable cyclic barrier for a fixed set of participants — the single
/// synchronization primitive of the StreamSet scheduler's plan boundaries.
/// All participants block in ArriveAndWait until the last one arrives, which
/// releases them all; the barrier then resets for the next generation, so
/// one instance serves every boundary of a run.
///
/// The barrier's internal mutex orders each generation against the next:
/// writes a participant makes before arriving happen-before every
/// participant's return from that ArriveAndWait. So one participant that
/// works between two generations while the others wait for the second has
/// a single-threaded window, and its writes reach them all.
class Barrier {
 public:
  /// `num_participants` must be >= 1 and exactly that many threads must call
  /// ArriveAndWait per generation (a participant set fixed for the barrier's
  /// lifetime — there is no arrive_and_drop; idle participants must keep
  /// arriving).
  explicit Barrier(size_t num_participants);

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Blocks until all participants have arrived.
  void ArriveAndWait();

  size_t num_participants() const { return participants_; }

 private:
  const size_t participants_;
  size_t arrived_ = 0;
  uint64_t generation_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
};

/// Runs fn(i) for every i in [0, n) and blocks until all calls completed.
/// The calling thread participates in the work, so nested ParallelFor calls
/// sharing one pool cannot deadlock (an outer task waiting on an inner loop
/// drains that loop itself if no worker is free). Indices are claimed from a
/// shared counter, so callers that need determinism must write results into
/// per-index slots — which also makes the output independent of the thread
/// count. If any call throws, the first exception is rethrown after all
/// indices have been attempted. A null `pool` runs the loop serially.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

/// Chunked variant: runs fn(chunk_index, begin, end) over [0, n) split into
/// fixed `chunk_size` ranges. The chunk geometry depends only on n and
/// chunk_size — never on the thread count — so per-chunk RNG forks stay
/// deterministic while amortizing the fork cost over the whole range.
void ParallelForChunked(ThreadPool* pool, size_t n, size_t chunk_size,
                        const std::function<void(size_t, size_t, size_t)>& fn);

/// The pool size RunOfflinePhase and the benches default to: the hardware
/// concurrency, at least 1.
size_t DefaultThreadCount();

}  // namespace sky::dag

#endif  // SKYSCRAPER_DAG_THREAD_POOL_H_
