#include "dag/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace sky::dag {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

Barrier::Barrier(size_t num_participants)
    : participants_(num_participants == 0 ? 1 : num_participants) {}

void Barrier::ArriveAndWait() {
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t gen = generation_;
  if (++arrived_ == participants_) {
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] { return generation_ != gen; });
}

namespace {

/// Shared by the caller and the helper tasks of one ParallelFor. Held via
/// shared_ptr: helper tasks that only get scheduled after the loop finished
/// find no index left and return without touching anything but the counter.
struct ParallelForState {
  explicit ParallelForState(std::function<void(size_t)> f, size_t count)
      : fn(std::move(f)), n(count) {}

  std::function<void(size_t)> fn;
  const size_t n;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;
};

void DrainParallelFor(const std::shared_ptr<ParallelForState>& state) {
  for (;;) {
    size_t i = state->next.fetch_add(1);
    if (i >= state->n) return;
    try {
      state->fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(state->mu);
      if (!state->error) state->error = std::current_exception();
    }
    if (state->done.fetch_add(1) + 1 == state->n) {
      // Notify under the mutex so the caller cannot miss the wakeup between
      // its predicate check and its wait.
      std::lock_guard<std::mutex> lock(state->mu);
      state->cv.notify_all();
    }
  }
}

}  // namespace

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || pool->num_threads() <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<ParallelForState>(fn, n);
  size_t helpers = std::min(n - 1, pool->num_threads());
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([state] { DrainParallelFor(state); });
  }
  DrainParallelFor(state);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->done.load() == state->n; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

void ParallelForChunked(
    ThreadPool* pool, size_t n, size_t chunk_size,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  if (chunk_size == 0) chunk_size = 1;
  size_t chunks = (n + chunk_size - 1) / chunk_size;
  ParallelFor(pool, chunks, [&](size_t c) {
    size_t begin = c * chunk_size;
    size_t end = std::min(n, begin + chunk_size);
    fn(c, begin, end);
  });
}

size_t DefaultThreadCount() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

}  // namespace sky::dag
