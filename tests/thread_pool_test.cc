#include "dag/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace sky::dag {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // the destructor runs every queued task before it joins
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::future<void> ran = pool.SubmitWithFuture([] {});
  EXPECT_EQ(ran.wait_for(std::chrono::seconds(10)), std::future_status::ready);
}

TEST(ThreadPoolTest, ParallelismActuallyHappens) {
  ThreadPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::vector<std::future<void>> done;
  for (int i = 0; i < 16; ++i) {
    done.push_back(pool.SubmitWithFuture([&] {
      int now = concurrent.fetch_add(1) + 1;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      concurrent.fetch_sub(1);
    }));
  }
  for (std::future<void>& f : done) f.get();
  EXPECT_GE(peak.load(), 2);
}

TEST(ThreadPoolTest, SubmitWithFutureReturnsValue) {
  ThreadPool pool(2);
  std::future<int> value = pool.SubmitWithFuture([] { return 41 + 1; });
  EXPECT_EQ(value.get(), 42);
}

TEST(ThreadPoolTest, SubmitWithFuturePropagatesException) {
  ThreadPool pool(2);
  std::future<void> failed = pool.SubmitWithFuture(
      [] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(failed.get(), std::runtime_error);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(&pool, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsSerially) {
  std::vector<int> order;
  ParallelFor(nullptr, 16, [&](size_t i) {
    order.push_back(static_cast<int>(i));  // safe: serial fallback
  });
  std::vector<int> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, RethrowsFirstExceptionAfterCompletion) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      ParallelFor(&pool, 100,
                  [&](size_t i) {
                    if (i == 37) throw std::runtime_error("boom");
                    completed.fetch_add(1);
                  }),
      std::runtime_error);
  // Every non-throwing index still ran: one failure does not cancel work.
  EXPECT_EQ(completed.load(), 99);
}

TEST(ParallelForTest, NestedLoopsOnSharedPoolDoNotDeadlock) {
  // Outer tasks occupy every worker and then wait on inner loops; the
  // caller-participation design must drain them regardless.
  ThreadPool pool(2);
  std::atomic<int> leaf{0};
  ParallelFor(&pool, 4, [&](size_t) {
    ParallelFor(&pool, 8, [&](size_t) { leaf.fetch_add(1); });
  });
  EXPECT_EQ(leaf.load(), 32);
}

TEST(ParallelForTest, ChunkedCoversRangeWithFixedGeometry) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  std::atomic<int> chunks_seen{0};
  ParallelForChunked(&pool, hits.size(), 32,
                     [&](size_t chunk, size_t begin, size_t end) {
                       chunks_seen.fetch_add(1);
                       EXPECT_EQ(begin, chunk * 32);
                       for (size_t i = begin; i < end; ++i) {
                         hits[i].fetch_add(1);
                       }
                     });
  EXPECT_EQ(chunks_seen.load(), 4);  // 32+32+32+4
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, PerIndexRngForksAreThreadCountInvariant) {
  sky::Rng base(123);
  auto draw = [&](ThreadPool* pool, size_t threads) {
    std::vector<double> values(64);
    ParallelFor(pool, values.size(), [&](size_t i) {
      sky::Rng child = base.ForkIndex(i);
      values[i] = child.Uniform(0.0, 1.0);
    });
    return values;
  };
  std::vector<double> serial = draw(nullptr, 1);
  ThreadPool pool(4);
  std::vector<double> parallel = draw(&pool, 4);
  EXPECT_EQ(serial, parallel);
}

TEST(BarrierTest, ReleasesEveryParticipantEachGeneration) {
  constexpr size_t kParticipants = 4;
  constexpr int kGenerations = 50;
  Barrier barrier(kParticipants);
  EXPECT_EQ(barrier.num_participants(), kParticipants);
  std::vector<int> rounds(kParticipants, 0);
  std::vector<std::thread> threads;
  for (size_t p = 0; p < kParticipants; ++p) {
    threads.emplace_back([&, p] {
      for (int g = 0; g < kGenerations; ++g) {
        barrier.ArriveAndWait();
        ++rounds[p];  // own slot: no synchronization needed
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t p = 0; p < kParticipants; ++p) {
    EXPECT_EQ(rounds[p], kGenerations) << "participant " << p;
  }
}

TEST(BarrierTest, OneParticipantWritesBetweenTwoGenerations) {
  // The StreamSet scheduler's boundary window: participant 0 writes a plain
  // counter after every participant arrived and before the next arrival;
  // every participant reads it after that arrival. The counter is
  // deliberately unsynchronized, so any ordering flaw shows up as a wrong
  // read — and as a race report under TSan.
  constexpr size_t kParticipants = 4;
  constexpr int kGenerations = 200;
  Barrier barrier(kParticipants);
  int plain_counter = 0;
  std::atomic<int> wrong_reads{0};
  std::vector<std::thread> threads;
  for (size_t p = 0; p < kParticipants; ++p) {
    threads.emplace_back([&, p] {
      for (int g = 0; g < kGenerations; ++g) {
        barrier.ArriveAndWait();
        if (p == 0) ++plain_counter;
        barrier.ArriveAndWait();
        if (plain_counter != g + 1) wrong_reads.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(plain_counter, kGenerations);
  EXPECT_EQ(wrong_reads.load(), 0);
}

TEST(BarrierTest, SingleParticipantNeverBlocks) {
  Barrier barrier(1);
  int runs = 0;
  for (int g = 0; g < 5; ++g) {
    barrier.ArriveAndWait();
    ++runs;
  }
  EXPECT_EQ(runs, 5);
  Barrier clamped(0);
  EXPECT_EQ(clamped.num_participants(), 1u);
  clamped.ArriveAndWait();
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        counter.fetch_add(1);
      });
    }
  }  // tasks still queued at destruction run before the join
  EXPECT_EQ(counter.load(), 10);
}

}  // namespace
}  // namespace sky::dag
