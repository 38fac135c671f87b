#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace icr::util {
namespace {

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPool, ZeroRequestClampsToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  parallel_for(pool, hits.size(),
               [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsANoOp) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForRethrowsTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 64,
                            [](std::size_t i) {
                              if (i == 13) {
                                throw std::runtime_error("unlucky");
                              }
                            }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Every thread of the outer call runs an inner parallel_for at once;
  // each inner call starts helpers of its own.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  parallel_for(pool, 8, [&pool, &total](std::size_t) {
    parallel_for(pool, 8, [&total](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

// The campaign and perfbench build ThreadPool(N - 1) to run N threads
// (perfbench's pool_busy_frac divides by N): both rely on this bound.
TEST(ThreadPool, ParallelForUsesAtMostSizePlusOneThreads) {
  ThreadPool pool(3);
  std::vector<std::thread::id> ran_on(200);
  parallel_for(pool, ran_on.size(), [&ran_on](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  });
  const std::set<std::thread::id> distinct(ran_on.begin(), ran_on.end());
  EXPECT_EQ(distinct.count(std::thread::id()), 0u) << "an index never ran";
  EXPECT_LE(distinct.size(), pool.size() + 1);
}

TEST(ThreadPool, ManyIndicesOnSingleWorker) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  parallel_for(pool, 5000, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5000);
}

}  // namespace
}  // namespace icr::util
