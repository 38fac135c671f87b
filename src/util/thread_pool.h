// Parallelism for the campaign engine (src/sim/campaign.h): a worker count
// and parallel_for, which starts that many threads for one call and joins
// them before returning. Its callers run one parallel_for per campaign
// grid, so a thread start per call costs nothing they could measure.
//
// Design constraints, in order:
//   1. Determinism of *results* must not depend on scheduling: callers
//      write to pre-assigned slots, so execution order never changes output.
//   2. An exception thrown by fn reaches the caller of parallel_for.
//   3. A parallel_for inside fn cannot deadlock: it starts threads of its
//      own and never waits on another call's work.
#pragma once

#include <cstddef>
#include <functional>

namespace icr::util {

class ThreadPool {
 public:
  // `threads` == 0 picks hardware_threads().
  explicit ThreadPool(unsigned threads = 0)
      : size_(threads == 0 ? hardware_threads() : threads) {}

  [[nodiscard]] unsigned size() const noexcept { return size_; }

  // std::thread::hardware_concurrency(), clamped to at least 1.
  [[nodiscard]] static unsigned hardware_threads() noexcept;

 private:
  unsigned size_;
};

// Runs fn(0) .. fn(n-1) on the calling thread plus min(pool.size(), n - 1)
// helper threads, at most pool.size() + 1 threads in all, and returns when
// all calls finished. Indices are claimed from a shared counter, so callers
// must not assume any execution order. If one or more calls throw, the
// first exception (by completion order) is rethrown after every in-flight
// call has finished; remaining unclaimed indices are abandoned. n == 0
// returns immediately.
void parallel_for(const ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace icr::util
