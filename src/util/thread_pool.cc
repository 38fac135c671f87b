#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace icr::util {

unsigned ThreadPool::hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

void parallel_for(const ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  {
    const std::size_t helpers =
        n > 1 ? std::min<std::size_t>(pool.size(), n - 1) : 0;
    std::vector<std::jthread> threads;
    threads.reserve(helpers);
    for (std::size_t t = 0; t < helpers; ++t) threads.emplace_back(drain);
    drain();
  }  // joins the helpers

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace icr::util
