#include "exec/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

namespace pcm::exec {

std::vector<std::exception_ptr> parallel_for(
    int jobs, std::size_t n, const std::function<void(std::size_t)>& fn) {
  // One pre-sized slot per index: threads write disjoint entries, so no
  // lock is needed.
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  if (jobs <= 0) {
    jobs = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  const auto threads = std::min(static_cast<std::size_t>(jobs), n);
  if (threads <= 1) {
    work();
    return errors;
  }
  std::vector<std::jthread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(work);
  pool.clear();  // joins every thread
  return errors;
}

}  // namespace pcm::exec
