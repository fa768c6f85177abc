#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ghd {

int EffectiveThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(int threads, int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  const int executors = std::min(EffectiveThreads(threads), n);
  if (executors == 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu
  auto work = [&] {
    for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (error == nullptr) error = std::current_exception();
        next.store(n);  // hand out no further indices
      }
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(executors - 1);
  for (int t = 1; t < executors; ++t) workers.emplace_back(work);
  work();
  for (std::thread& t : workers) t.join();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace ghd
