#include "common/thread_pool.h"

#include <thread>
#include <vector>

namespace sqlink {

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&fn, i] { fn(i); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

}  // namespace sqlink
