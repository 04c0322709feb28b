#ifndef SQLINK_COMMON_THREAD_POOL_H_
#define SQLINK_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace sqlink {

/// Runs `fn(i)` for i in [0, n) on `n` dedicated threads and joins them all.
/// This is the "one thread per worker" pattern used by the simulated cluster
/// (SQL workers, ML workers), where worker identity matters.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

}  // namespace sqlink

#endif  // SQLINK_COMMON_THREAD_POOL_H_
