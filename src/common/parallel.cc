#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace gcore {

size_t ResolveParallelism(size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

void ParallelFor(size_t parallelism, size_t n,
                 const std::function<void(size_t)>& fn) {
  const size_t degree = std::min(ResolveParallelism(parallelism), n);
  if (degree <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= n) return;
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(degree - 1);
  for (size_t t = 0; t + 1 < degree; ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
}

}  // namespace gcore
