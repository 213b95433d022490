// The engine's fan-out primitive: every index runs exactly once at every
// degree, tiny or serial fan-outs stay on the calling thread, and nested
// fan-outs complete.
#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace gcore {
namespace {

TEST(ResolveParallelism, ZeroMeansHardwareAndExplicitDegreesPassThrough) {
  EXPECT_GE(ResolveParallelism(0), 1u);
  EXPECT_EQ(ResolveParallelism(1), 1u);
  EXPECT_EQ(ResolveParallelism(3), 3u);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{1000}}) {
    for (size_t parallelism : {size_t{0}, size_t{1}, size_t{2}, size_t{8}}) {
      std::vector<std::atomic<int>> runs(n);
      for (auto& r : runs) r.store(0);
      ParallelFor(parallelism, n, [&](size_t i) { runs[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << "index " << i << " of n=" << n << " @ parallelism "
            << parallelism;
      }
    }
  }
}

TEST(ParallelFor, SingleIndexOrSerialDegreeStaysOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  auto threads_used = [&](size_t parallelism, size_t n) {
    std::mutex mu;
    std::set<std::thread::id> ids;
    ParallelFor(parallelism, n, [&](size_t) {
      std::lock_guard<std::mutex> lk(mu);
      ids.insert(std::this_thread::get_id());
    });
    return ids;
  };
  for (size_t parallelism : {size_t{0}, size_t{1}, size_t{2}, size_t{8}}) {
    const auto one = threads_used(parallelism, 1);
    EXPECT_EQ(one, std::set<std::thread::id>{caller})
        << "n=1 @ parallelism " << parallelism;
  }
  for (size_t n : {size_t{2}, size_t{7}, size_t{1000}}) {
    EXPECT_EQ(threads_used(1, n), std::set<std::thread::id>{caller})
        << "n=" << n << " @ parallelism 1";
  }
}

TEST(ParallelFor, NestedFanOutFinishes) {
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 50;
  std::vector<std::vector<int>> cells(kOuter, std::vector<int>(kInner, 0));
  ParallelFor(4, kOuter, [&](size_t i) {
    ParallelFor(4, kInner, [&](size_t j) { cells[i][j] += 1; });
  });
  for (size_t i = 0; i < kOuter; ++i) {
    for (size_t j = 0; j < kInner; ++j) {
      EXPECT_EQ(cells[i][j], 1) << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace gcore
