// The engine's one fan-out primitive.
//
// Every place that spreads work over threads — the executor's fused
// pipeline stages, the parallel path kernels — calls ParallelFor, and
// every `parallelism = 0` ("one per hardware thread") is resolved by
// ResolveParallelism. How the engine schedules threads is therefore
// decided here and nowhere else.
//
// ParallelFor is deterministic by construction: each index owns its own
// output slot in the caller, so results are a pure function of the input
// regardless of which thread ran which index.
#ifndef GCORE_COMMON_PARALLEL_H_
#define GCORE_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace gcore {

/// Resolves a requested degree: 0 means one per hardware thread; the
/// result is always >= 1.
size_t ResolveParallelism(size_t requested);

/// Runs fn(i) for i in [0, n) across at most `parallelism` threads (0 =
/// ResolveParallelism's default). When min(degree, n) <= 1 every call
/// runs inline on the calling thread; otherwise the calling thread works
/// alongside the spawned ones. Work is claimed via an atomic counter, but
/// each index owns its own output slot, so results never depend on the
/// schedule. fn must not throw; report errors through per-index slots.
/// Calls may nest (fn may itself call ParallelFor).
void ParallelFor(size_t parallelism, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace gcore

#endif  // GCORE_COMMON_PARALLEL_H_
