// The benchmark's workloads. Each drives the engine through its public
// API as closed-loop clients (a client sends its next request only after
// the reply), at default EngineOptions.
//
//   tour       the paper's 15-query listing on the Figure 4 toy data
//   paper_snb  listing Q1-Q12 + SELECT on a 200-person SNB graph
//   serve      an SNB serving mix on 20,000 persons, two clients
//   coldstart  snapshot file -> fresh catalog -> first lookup, and
//              re-registration under a live engine -> next lookup
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "harness.h"
#include "trace.h"

namespace perfbench {

/// One completed request of a timed loop.
struct Sample {
  double ms = 0.0;
  QueryClass cls = QueryClass::kOther;
  /// coldstart only: 0 = register on a fresh catalog, 1 = re-register
  /// under the live engine; -1 elsewhere.
  int step = -1;
  /// Completion time since the window opened.
  double end_ms = 0.0;
  /// Set when the request ran through the Tracer.
  LayerSpans spans;
};

/// What one closed-loop window produced.
struct RunStats {
  std::vector<Sample> samples;
  size_t attempted = 0;
  size_t failed = 0;
  double window_s = 0.0;
  /// Requests per second of each epoch of the window: a listing pass, a
  /// cold-start cycle, a one-second slice of the serving window. Their
  /// median is the reported qps, so a stall of the shared host during a
  /// minority of epochs does not move it.
  std::vector<double> epoch_qps;
  double cpu_ms = 0.0;
  gcore::PlanCacheCounters cache;  // deltas over the window
  size_t retired_after = 0;        // catalog.RetiredCount() after the loop
};

/// Set-up and storage layer timings, filled as the workload builds its
/// state (negative = not measured).
struct SetupLayers {
  double generate_ms = -1.0;
  double freeze_ms = -1.0;
  double stats_ms = -1.0;
  double save_ms = -1.0;
  double mmap_ms = -1.0;
  double register_file_ms = -1.0;
  double image_mb = -1.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Clients of the timed run.
  virtual int clients() const { return 1; }
  /// Percentile reported as latency_tail_ms: the highest of
  /// p99/p95/p90 (p75 when the workload runs fewer than 100 requests per
  /// window) with at least ten samples beyond it at seed speed.
  virtual int tail_percentile() const = 0;
  /// SNB persons of the workload's data (0 for the toy data).
  virtual size_t scale() const = 0;
  /// Set-ups per timed run; setup_s is their median.
  virtual int setups() const { return 3; }
  /// Untimed loop before the window, so worker threads' allocator arenas
  /// and the plan cache reach their steady state before peak memory and
  /// latency are measured (0 = none).
  virtual double warmup_seconds() const { return 0.0; }

  /// Builds the data, catalog and engine, replacing any earlier state.
  virtual void SetUp() = 0;
  /// Computes reference results (parallelism 1, plan cache off) for
  /// everything the timed loops can check inline.
  virtual void PrepareReferences() {}
  /// One closed-loop window of `seconds`. `traced` sends requests
  /// through the Tracer instead of a QuerySession.
  virtual RunStats Run(double seconds, bool traced, int clients) = 0;
  /// Checks results the loops could not check inline; returns the number
  /// of requests whose result was wrong.
  virtual size_t Verify() { return 0; }

  /// Engine the traced analysis runs EXPLAIN ANALYZE and uncached
  /// executions against, and the texts it analyses.
  virtual gcore::QueryEngine* analysis_engine() = 0;
  virtual std::vector<std::string> AnalysisTexts() = 0;
  /// Saves the workload's main graph and times loading it back
  /// (mmap, file registration), filling the storage layer fields.
  virtual void MeasureStorageLayers(const std::string& workdir) = 0;

  const SetupLayers& layers() const { return layers_; }

 protected:
  SetupLayers layers_;
};

/// The workload named `name`, or null. Scratch files go under `workdir`.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed,
                                       const std::string& workdir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
