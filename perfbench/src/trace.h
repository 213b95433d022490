// The traced run's request path: a query is executed through the public
// entry points of each layer — ParseQuery → ValidateQuery →
// Planner::PlanMatch → Executor::Run → Constructor::EvalConstruct — with a
// span around every call. Nothing inside the library is instrumented.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <map>
#include <string>

#include "engine/engine.h"

namespace perfbench {

/// Spans of one traced request. Layer fields are meaningful only when
/// `decomposed`; `construct_ms` stays negative when no CONSTRUCT ran.
struct LayerSpans {
  bool decomposed = false;
  double parse_us = 0.0;
  double validate_us = 0.0;
  double plan_us = 0.0;
  double run_ms = 0.0;
  double run_cpu_ms = 0.0;
  double construct_ms = -1.0;
  size_t objects_out = 0;
  /// Wall time of the whole request.
  double total_ms = 0.0;

  /// Sum of the layer spans (what the layers account for).
  double LayerSumMs() const;
};

/// One request's outcome, traced or not.
struct Outcome {
  bool ok = false;
  std::string error;
  /// Filled by the Tracer only.
  LayerSpans spans;
  /// ResultFingerprint of the result; empty for a decomposed SELECT, whose
  /// projection tail has no public entry point and is not run.
  std::string fingerprint;
};

/// Runs queries layer by layer against `engine`'s catalog. Queries that do
/// not decompose into one MATCH pipeline — views and PATH heads, set
/// operations, EXISTS, FROM, ON (subquery), a clause-level ON shared with
/// unlocated patterns — run through QueryEngine::Execute as one span.
class Tracer {
 public:
  explicit Tracer(gcore::QueryEngine* engine) : engine_(engine) {}

  Outcome Run(const std::string& text, const gcore::EngineOptions& options);

  /// Whether `text` takes the layer-by-layer path.
  bool Decomposable(const std::string& text);

 private:
  gcore::QueryEngine* engine_;
  std::map<std::string, bool> decomposable_;
};

/// Process CPU time in milliseconds (all threads).
double ProcessCpuMs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
