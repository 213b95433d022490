#include "trace.h"

#include <time.h>

#include <chrono>

#include "engine/validator.h"
#include "eval/constructor.h"
#include "eval/matcher.h"
#include "harness.h"
#include "parser/parser.h"
#include "plan/executor.h"
#include "plan/planner.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

namespace {

double ElapsedMs(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// One MATCH pipeline whose locations the planner resolves on its own.
bool DecomposableShape(const gcore::Query& query) {
  if (query.explain || !query.path_clauses.empty() ||
      !query.graph_clauses.empty() || query.body == nullptr ||
      query.body->kind != gcore::QueryBody::Kind::kBasic) {
    return false;
  }
  const gcore::BasicQuery& basic = *query.body->basic;
  if (!basic.match.has_value()) return false;
  size_t located = 0;
  size_t total = 0;
  auto scan = [&](const std::vector<gcore::GraphPattern>& patterns) {
    for (const auto& p : patterns) {
      if (p.on_subquery != nullptr) return false;
      ++total;
      if (!p.on_graph.empty()) ++located;
    }
    return true;
  };
  if (!scan(basic.match->patterns)) return false;
  for (const auto& block : basic.match->optionals) {
    if (!scan(block.patterns)) return false;
  }
  // A clause-level ON also applies to the clause's unlocated patterns;
  // that rule lives inside the matcher, so mixed clauses go through
  // Execute.
  return located == 0 || located == total;
}

}  // namespace

double LayerSpans::LayerSumMs() const {
  return (parse_us + validate_us + plan_us) / 1000.0 + run_ms +
         (construct_ms > 0.0 ? construct_ms : 0.0);
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

bool Tracer::Decomposable(const std::string& text) {
  auto it = decomposable_.find(text);
  if (it != decomposable_.end()) return it->second;
  bool ok = false;
  if (!MentionsKeyword(text, "EXISTS")) {
    auto parsed = gcore::ParseQuery(text);
    ok = parsed.ok() && DecomposableShape(**parsed);
  }
  decomposable_.emplace(text, ok);
  return ok;
}

Outcome Tracer::Run(const std::string& text,
                    const gcore::EngineOptions& options) {
  Outcome out;
  if (!Decomposable(text)) {
    const auto t0 = Clock::now();
    auto result = engine_->Execute(text, options);
    out.spans.total_ms = ElapsedMs(t0, Clock::now());
    out.ok = result.ok();
    if (out.ok) {
      out.fingerprint = ResultFingerprint(*result);
    } else {
      out.error = result.status().ToString();
    }
    return out;
  }

  gcore::GraphCatalog* catalog = engine_->catalog();
  LayerSpans& spans = out.spans;
  spans.decomposed = true;
  auto fail = [&](const gcore::Status& status) {
    out.error = status.ToString();
    return out;
  };

  const auto t_parse = Clock::now();
  auto parsed = gcore::ParseQuery(text);
  const auto t_validate = Clock::now();
  spans.parse_us = ElapsedMs(t_parse, t_validate) * 1000.0;
  if (!parsed.ok()) return fail(parsed.status());
  const gcore::Query& query = **parsed;
  gcore::Status valid = gcore::ValidateQuery(query);
  spans.validate_us = ElapsedMs(t_validate, Clock::now()) * 1000.0;
  if (!valid.ok()) return fail(valid);

  const gcore::BasicQuery& basic = *query.body->basic;
  gcore::GraphCatalog::ReaderGuard guard(catalog);
  gcore::MatcherContext ctx;
  static_cast<gcore::EngineOptions&>(ctx) = options;
  ctx.catalog = catalog;
  ctx.default_graph = catalog->default_graph();
  gcore::Matcher matcher(ctx);

  const auto t_plan = Clock::now();
  gcore::Planner planner(&matcher, gcore::PlannerOptions::FromContext(ctx));
  auto plan = planner.PlanMatch(*basic.match);
  const auto t_run = Clock::now();
  spans.plan_us = ElapsedMs(t_plan, t_run) * 1000.0;
  if (!plan.ok()) return fail(plan.status());

  gcore::ExecContext exec;
  exec.parallelism = options.parallelism;
  exec.morsel_size = options.morsel_size;
  gcore::Executor executor(&matcher, exec);
  const double cpu_before = ProcessCpuMs();
  const auto t_run_begin = Clock::now();
  auto bindings = executor.Run(**plan);
  const auto t_run_end = Clock::now();
  spans.run_cpu_ms = ProcessCpuMs() - cpu_before;
  spans.run_ms = ElapsedMs(t_run_begin, t_run_end);
  if (!bindings.ok()) return fail(bindings.status());

  gcore::QueryResult result;
  if (basic.construct.has_value()) {
    gcore::ConstructorContext cctx;
    cctx.catalog = catalog;
    cctx.default_graph = ctx.default_graph;
    gcore::Constructor constructor(cctx);
    const auto t_construct = Clock::now();
    auto built = constructor.EvalConstruct(*basic.construct, *bindings);
    spans.construct_ms = ElapsedMs(t_construct, Clock::now());
    if (!built.ok()) return fail(built.status());
    spans.objects_out =
        built->NumNodes() + built->NumEdges() + built->NumPaths();
    result.graph = std::move(*built);
  }
  spans.total_ms = ElapsedMs(t_parse, Clock::now());
  out.ok = true;
  if (result.IsGraph()) out.fingerprint = ResultFingerprint(result);
  return out;
}

}  // namespace perfbench
