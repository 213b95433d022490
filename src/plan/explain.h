// EXPLAIN [ANALYZE] <query>: the one renderer of a full query's plan.
//
// Every MATCH clause renders as its optimized binding pipeline; set
// operations over basic queries render as the graph-level GraphUnion /
// GraphIntersect / GraphMinus operators above the pipelines; GRAPH and
// GRAPH VIEW head clauses render their own query as a subtree.
//
// Plain EXPLAIN plans without executing (with unresolved locations
// tolerated, since ON-subquery graphs only exist at execution time).
// EXPLAIN ANALYZE executes the query first, through the engine's normal
// path, with an ExecutedPlans record: each rendered basic query then
// prints the plan it actually ran, with actual_rows / actual_ms next to
// the estimates — the same tree EXPLAIN draws, plus actuals.
#ifndef GCORE_PLAN_EXPLAIN_H_
#define GCORE_PLAN_EXPLAIN_H_

#include <map>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "common/result.h"
#include "plan/plan.h"

namespace gcore {

class Matcher;

/// What one basic query did when it executed under EXPLAIN ANALYZE.
struct ExecutedBasic {
  /// The executed MATCH plan, annotated with estimates and ExecStats
  /// actuals; null for FROM <table> and unit bodies.
  PlanPtr plan;
  /// Binding rows of a FROM <table> body.
  size_t rows = 0;
};

/// EXPLAIN ANALYZE's record, keyed by the basic queries the renderer
/// prints. Execution fills only keys already present, so EXISTS and ON
/// subqueries (never rendered; an EXISTS body runs on the first outer
/// row that asks) stay out.
using ExecutedPlans = std::map<const BasicQuery*, ExecutedBasic>;

/// An empty record with one entry per basic query ExplainQuery renders:
/// the body's (every set-operation branch) and, recursively, the GRAPH /
/// GRAPH VIEW head clauses'.
ExecutedPlans RenderedBasics(const Query& query);

/// Plan rendering of `query`, one string per output row. `runtime`
/// supplies the catalog (statistics) and planner context. Without
/// `executed` (plain EXPLAIN) every MATCH is planned and printed with
/// estimates; with it, each basic query prints what it executed.
Result<std::vector<std::string>> ExplainQuery(
    const Query& query, Matcher* runtime,
    const ExecutedPlans* executed = nullptr);

}  // namespace gcore

#endif  // GCORE_PLAN_EXPLAIN_H_
