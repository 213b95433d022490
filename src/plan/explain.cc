#include "plan/explain.h"

#include "eval/matcher.h"
#include "plan/planner.h"

namespace gcore {

namespace {

Result<std::vector<std::string>> RenderBasic(const BasicQuery& basic,
                                             Matcher* runtime,
                                             const ExecutedPlans* executed) {
  const ExecutedBasic* ran = nullptr;
  if (executed != nullptr) {
    auto it = executed->find(&basic);
    if (it != executed->end()) ran = &it->second;
  }
  std::vector<std::string> lines;
  lines.push_back(basic.select.has_value() ? "Select" : "Construct");
  std::vector<std::string> sub;
  if (ran != nullptr && ran->plan != nullptr) {
    sub = ran->plan->RenderLines();
  } else if (basic.match.has_value()) {
    // Planning never resolves graphs (the estimator reads statistics by
    // name and degrades to unknown), so unmaterialized locations — e.g.
    // ON-subquery graphs that only exist at execution time — are fine.
    Planner planner(runtime, PlannerOptions::FromContext(runtime->context()));
    GCORE_ASSIGN_OR_RETURN(PlanPtr plan, planner.PlanMatch(*basic.match));
    planner.AnnotateEstimates(plan.get());
    sub = plan->RenderLines();
  } else if (!basic.from_table.empty()) {
    sub.push_back("TableScan " + basic.from_table);
    if (ran != nullptr) {
      sub.back() += "  (actual_rows=" + std::to_string(ran->rows) + ")";
    }
  } else {
    sub.push_back("Unit");
  }
  AppendChildLines(sub, /*last=*/true, &lines);
  return lines;
}

Result<std::vector<std::string>> RenderBody(const QueryBody& body,
                                            Matcher* runtime,
                                            const ExecutedPlans* executed) {
  switch (body.kind) {
    case QueryBody::Kind::kBasic:
      return RenderBasic(*body.basic, runtime, executed);
    case QueryBody::Kind::kGraphRef:
      return std::vector<std::string>{"Graph " + body.graph_ref};
    case QueryBody::Kind::kUnion:
    case QueryBody::Kind::kIntersect:
    case QueryBody::Kind::kMinus: {
      const PlanOp op = body.kind == QueryBody::Kind::kUnion
                            ? PlanOp::kGraphUnion
                            : body.kind == QueryBody::Kind::kIntersect
                                  ? PlanOp::kGraphIntersect
                                  : PlanOp::kGraphMinus;
      std::vector<std::string> lines{PlanOpName(op)};
      GCORE_ASSIGN_OR_RETURN(std::vector<std::string> left,
                             RenderBody(*body.left, runtime, executed));
      GCORE_ASSIGN_OR_RETURN(std::vector<std::string> right,
                             RenderBody(*body.right, runtime, executed));
      AppendChildLines(left, /*last=*/false, &lines);
      AppendChildLines(right, /*last=*/true, &lines);
      return lines;
    }
  }
  return Status::EvaluationError("unhandled query body kind");
}

/// The top-level items of `query` — each PATH view, each head clause with
/// its query drawn below it, the body — one rendered subtree apiece.
Result<std::vector<std::vector<std::string>>> RenderItems(
    const Query& query, Matcher* runtime, const ExecutedPlans* executed) {
  std::vector<std::vector<std::string>> items;
  for (const auto& path_clause : query.path_clauses) {
    items.push_back({"PathView " + path_clause.name +
                     " (materialized lazily on first reference)"});
  }
  for (const auto& graph_clause : query.graph_clauses) {
    std::vector<std::string> item{
        std::string(graph_clause.is_view ? "GraphView " : "Graph ") +
        graph_clause.name + " AS"};
    GCORE_ASSIGN_OR_RETURN(
        std::vector<std::vector<std::string>> sub,
        RenderItems(*graph_clause.query, runtime, executed));
    for (size_t i = 0; i < sub.size(); ++i) {
      AppendChildLines(sub[i], /*last=*/i + 1 == sub.size(), &item);
    }
    items.push_back(std::move(item));
  }
  if (query.body != nullptr) {
    GCORE_ASSIGN_OR_RETURN(std::vector<std::string> body,
                           RenderBody(*query.body, runtime, executed));
    items.push_back(std::move(body));
  }
  return items;
}

void AddBodyBasics(const QueryBody& body, ExecutedPlans* out) {
  switch (body.kind) {
    case QueryBody::Kind::kBasic:
      out->emplace(body.basic.get(), ExecutedBasic{});
      return;
    case QueryBody::Kind::kGraphRef:
      return;
    default:
      AddBodyBasics(*body.left, out);
      AddBodyBasics(*body.right, out);
  }
}

}  // namespace

ExecutedPlans RenderedBasics(const Query& query) {
  ExecutedPlans out;
  for (const auto& graph_clause : query.graph_clauses) {
    out.merge(RenderedBasics(*graph_clause.query));
  }
  if (query.body != nullptr) AddBodyBasics(*query.body, &out);
  return out;
}

Result<std::vector<std::string>> ExplainQuery(const Query& query,
                                              Matcher* runtime,
                                              const ExecutedPlans* executed) {
  GCORE_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> items,
                         RenderItems(query, runtime, executed));
  std::vector<std::string> lines;
  for (auto& item : items) {
    lines.insert(lines.end(), item.begin(), item.end());
  }
  return lines;
}

}  // namespace gcore
