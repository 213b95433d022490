#include "engine/validator.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace gcore {

const char* VarSortToString(VarSort sort) {
  switch (sort) {
    case VarSort::kNode:
      return "node";
    case VarSort::kEdge:
      return "edge";
    case VarSort::kPath:
      return "path";
    case VarSort::kValue:
      return "value";
  }
  return "?";
}

namespace {

class Validator {
 public:
  Status Check(const Query& query,
               std::set<std::string> inherited_views = {}) {
    std::set<std::string> path_view_names = std::move(inherited_views);
    for (const auto& pc : query.path_clauses) {
      if (!path_view_names.insert(pc.name).second) {
        return Status::BindError("PATH view '" + pc.name +
                                 "' is defined more than once");
      }
      sorts_.clear();
      for (const auto& pattern : pc.patterns) {
        GCORE_RETURN_NOT_OK(
            CheckPatternSorts(pattern, /*in_construct=*/false));
      }
      GCORE_RETURN_NOT_OK(CheckViewRefsKnown(pc.patterns, path_view_names));
    }
    for (const auto& gc : query.graph_clauses) {
      if (gc.query != nullptr) {
        Validator inner;
        GCORE_RETURN_NOT_OK(inner.Check(*gc.query, path_view_names));
        if (IsTableTyped(*gc.query)) {
          return Status::BindError("GRAPH clause '" + gc.name +
                                   "' requires a graph-typed query");
        }
      }
    }
    if (query.body != nullptr) {
      GCORE_RETURN_NOT_OK(CheckBody(*query.body, path_view_names));
    }
    return Status::OK();
  }

 private:
  // --- graph typing -------------------------------------------------------------

  /// True when `query` evaluates to a table (a SELECT body), which graph
  /// positions — set operations, GRAPH clauses, ON (subquery) — reject.
  static bool IsTableTyped(const Query& query) {
    return query.body != nullptr &&
           query.body->kind == QueryBody::Kind::kBasic &&
           query.body->basic->select.has_value();
  }

  // --- sorts ------------------------------------------------------------------

  std::map<std::string, VarSort> sorts_;

  Status Assign(const std::string& var, VarSort sort) {
    if (var.empty()) return Status::OK();
    auto [it, inserted] = sorts_.emplace(var, sort);
    if (!inserted && it->second != sort) {
      return Status::BindError(
          "variable '" + var + "' is used both as a " +
          VarSortToString(it->second) + " and as a " + VarSortToString(sort) +
          " — sorts must agree (Section 3)");
    }
    return Status::OK();
  }

  Status CheckProps(const std::vector<PropPattern>& props) {
    for (const auto& p : props) {
      if (p.mode == PropPattern::Mode::kBindVariable) {
        GCORE_RETURN_NOT_OK(Assign(p.bind_var, VarSort::kValue));
      }
    }
    return Status::OK();
  }

  Status CheckPatternSorts(const GraphPattern& pattern, bool in_construct) {
    if (pattern.on_subquery != nullptr) {
      Validator inner;
      GCORE_RETURN_NOT_OK(inner.Check(*pattern.on_subquery));
      if (IsTableTyped(*pattern.on_subquery)) {
        return Status::BindError(
            "ON (subquery) must produce a graph, not a table");
      }
    }
    GCORE_RETURN_NOT_OK(Assign(pattern.start.var, VarSort::kNode));
    GCORE_RETURN_NOT_OK(CheckProps(pattern.start.props));
    for (const auto& hop : pattern.hops) {
      if (hop.kind == PatternHop::Kind::kEdge) {
        GCORE_RETURN_NOT_OK(Assign(hop.edge.var, VarSort::kEdge));
        GCORE_RETURN_NOT_OK(CheckProps(hop.edge.props));
      } else {
        GCORE_RETURN_NOT_OK(Assign(hop.path.var, VarSort::kPath));
        if (!hop.path.cost_var.empty()) {
          GCORE_RETURN_NOT_OK(Assign(hop.path.cost_var, VarSort::kValue));
        }
        if (!in_construct &&
            hop.path.mode == PathPattern::Mode::kAll &&
            !hop.path.var.empty()) {
          all_path_vars_.insert(hop.path.var);
        }
      }
      GCORE_RETURN_NOT_OK(Assign(hop.to.var, VarSort::kNode));
      GCORE_RETURN_NOT_OK(CheckProps(hop.to.props));
    }
    return Status::OK();
  }

  // --- ALL restriction ----------------------------------------------------------

  std::set<std::string> all_path_vars_;

  Status CheckExprAvoidsAllVars(const Expr& expr) const {
    if (all_path_vars_.empty()) return Status::OK();
    std::vector<std::string> vars;
    expr.CollectVariables(&vars);
    for (const auto& v : vars) {
      if (all_path_vars_.count(v) > 0) {
        return Status::Unsupported(
            "path variable '" + v +
            "' is bound by ALL and may only be used for graph projection "
            "(-/" + v + "/-> in CONSTRUCT); using it in expressions would "
            "require materializing all paths (Section 3)");
      }
    }
    return Status::OK();
  }

  // --- view references ------------------------------------------------------------

  static void CollectRefs(const GraphPattern& pattern,
                          std::vector<std::string>* out) {
    for (const auto& hop : pattern.hops) {
      if (hop.kind == PatternHop::Kind::kPath && hop.path.rpq != nullptr) {
        hop.path.rpq->CollectViewRefs(out);
      }
    }
  }

  Status CheckViewRefsKnown(const std::vector<GraphPattern>& patterns,
                            const std::set<std::string>& known) const {
    std::vector<std::string> refs;
    for (const auto& p : patterns) CollectRefs(p, &refs);
    for (const auto& r : refs) {
      if (known.count(r) == 0) {
        return Status::BindError("path expression references PATH view '~" +
                                 r + "' which is not defined in this query");
      }
    }
    return Status::OK();
  }

  // --- clauses -------------------------------------------------------------------

  Status CheckBody(const QueryBody& body, const std::set<std::string>& views,
                   bool in_set_op = false) {
    switch (body.kind) {
      case QueryBody::Kind::kBasic:
        GCORE_RETURN_NOT_OK(CheckBasic(*body.basic, views));
        if (in_set_op && body.basic->select.has_value()) {
          return Status::BindError(
              "SELECT queries cannot participate in graph set operations");
        }
        return Status::OK();
      case QueryBody::Kind::kGraphRef:
        return Status::OK();
      default:
        GCORE_RETURN_NOT_OK(CheckBody(*body.left, views, /*in_set_op=*/true));
        return CheckBody(*body.right, views, /*in_set_op=*/true);
    }
  }

  Status CheckBasic(const BasicQuery& basic,
                    const std::set<std::string>& views) {
    all_path_vars_.clear();
    sorts_.clear();
    std::set<std::string> match_vars;

    if (basic.match.has_value()) {
      const MatchClause& match = *basic.match;
      for (const auto& p : match.patterns) {
        GCORE_RETURN_NOT_OK(CheckPatternSorts(p, /*in_construct=*/false));
        std::vector<std::string> vars;
        p.CollectBoundVariables(&vars);
        match_vars.insert(vars.begin(), vars.end());
      }
      GCORE_RETURN_NOT_OK(CheckViewRefsKnown(match.patterns, views));
      if (match.where != nullptr) {
        GCORE_RETURN_NOT_OK(CheckExprAvoidsAllVars(*match.where));
        GCORE_RETURN_NOT_OK(CheckSubqueries(*match.where));
      }
      for (const auto& block : match.optionals) {
        for (const auto& p : block.patterns) {
          GCORE_RETURN_NOT_OK(CheckPatternSorts(p, /*in_construct=*/false));
        }
        GCORE_RETURN_NOT_OK(CheckViewRefsKnown(block.patterns, views));
        if (block.where != nullptr) {
          GCORE_RETURN_NOT_OK(CheckExprAvoidsAllVars(*block.where));
        }
      }
    }

    if (basic.construct.has_value()) {
      for (const auto& item : basic.construct->items) {
        if (!item.pattern.has_value()) continue;
        GCORE_RETURN_NOT_OK(
            CheckPatternSorts(*item.pattern, /*in_construct=*/true));
        // Construct-side path patterns must use variables bound by MATCH;
        // @-stored ALL bindings are rejected at runtime, expression uses
        // here.
        for (const auto& hop : item.pattern->hops) {
          if (hop.kind != PatternHop::Kind::kPath) continue;
          if (hop.path.var.empty()) {
            return Status::BindError(
                "construct-side path pattern requires a variable bound by "
                "MATCH");
          }
          if (basic.match.has_value() &&
              match_vars.count(hop.path.var) == 0) {
            return Status::BindError(
                "path variable '" + hop.path.var +
                "' in CONSTRUCT is not bound by the MATCH clause");
          }
          if (hop.path.stored &&
              all_path_vars_.count(hop.path.var) > 0) {
            return Status::Unsupported(
                "storing ALL-paths bindings (@" + hop.path.var +
                ") is intractable; bind the variable without @ to project");
          }
        }
        if (item.when != nullptr) {
          GCORE_RETURN_NOT_OK(CheckExprAvoidsAllVars(*item.when));
        }
        for (const auto& s : item.sets) {
          if (s.kind == SetStatement::Kind::kSetProperty &&
              s.value != nullptr) {
            GCORE_RETURN_NOT_OK(CheckExprAvoidsAllVars(*s.value));
          }
        }
      }
    }

    if (basic.select.has_value()) {
      for (const auto& sel : basic.select->items) {
        GCORE_RETURN_NOT_OK(CheckExprAvoidsAllVars(*sel.expr));
        GCORE_RETURN_NOT_OK(CheckSubqueries(*sel.expr));
      }
    }
    return Status::OK();
  }

  Status CheckSubqueries(const Expr& expr) {
    if (expr.kind == Expr::Kind::kExists && expr.subquery != nullptr) {
      Validator inner;
      GCORE_RETURN_NOT_OK(inner.Check(*expr.subquery));
    }
    for (const auto& arg : expr.args) {
      if (arg != nullptr) GCORE_RETURN_NOT_OK(CheckSubqueries(*arg));
    }
    for (const auto& arm : expr.case_arms) {
      if (arm.condition != nullptr) {
        GCORE_RETURN_NOT_OK(CheckSubqueries(*arm.condition));
      }
      if (arm.result != nullptr) {
        GCORE_RETURN_NOT_OK(CheckSubqueries(*arm.result));
      }
    }
    if (expr.case_else != nullptr) {
      GCORE_RETURN_NOT_OK(CheckSubqueries(*expr.case_else));
    }
    return Status::OK();
  }
};

}  // namespace

Status ValidateQuery(const Query& query) {
  Validator validator;
  return validator.Check(query);
}

}  // namespace gcore
