// Differential tests: the planner/executor pipeline must produce exactly
// the results of the pre-refactor recursive matcher (kept as the
// reference implementation behind MatcherContext::use_planner = false)
// on the guided-tour and extension workloads.
#include <gtest/gtest.h>

#include <algorithm>

#include "engine/engine.h"
#include "eval/matcher.h"
#include "graph/graph_ops.h"
#include "parser/parser.h"
#include "snb/toy_graphs.h"

namespace gcore {
namespace {

/// Order-insensitive canonical form of a binding table: sorted
/// "col=value" rows over name-sorted columns. Computed (non-stored)
/// paths carry *fresh* identifiers by definition (Appendix A.2), so they
/// canonicalize to their walk, not their id.
std::string CanonicalDatum(const Datum& datum) {
  if (datum.kind() == Datum::Kind::kPath && !datum.path().from_graph) {
    const PathValue& path = datum.path();
    std::string out = "walk(";
    for (NodeId n : path.body.nodes) out += ToString(n) + ",";
    if (path.projection.has_value()) {
      for (NodeId n : path.projection->first) out += ToString(n) + ",";
      out += "|";
      for (EdgeId e : path.projection->second) out += ToString(e) + ",";
    }
    return out + ")";
  }
  return datum.ToString();
}

std::vector<std::string> Canonical(const BindingTable& table) {
  std::vector<std::string> columns = table.columns();
  std::sort(columns.begin(), columns.end());
  std::vector<std::string> rows;
  rows.reserve(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    std::string row;
    for (const auto& col : columns) {
      row += col + "=" + CanonicalDatum(table.Get(r, col)) + ";";
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class DifferentialMatch : public ::testing::Test {
 protected:
  DifferentialMatch() {
    snb::RegisterToyData(&catalog);
    catalog.SetDefaultGraph("social_graph");
  }

  void ExpectSameBindings(const std::string& match_query) {
    auto parsed = ParseQuery("CONSTRUCT (z) " + match_query);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const MatchClause& match = *(*parsed)->body->basic->match;

    MatcherContext ctx;
    ctx.catalog = &catalog;
    ctx.default_graph = "social_graph";

    ctx.use_planner = true;
    Matcher planned(ctx);
    auto via_plan = planned.EvalMatchClause(match);

    ctx.use_planner = false;
    Matcher legacy(ctx);
    auto via_walk = legacy.EvalMatchClause(match);

    ASSERT_EQ(via_plan.ok(), via_walk.ok())
        << match_query << "\nplanner: " << via_plan.status().ToString()
        << "\nlegacy: " << via_walk.status().ToString();
    if (!via_plan.ok()) return;
    // Identical schema (the Project records the legacy binding order)
    // and identical binding sets.
    EXPECT_EQ(via_plan->columns(), via_walk->columns()) << match_query;
    EXPECT_EQ(Canonical(*via_plan), Canonical(*via_walk)) << match_query;
  }

  GraphCatalog catalog;
};

TEST_F(DifferentialMatch, NodeScans) {
  ExpectSameBindings("MATCH (n)");
  ExpectSameBindings("MATCH (n:Person)");
  ExpectSameBindings("MATCH (n:Person {firstName='John'})");
  ExpectSameBindings("MATCH (n:Person {employer=e})");
}

TEST_F(DifferentialMatch, EdgeHops) {
  ExpectSameBindings("MATCH (n)-[e:knows]->(m)");
  ExpectSameBindings("MATCH (n)<-[e:knows]-(m)");
  ExpectSameBindings("MATCH (n:Person)-[e:knows]-(m:Person)");
  ExpectSameBindings(
      "MATCH (n:Person)-[:isLocatedIn]->(c)<-[:isLocatedIn]-(m:Person)");
  ExpectSameBindings("MATCH (n)-[e1:knows]->(m)-[e2:knows]->(o)");
}

TEST_F(DifferentialMatch, WherePushdownEquivalence) {
  ExpectSameBindings(
      "MATCH (n:Person)-[e:knows]->(m) WHERE n.firstName = 'John'");
  ExpectSameBindings(
      "MATCH (n:Person)-[e:knows]->(m:Person) "
      "WHERE n.firstName = 'John' AND m.employer = 'Acme'");
  ExpectSameBindings(
      "MATCH (n:Person) WHERE n.firstName = 'John' OR n.firstName = "
      "'Alice'");
}

TEST_F(DifferentialMatch, MultiChainJoins) {
  ExpectSameBindings(
      "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
      "WHERE c.name = n.employer");
  ExpectSameBindings(
      "MATCH (n:Person) ON social_graph, (c:Company) ON company_graph");
  ExpectSameBindings(
      "MATCH (n:Person), (m:Person) WHERE n.employer = m.employer");
}

TEST_F(DifferentialMatch, PathModes) {
  ExpectSameBindings("MATCH (n:Person)-/<:knows*>/->(m:Person)");
  ExpectSameBindings(
      "MATCH (n)-/3 SHORTEST p<:knows*> COST c/->(m) "
      "WHERE n.firstName = 'John'");
  ExpectSameBindings(
      "MATCH (n:Person)-/ALL p<:knows*>/->(m:Person) "
      "WHERE n.firstName = 'John'");
}

TEST_F(DifferentialMatch, Optionals) {
  ExpectSameBindings(
      "MATCH (n:Person) OPTIONAL (n)-[e:knows]->(m)");
  ExpectSameBindings(
      "MATCH (n:Person) OPTIONAL (n)-[e:knows]->(m) "
      "WHERE m.employer = 'Acme'");
  ExpectSameBindings(
      "MATCH (n:Person) OPTIONAL (n)-[:isLocatedIn]->(c) "
      "OPTIONAL (n)-[:hasInterest]->(t)");
}

TEST_F(DifferentialMatch, PatternPredicatesAndExists) {
  ExpectSameBindings(
      "MATCH (m:Person), (n:Person) "
      "WHERE n.firstName = 'John' "
      "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)");
}

TEST_F(DifferentialMatch, ErrorEquivalence) {
  // No default graph and two distinct ON graphs: both paths must fail.
  MatcherContext ctx;
  ctx.catalog = &catalog;
  auto parsed = ParseQuery(
      "CONSTRUCT (z) MATCH (c) ON company_graph, (n) ON social_graph");
  ASSERT_TRUE(parsed.ok());
  const MatchClause& match = *(*parsed)->body->basic->match;
  ctx.use_planner = true;
  auto via_plan = Matcher(ctx).EvalMatchClause(match);
  ctx.use_planner = false;
  auto via_walk = Matcher(ctx).EvalMatchClause(match);
  EXPECT_FALSE(via_plan.ok());
  EXPECT_FALSE(via_walk.ok());
}

/// A literal `{k = null}` in a pattern is decided with expression
/// semantics, ⟦null⟧ = ∅: it keeps exactly the bindings whose σ(x, k) is
/// empty, like `WHERE x.k = null`. Both forms must agree on every pattern
/// element that can carry one, on a key some objects carry and on a key
/// none does, under the planner and the tree-walk.
class NullLiteralPatterns : public ::testing::Test {
 protected:
  NullLiteralPatterns() {
    // The toy social graph plus a `since` on John's outgoing knows edges:
    // `employer` (absent on Peter) and `since` are carried by some objects,
    // `nosuchkey` by none.
    PathPropertyGraph g = snb::MakeSocialGraph(catalog.ids());
    g.ForEachEdge([&](EdgeId e, NodeId src, NodeId) {
      if (g.Labels(e).Contains("knows") &&
          g.Property(src, "firstName").Contains(Value::String("John"))) {
        g.SetProperty(e, "since", ValueSet(Value::Int(2010)));
      }
    });
    catalog.RegisterGraph("social_graph", std::move(g));
    catalog.SetDefaultGraph("social_graph");
  }

  Result<BindingTable> Bindings(const std::string& match_query,
                                bool use_planner) {
    auto parsed = ParseQuery("CONSTRUCT (z) " + match_query);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (!parsed.ok()) return parsed.status();
    parsed_.push_back(std::move(*parsed));
    MatcherContext ctx;
    ctx.catalog = &catalog;
    ctx.default_graph = "social_graph";
    ctx.use_planner = use_planner;
    return Matcher(ctx).EvalMatchClause(*parsed_.back()->body->basic->match);
  }

  /// `pattern` (with a `{KEY = null}` placeholder) equals `plain WHERE
  /// where` for KEY in {carried, nosuchkey}; returns the carried-key row
  /// count.
  size_t ExpectPatternEqualsWhere(const std::string& pattern,
                                  const std::string& plain,
                                  const std::string& var,
                                  const std::string& carried) {
    size_t carried_rows = 0;
    for (const std::string& key : {carried, std::string("nosuchkey")}) {
      std::string with_prop = pattern;
      with_prop.replace(with_prop.find("KEY"), 3, key);
      const std::string with_where =
          plain + " WHERE " + var + "." + key + " = null";
      for (bool use_planner : {true, false}) {
        auto got = Bindings("MATCH " + with_prop, use_planner);
        auto want = Bindings("MATCH " + with_where, use_planner);
        if (!got.ok() || !want.ok()) {
          ADD_FAILURE() << with_prop << ": " << got.status().ToString()
                        << " / " << want.status().ToString();
          continue;
        }
        EXPECT_EQ(Canonical(*got), Canonical(*want))
            << with_prop << " vs " << with_where
            << " use_planner=" << use_planner;
        if (key == carried) carried_rows = got->NumRows();
      }
    }
    return carried_rows;
  }

  GraphCatalog catalog;
  std::vector<std::unique_ptr<Query>> parsed_;
};

TEST_F(NullLiteralPatterns, StartNode) {
  // Peter alone has no employer.
  EXPECT_EQ(ExpectPatternEqualsWhere("(n:Person {KEY = null})",
                                     "(n:Person)", "n", "employer"),
            1u);
}

TEST_F(NullLiteralPatterns, Edge) {
  // Eight knows edges, two of them John's.
  EXPECT_EQ(ExpectPatternEqualsWhere("(a)-[e:knows {KEY = null}]->(b)",
                                     "(a)-[e:knows]->(b)", "e", "since"),
            6u);
}

TEST_F(NullLiteralPatterns, EdgeHopTarget) {
  // Three knows edges point at Peter.
  EXPECT_EQ(ExpectPatternEqualsWhere(
                "(a:Person)-[e:knows]->(b {KEY = null})",
                "(a:Person)-[e:knows]->(b)", "b", "employer"),
            3u);
}

TEST_F(NullLiteralPatterns, PathHopTarget) {
  // Every person reaches Peter over knows.
  EXPECT_EQ(ExpectPatternEqualsWhere(
                "(a:Person)-/<:knows*>/->(m {KEY = null})",
                "(a:Person)-/<:knows*>/->(m)", "m", "employer"),
            5u);
}

TEST_F(NullLiteralPatterns, PathHopTargetRowDependentProps) {
  // The props SnapshotPred leaves to the row apply on path-hop targets
  // too: a filter reading another variable, and a bind variable.
  for (bool use_planner : {true, false}) {
    auto filtered = Bindings(
        "MATCH (a:Person)-/<:knows*>/->(m:Person {lastName = a.lastName})",
        use_planner);
    auto where = Bindings(
        "MATCH (a:Person)-/<:knows*>/->(m:Person) "
        "WHERE m.lastName = a.lastName",
        use_planner);
    ASSERT_TRUE(filtered.ok() && where.ok());
    EXPECT_EQ(filtered->NumRows(), 5u) << use_planner;
    EXPECT_EQ(Canonical(*filtered), Canonical(*where)) << use_planner;

    auto bound = Bindings(
        "MATCH (a:Person {firstName = 'John'})-/<:knows*>/->(m {lastName = l})",
        use_planner);
    ASSERT_TRUE(bound.ok());
    EXPECT_EQ(bound->NumRows(), 5u) << use_planner;
    for (size_t r = 0; r < bound->NumRows(); ++r) {
      EXPECT_TRUE(bound->Get(r, "l").IsBound()) << use_planner;
    }
  }
}

/// Engine-level differential: full queries (construction, views, set
/// operations, tabular extensions) through both pipelines.
class DifferentialEngine : public ::testing::Test {
 protected:
  Result<QueryResult> Run(const std::string& query, bool use_planner) {
    GraphCatalog catalog;
    snb::RegisterToyData(&catalog);
    QueryEngine engine(&catalog);
    engine.set_use_planner(use_planner);
    return engine.Execute(query);
  }

  void ExpectSameResult(const std::string& query) {
    auto planned = Run(query, true);
    auto legacy = Run(query, false);
    ASSERT_EQ(planned.ok(), legacy.ok())
        << query << "\nplanner: " << planned.status().ToString()
        << "\nlegacy: " << legacy.status().ToString();
    if (!planned.ok()) return;
    ASSERT_EQ(planned->IsGraph(), legacy->IsGraph()) << query;
    if (planned->IsGraph()) {
      EXPECT_TRUE(GraphEquals(*planned->graph, *legacy->graph)) << query;
    } else {
      Table a = std::move(*planned->table);
      Table b = std::move(*legacy->table);
      a.SortRows();
      b.SortRows();
      EXPECT_EQ(a.ToString(), b.ToString()) << query;
    }
  }
};

TEST_F(DifferentialEngine, GuidedTourQueries) {
  ExpectSameResult(
      "CONSTRUCT (n) MATCH (n:Person) ON social_graph "
      "WHERE n.employer = 'Acme'");
  ExpectSameResult(
      "CONSTRUCT (c)<-[:worksAt]-(n) "
      "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
      "WHERE c.name = n.employer UNION social_graph");
  ExpectSameResult(
      "CONSTRUCT (c)<-[:worksAt]-(n) "
      "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
      "WHERE c.name IN n.employer UNION social_graph");
  ExpectSameResult(
      "CONSTRUCT social_graph, "
      "(x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
      "MATCH (n:Person {employer=e})");
  ExpectSameResult(
      "CONSTRUCT (n)-/@p:localPeople{distance:=c}/->(m) "
      "MATCH (n)-/3 SHORTEST p<:knows*> COST c/->(m) "
      "WHERE (n:Person) AND (m:Person) "
      "AND n.firstName = 'John' AND n.lastName = 'Doe' "
      "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)");
  ExpectSameResult(
      "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) "
      "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
      "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)");
  ExpectSameResult(
      "CONSTRUCT (n)-/p/->(m) "
      "MATCH (n:Person)-/ALL p<:knows*>/->(m:Person) "
      "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
      "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)");
  ExpectSameResult(
      "CONSTRUCT (m) MATCH (m:Person), (n:Person) "
      "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
      "AND EXISTS ( CONSTRUCT () "
      "MATCH (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m) )");
}

TEST_F(DifferentialEngine, ViewsAndOptionals) {
  ExpectSameResult(
      "GRAPH VIEW social_graph1 AS ( "
      "CONSTRUCT social_graph, (n)-[e]->(m) SET e.nr_messages := COUNT(*) "
      "MATCH (n)-[e:knows]->(m) WHERE (n:Person) AND (m:Person) "
      "OPTIONAL (n)<-[c1]-(msg1:Post|Comment), (msg1)-[:reply_of]-(msg2), "
      "(msg2:Post|Comment)-[c2]->(m) "
      "WHERE (c1:has_creator) AND (c2:has_creator) )");
}

TEST_F(DifferentialEngine, TabularExtensions) {
  ExpectSameResult(
      "SELECT c.name AS company, n.firstName AS person "
      "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
      "WHERE c.name = n.employer");
  ExpectSameResult(
      "SELECT DISTINCT c.name AS city "
      "MATCH (n:Person)-[:isLocatedIn]->(c) ORDER BY c.name");
  ExpectSameResult(
      "SELECT n.firstName AS name, COUNT(*) AS total MATCH (n:Person)");
}

TEST_F(DifferentialEngine, SetOperationsAndComposition) {
  ExpectSameResult(
      "CONSTRUCT (n) MATCH (n:Person) INTERSECT social_graph");
  ExpectSameResult(
      "GRAPH acme AS (CONSTRUCT (n) MATCH (n:Person) "
      "WHERE n.employer = 'Acme') "
      "CONSTRUCT (m {who := m.firstName}) MATCH (m) ON acme");
}

}  // namespace
}  // namespace gcore
