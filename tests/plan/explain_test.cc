// EXPLAIN ANALYZE output pins: the executed plan of every rendered basic
// query carries actual_rows / actual_ms next to its estimates, head
// clauses render their executed sub-plans the way EXPLAIN draws them,
// EXISTS bodies stay unrendered, and a failing query returns exactly the
// Status plain execution returns. actual_ms values are timing-dependent
// and masked before comparison.
#include <gtest/gtest.h>

#include <regex>

#include "engine/engine.h"
#include "snb/toy_graphs.h"

namespace gcore {
namespace {

// Paper listing lines 39-47 and 57-66.
constexpr const char* kQ10 =
    "GRAPH VIEW social_graph1 AS ( "
    "CONSTRUCT social_graph, (n)-[e]->(m) SET e.nr_messages := COUNT(*) "
    "MATCH (n)-[e:knows]->(m) WHERE (n:Person) AND (m:Person) "
    "OPTIONAL (n)<-[c1]-(msg1:Post|Comment), (msg1)-[:reply_of]-(msg2), "
    "(msg2:Post|Comment)-[c2]->(m) "
    "WHERE (c1:has_creator) AND (c2:has_creator) )";
constexpr const char* kQ11 =
    "GRAPH VIEW social_graph2 AS ( "
    "PATH wKnows = (x)-[e:knows]->(y) "
    "WHERE NOT 'Acme' IN y.employer "
    "COST 1 / (1 + e.nr_messages) "
    "CONSTRUCT social_graph1, (n)-/@p:toWagner/->(m) "
    "MATCH (n:Person)-/p<~wKnows*>/->(m:Person) ON social_graph1 "
    "WHERE (m)-[:hasInterest]->(:Tag {name='Wagner'}) "
    "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m) "
    "AND n.firstName = 'John' AND n.lastName = 'Doe')";

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  ExplainAnalyzeTest() : engine(&catalog) {
    snb::RegisterToyData(&catalog);
    catalog.SetDefaultGraph("social_graph");
    engine.set_parallelism(1);
  }

  /// `prefix + query` through the engine; the plan rows joined by '\n',
  /// with every actual_ms value replaced by '*'.
  std::string Render(const std::string& prefix, const std::string& query) {
    auto r = engine.Execute(prefix + query);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return "";
    EXPECT_TRUE(r->IsTable());
    std::string out;
    for (size_t i = 0; i < r->table->NumRows(); ++i) {
      if (i > 0) out += "\n";
      out += r->table->At(i, 0).AsString();
    }
    static const std::regex kMs("actual_ms=[0-9.eE+\\-]+");
    return std::regex_replace(out, kMs, "actual_ms=*");
  }

  std::string Analyze(const std::string& query) {
    return Render("EXPLAIN ANALYZE ", query);
  }

  /// The tree without any annotation suffix (estimates, actuals).
  static std::string Shape(const std::string& plan) {
    static const std::regex kStats("  \\((est_rows|actual_rows)=[^)]*\\)");
    return std::regex_replace(plan, kStats, "");
  }

  GraphCatalog catalog;
  QueryEngine engine;
};

// Q2 (lines 5-9): the set operation runs, and only the Construct branch
// has a binding pipeline to annotate.
TEST_F(ExplainAnalyzeTest, GraphUnionAnnotatesTheConstructBranchOnly) {
  EXPECT_EQ(
      Analyze("CONSTRUCT (c)<-[:worksAt]-(n) "
              "MATCH (c:Company) ON company_graph, (n:Person) ON "
              "social_graph WHERE c.name = n.employer UNION social_graph"),
      "GraphUnion\n"
      "├─ Construct\n"
      "│  └─ Project [c, n] dedup parallelism=1  "
      "(est_rows=5 actual_rows=3 actual_ms=*)\n"
      "│     └─ Filter (c.name = n.employer)  "
      "(est_rows=5 actual_rows=3 actual_ms=*)\n"
      "│        └─ HashJoin  (est_rows=20 actual_rows=20 actual_ms=*)\n"
      "│           ├─ NodeScan (c:Company) on company_graph  "
      "(est_rows=4 actual_rows=4 actual_ms=*)\n"
      "│           └─ NodeScan (n:Person) on social_graph  "
      "(est_rows=5 actual_rows=5 actual_ms=*)\n"
      "└─ Graph social_graph");
}

TEST_F(ExplainAnalyzeTest, FromTableReportsItsRowCount) {
  EXPECT_EQ(Analyze("CONSTRUCT (cust GROUP custName :Customer "
                    "{name:=custName}) FROM orders"),
            "Construct\n"
            "└─ TableScan orders  (actual_rows=6)");
}

// The ON subquery executes to a temporary graph; the analysed scan names
// it (plain EXPLAIN cannot, it prints "(subquery)").
TEST_F(ExplainAnalyzeTest, OnSubqueryScanRunsOnTheMaterializedLocation) {
  const std::string plan =
      Analyze("CONSTRUCT (n) MATCH (n) ON (CONSTRUCT (p) MATCH (p:Person) "
              "WHERE p.employer = 'Acme')");
  EXPECT_NE(plan.find("└─ NodeScan (n) on __location"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("(est_rows=2 actual_rows=2 actual_ms=*)"),
            std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("(subquery)"), std::string::npos) << plan;
  // The temporary location is dropped with the query.
  for (const auto& name : catalog.GraphNames()) {
    EXPECT_EQ(name.rfind("__location", 0), std::string::npos) << name;
  }
}

// EXISTS subqueries run apart from the rendered plans; only the
// enclosing Filter renders (with the rows that survived it).
TEST_F(ExplainAnalyzeTest, ExistsBodyIsNotRendered) {
  EXPECT_EQ(
      Analyze("CONSTRUCT (m) MATCH (m:Person), (n:Person) "
              "WHERE n.firstName = 'John' AND EXISTS ( CONSTRUCT () "
              "MATCH (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m) )"),
      "Construct\n"
      "└─ Project [m, n] dedup parallelism=1  "
      "(est_rows=1.25 actual_rows=4 actual_ms=*)\n"
      "   └─ Filter ((n.firstName = 'John') AND EXISTS (...))  "
      "(est_rows=1.25 actual_rows=4 actual_ms=*)\n"
      "      └─ HashJoin swap_build  (est_rows=5 actual_rows=5 actual_ms=*)\n"
      "         ├─ NodeScan (n:Person) push={(n.firstName = 'John')}  "
      "(est_rows=1 actual_rows=1 actual_ms=*)\n"
      "         └─ NodeScan (m:Person)  "
      "(est_rows=5 actual_rows=5 actual_ms=*)");
}

// With the planner switched off, ANALYZE still plans: the rendered
// pipeline is the planner's, with actuals.
TEST_F(ExplainAnalyzeTest, LegacyWalkModeStillRendersThePlannerPipeline) {
  engine.set_use_planner(false);
  EXPECT_EQ(
      Analyze("CONSTRUCT (n) MATCH (n:Person)-[:knows]->(m) "
              "WHERE n.employer = 'Acme'"),
      "Construct\n"
      "└─ Project [n, m] dedup parallelism=1  "
      "(est_rows=1.6 actual_rows=3 actual_ms=*)\n"
      "   └─ Filter (n.employer = 'Acme')  "
      "(est_rows=1.6 actual_rows=3 actual_ms=*)\n"
      "      └─ ExpandEdge (n)-[:knows]->(m)  "
      "(est_rows=1.6 actual_rows=3 actual_ms=*)\n"
      "         └─ NodeScan (n:Person) push={(n.employer = 'Acme')}  "
      "(est_rows=1 actual_rows=2 actual_ms=*)");
}

// ANALYZE executes the whole query, so it fails exactly where plain
// execution fails: the typing of set operations and the SELECT tail.
TEST_F(ExplainAnalyzeTest, FailuresMatchPlainExecution) {
  for (const std::string query :
       {"SELECT n.firstName MATCH (n:Person) UNION social_graph",
        "SELECT 1/0 AS x MATCH (n:Person)"}) {
    auto plain = engine.Execute(query);
    auto analyzed = engine.Execute("EXPLAIN ANALYZE " + query);
    ASSERT_FALSE(plain.ok()) << query;
    ASSERT_FALSE(analyzed.ok()) << query;
    EXPECT_EQ(analyzed.status().code(), plain.status().code()) << query;
    EXPECT_EQ(analyzed.status().message(), plain.status().message())
        << query;
  }
}

TEST_F(ExplainAnalyzeTest, QueryLocalGraphIsDroppedAfterwards) {
  const std::string plan =
      Analyze("GRAPH g AS (CONSTRUCT (n) MATCH (n:Person)) "
              "CONSTRUCT (m) MATCH (m) ON g");
  EXPECT_NE(plan.find("NodeScan (m) on g  (est_rows=5 actual_rows=5"),
            std::string::npos)
      << plan;
  EXPECT_FALSE(catalog.HasGraph("g"));
}

// Q10 on the toy graph: the view's body runs under ANALYZE and renders
// its executed plan — the OPTIONAL block's LeftOuterJoin included — in
// EXPLAIN's tree, as does Q11's body under its PATH view.
TEST_F(ExplainAnalyzeTest, GraphViewsRenderTheirExecutedPlans) {
  const std::string q10 = Analyze(kQ10);
  EXPECT_EQ(q10.rfind("GraphView social_graph1 AS\n└─ Construct\n", 0), 0u)
      << q10;
  EXPECT_NE(q10.find("LeftOuterJoin  (est_rows=0.5 actual_rows="),
            std::string::npos)
      << q10;
  EXPECT_NE(q10.find("ExpandEdge (n)-[e:knows]->(m) push={m:Person}  "
                     "(est_rows=0.5 actual_rows="),
            std::string::npos)
      << q10;
  EXPECT_TRUE(catalog.HasGraph("social_graph1"));
  for (const char* query : {kQ10, kQ11}) {
    const std::string explained = Render("EXPLAIN ", query);
    const std::string analyzed = Analyze(query);
    EXPECT_EQ(Shape(analyzed), Shape(explained)) << analyzed;
    EXPECT_NE(analyzed.find("actual_rows="), std::string::npos) << analyzed;
  }
}

}  // namespace
}  // namespace gcore
