// Tests for the static semantic validator (paper well-formedness rules).
#include "engine/validator.h"

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "parser/parser.h"
#include "snb/toy_graphs.h"

namespace gcore {
namespace {

Status Validate(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (!q.ok()) return q.status();
  return ValidateQuery(**q);
}

TEST(Validator, AcceptsAllPaperQueries) {
  const char* queries[] = {
      "CONSTRUCT (n) MATCH (n:Person) ON g WHERE n.employer = 'Acme'",
      "CONSTRUCT (c)<-[:worksAt]-(n) MATCH (c:Company) ON g1, "
      "(n:Person) ON g2 WHERE c.name IN n.employer UNION g2",
      "CONSTRUCT social_graph, (x GROUP e :Company {name:=e})"
      "<-[y:worksAt]-(n) MATCH (n:Person {employer=e})",
      "CONSTRUCT (n)-/@p:lp{d:=c}/->(m) "
      "MATCH (n)-/3 SHORTEST p<:knows*> COST c/->(m)",
      "PATH w = (x)-[e:knows]->(y) COST 1/(1+e.m) "
      "CONSTRUCT (n)-/@p:t/->(m) MATCH (n)-/p<~w*>/->(m)",
      "SELECT m.lastName AS l MATCH (m:Person)",
  };
  for (const char* q : queries) {
    EXPECT_TRUE(Validate(q).ok()) << q;
  }
}

TEST(Validator, SortConflictNodeVsEdge) {
  // "it would be illegal to use n (a node) in the place of y (an edge)".
  auto st = Validate("CONSTRUCT (a)-[n]->(b) MATCH (n), (a)-[e]->(b)");
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsBindError());
}

TEST(Validator, SortConflictNodeVsPath) {
  auto st = Validate(
      "CONSTRUCT (m) MATCH (p), (n)-/p<:knows*>/->(m)");
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsBindError());
}

TEST(Validator, SortConflictEdgeVsValue) {
  auto st = Validate(
      "CONSTRUCT (n) MATCH (n {employer=e})-[e:knows]->(m)");
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsBindError());
}

TEST(Validator, AllPathVarInWhereRejected) {
  // ALL bindings may only be projected, never used in expressions.
  auto st = Validate(
      "CONSTRUCT (n)-/p/->(m) "
      "MATCH (n)-/ALL p<:knows*>/->(m) WHERE SIZE(NODES(p)) > 2");
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsUnsupported());
}

TEST(Validator, AllPathVarInSelectRejected) {
  auto st = Validate(
      "SELECT NODES(p)[0] AS first "
      "MATCH (n)-/ALL p<:knows*>/->(m)");
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsUnsupported());
}

TEST(Validator, AllPathVarProjectionAllowed) {
  EXPECT_TRUE(Validate("CONSTRUCT (n)-/p/->(m) "
                       "MATCH (n)-/ALL p<:knows*>/->(m)")
                  .ok());
}

TEST(Validator, StoredAllRejectedStatically) {
  auto st = Validate(
      "CONSTRUCT (n)-/@p/->(m) MATCH (n)-/ALL p<:knows*>/->(m)");
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsUnsupported());
}

TEST(Validator, ConstructPathVarMustBeBound) {
  auto st = Validate("CONSTRUCT (n)-/@q:lbl/->(m) MATCH (n)-[e]->(m)");
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsBindError());
}

TEST(Validator, UnknownPathViewRejected) {
  auto st = Validate("CONSTRUCT (m) MATCH (n)-/p<~nope*>/->(m)");
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsBindError());
}

TEST(Validator, DuplicatePathViewRejected) {
  auto st = Validate(
      "PATH w = (x)-[e:a]->(y) PATH w = (x)-[e:b]->(y) "
      "CONSTRUCT (m) MATCH (n)-/p<~w*>/->(m)");
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsBindError());
}

TEST(Validator, OuterPathViewVisibleInGraphClause) {
  EXPECT_TRUE(Validate("PATH w = (x)-[e:knows]->(y) "
                       "GRAPH g2 AS (CONSTRUCT (m) "
                       "MATCH (n)-/p<~w*>/->(m)) "
                       "CONSTRUCT (z) MATCH (z) ON g2")
                  .ok());
}

TEST(Validator, SubqueriesValidatedRecursively) {
  auto st = Validate(
      "CONSTRUCT (n) MATCH (n) WHERE EXISTS ( "
      "CONSTRUCT (a)-[x]->(b) MATCH (x), (a)-[e]->(b) )");
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsBindError());
}

TEST(Validator, EngineRunsValidationBeforeEvaluation) {
  GraphCatalog catalog;
  snb::RegisterToyData(&catalog);
  QueryEngine engine(&catalog);
  auto r = engine.Execute(
      "CONSTRUCT (a)-[n]->(b) MATCH (n:Person), (a)-[e:knows]->(b)");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsBindError());
}

// A SELECT produces a table (Section 5); graph positions reject it with
// the message evaluation would fail with.
void ExpectTableInGraphPosition(const std::string& query,
                                const std::string& message) {
  auto st = Validate(query);
  ASSERT_FALSE(st.ok()) << query;
  EXPECT_TRUE(st.IsBindError()) << st.ToString();
  EXPECT_EQ(st.message(), message) << query;
}

TEST(Validator, SelectInSetOperationRejected) {
  const std::string message =
      "SELECT queries cannot participate in graph set operations";
  ExpectTableInGraphPosition(
      "SELECT n.firstName MATCH (n:Person) UNION social_graph", message);
  ExpectTableInGraphPosition(
      "social_graph MINUS (SELECT n.firstName MATCH (n:Person))", message);
  // Nested set operations, and set operations inside subqueries.
  ExpectTableInGraphPosition(
      "social_graph UNION (CONSTRUCT (n) MATCH (n) "
      "INTERSECT (SELECT n.firstName MATCH (n:Person)))",
      message);
  ExpectTableInGraphPosition(
      "CONSTRUCT (n) MATCH (n) WHERE EXISTS ( "
      "SELECT m.firstName MATCH (m:Person) UNION social_graph )",
      message);
  // A top-level SELECT and a SELECT EXISTS body stay valid.
  EXPECT_TRUE(Validate("SELECT n.firstName MATCH (n:Person)").ok());
  EXPECT_TRUE(Validate("CONSTRUCT (n) MATCH (n) WHERE EXISTS ( "
                       "SELECT m.firstName MATCH (n)-[:knows]->(m) )")
                  .ok());
}

TEST(Validator, SelectGraphClauseRejected) {
  ExpectTableInGraphPosition(
      "GRAPH g AS (SELECT n.firstName MATCH (n:Person)) "
      "CONSTRUCT (m) MATCH (m) ON g",
      "GRAPH clause 'g' requires a graph-typed query");
  ExpectTableInGraphPosition(
      "GRAPH VIEW v AS (SELECT n.firstName MATCH (n:Person))",
      "GRAPH clause 'v' requires a graph-typed query");
  EXPECT_TRUE(Validate("GRAPH g AS (social_graph UNION company_graph) "
                       "CONSTRUCT (m) MATCH (m) ON g")
                  .ok());
}

TEST(Validator, SelectOnSubqueryRejected) {
  ExpectTableInGraphPosition(
      "CONSTRUCT (n) MATCH (n) ON (SELECT p.firstName MATCH (p:Person))",
      "ON (subquery) must produce a graph, not a table");
  ExpectTableInGraphPosition(
      "CONSTRUCT (n) MATCH (n:Person) "
      "OPTIONAL (n)-[e]->(m) ON (SELECT p.firstName MATCH (p:Person))",
      "ON (subquery) must produce a graph, not a table");
}

// Plain EXPLAIN never executes, so only validation can refuse to render a
// plan for a query that cannot run.
TEST(Validator, ExplainOfUnrunnableQueryFails) {
  GraphCatalog catalog;
  snb::RegisterToyData(&catalog);
  QueryEngine engine(&catalog);
  const std::string query =
      "SELECT n.firstName MATCH (n:Person) UNION social_graph";
  auto explained = engine.Execute("EXPLAIN " + query);
  ASSERT_FALSE(explained.ok());
  EXPECT_TRUE(explained.status().IsBindError());
  auto executed = engine.Execute(query);
  ASSERT_FALSE(executed.ok());
  EXPECT_EQ(explained.status().message(), executed.status().message());
}

}  // namespace
}  // namespace gcore
