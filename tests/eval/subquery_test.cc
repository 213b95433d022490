// Correlated subqueries against the Appendix A.2 composition, built by
// hand: ⟦γ⟧Ω,G = ⟦γ⟧G ⋉ Ω. Every case evaluates the inner MATCH on its
// own, semijoins (EXISTS, pattern predicates) or antijoins (NOT EXISTS)
// it with the outer MATCH's bindings, and expects the engine to return
// exactly those rows — at parallelism 1/2/8 (one-row morsels) and on the
// legacy tree-walk. An inner query that fails is never run for an empty
// outer table, and otherwise fails the query with its own Status.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "eval/binding_ops.h"
#include "eval/matcher.h"
#include "parser/parser.h"
#include "snb/toy_graphs.h"

namespace gcore {
namespace {

using Rows = std::set<std::vector<std::string>>;

struct Config {
  size_t parallelism;
  bool use_planner;
};

const Config kConfigs[] = {{1, true}, {2, true}, {8, true}, {1, false}};

std::string ConfigName(const Config& c) {
  return "parallelism=" + std::to_string(c.parallelism) +
         (c.use_planner ? "" : " use_planner=false");
}

/// A SELECT cell as the engine renders a binding: nodes by their
/// identity string, unbound variables as NULL.
std::string Cell(const Datum& d) {
  if (d.IsUnbound()) return Value::Null().ToString();
  return Value::String(d.ToString()).ToString();
}

class SubqueryTest : public ::testing::Test {
 protected:
  SubqueryTest() {
    snb::RegisterToyData(&catalog);
    catalog.SetDefaultGraph("social_graph");
  }

  /// Bindings of `match` (a MATCH clause text) on the default graph,
  /// evaluated by a bare Matcher — no subquery hook is wired.
  BindingTable Bindings(const std::string& match) {
    auto parsed = ParseQuery("CONSTRUCT () " + match);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    queries_.push_back(std::move(*parsed));
    MatcherContext ctx;
    ctx.catalog = &catalog;
    ctx.default_graph = "social_graph";
    Matcher matcher(ctx);
    auto bindings =
        matcher.EvalMatchClause(*queries_.back()->body->basic->match);
    EXPECT_TRUE(bindings.ok()) << bindings.status().ToString();
    return bindings.ok() ? std::move(*bindings) : BindingTable();
  }

  /// The `vars` columns of every row of `table`.
  static Rows Project(const BindingTable& table,
                      const std::vector<std::string>& vars) {
    Rows rows;
    for (size_t r = 0; r < table.NumRows(); ++r) {
      std::vector<std::string> row;
      for (const auto& v : vars) row.push_back(Cell(table.Get(r, v)));
      rows.insert(row);
    }
    return rows;
  }

  Result<QueryResult> Run(const std::string& query, const Config& config) {
    QueryEngine engine(&catalog);
    engine.set_parallelism(config.parallelism);
    engine.set_morsel_size(1);
    engine.set_use_planner(config.use_planner);
    return engine.Execute(query);
  }

  /// Runs a SELECT under every configuration and compares its rows, as a
  /// set, with `expected`.
  void ExpectSelect(const std::string& query, const Rows& expected) {
    for (const Config& config : kConfigs) {
      SCOPED_TRACE(ConfigName(config));
      auto result = Run(query, config);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_TRUE(result->IsTable());
      Rows rows;
      for (const auto& row : result->table->rows()) {
        std::vector<std::string> cells;
        for (const Value& v : row) cells.push_back(v.ToString());
        rows.insert(cells);
      }
      EXPECT_EQ(rows, expected);
    }
  }

  /// "x has an interest", restricted by hand: a disjunction naming the
  /// first names of the persons with a hasInterest edge.
  std::string InterestedByHand() {
    const BindingTable interested =
        Bindings("MATCH (x:Person)-[:hasInterest]->()");
    const PathPropertyGraph* graph = *catalog.Lookup("social_graph");
    std::string by_hand;
    for (size_t r = 0; r < interested.NumRows(); ++r) {
      const ValueSet& name =
          graph->Property(interested.Get(r, "x").node(), "firstName");
      EXPECT_TRUE(name.is_singleton());
      if (!name.is_singleton()) continue;
      by_hand += (by_hand.empty() ? "" : " OR ") +
                 std::string("x.firstName = '") + name.single().AsString() +
                 "'";
    }
    return by_hand;
  }

  GraphCatalog catalog;

 private:
  std::vector<std::unique_ptr<Query>> queries_;
};

constexpr const char* kPersons = "MATCH (n:Person)";
constexpr const char* kAuthored = "MATCH (n)<-[:has_creator]-(msg)";

TEST_F(SubqueryTest, ExistsIsTheSemijoin) {
  const BindingTable expected =
      TableSemijoin(Bindings(kPersons), Bindings(kAuthored));
  ASSERT_GT(expected.NumRows(), 0u);
  ExpectSelect(
      "SELECT n AS n MATCH (n:Person) "
      "WHERE EXISTS ( CONSTRUCT () MATCH (n)<-[:has_creator]-(msg) )",
      Project(expected, {"n"}));
}

TEST_F(SubqueryTest, NotExistsIsTheAntijoin) {
  const BindingTable expected =
      TableAntijoin(Bindings(kPersons), Bindings(kAuthored));
  ASSERT_GT(expected.NumRows(), 0u);
  ExpectSelect(
      "SELECT n AS n MATCH (n:Person) "
      "WHERE NOT EXISTS ( CONSTRUCT () MATCH (n)<-[:has_creator]-(msg) )",
      Project(expected, {"n"}));
}

TEST_F(SubqueryTest, PatternPredicateUnderOr) {
  // (σ_firstName='Alice' Ω) ∪ (Ω ⋉ ⟦(n)-[:hasInterest]->()⟧G).
  const BindingTable alice =
      Bindings("MATCH (n:Person) WHERE n.firstName = 'Alice'");
  const BindingTable interested = TableSemijoin(
      Bindings(kPersons), Bindings("MATCH (n)-[:hasInterest]->()"));
  Rows expected = Project(alice, {"n"});
  const Rows semi = Project(interested, {"n"});
  expected.insert(semi.begin(), semi.end());
  ASSERT_GT(semi.size(), 0u);
  ASSERT_GT(expected.size(), semi.size());
  ExpectSelect(
      "SELECT n AS n MATCH (n:Person) "
      "WHERE n.firstName = 'Alice' OR (n)-[:hasInterest]->()",
      expected);
}

TEST_F(SubqueryTest, ExistsInSelectProjection) {
  const BindingTable outer = Bindings(kPersons);
  const BindingTable inner = Bindings(kAuthored);
  Rows expected;
  for (const auto& row : Project(TableSemijoin(outer, inner), {"n"})) {
    expected.insert({row[0], Value::Bool(true).ToString()});
  }
  for (const auto& row : Project(TableAntijoin(outer, inner), {"n"})) {
    expected.insert({row[0], Value::Bool(false).ToString()});
  }
  ExpectSelect(
      "SELECT n AS n, "
      "EXISTS ( CONSTRUCT () MATCH (n)<-[:has_creator]-(msg) ) AS wrote "
      "MATCH (n:Person)",
      expected);
}

TEST_F(SubqueryTest, ExistsInConstructWhen) {
  const BindingTable expected =
      TableSemijoin(Bindings(kPersons), Bindings(kAuthored));
  std::set<std::string> expected_nodes;
  for (size_t r = 0; r < expected.NumRows(); ++r) {
    expected_nodes.insert(ToString(expected.Get(r, "n").node()));
  }
  for (const Config& config : kConfigs) {
    SCOPED_TRACE(ConfigName(config));
    auto result = Run(
        "CONSTRUCT (n) "
        "WHEN EXISTS ( CONSTRUCT () MATCH (n)<-[:has_creator]-(msg) ) "
        "MATCH (n:Person)",
        config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result->IsGraph());
    std::set<std::string> nodes;
    for (const NodeId id : result->graph->NodeIds()) {
      nodes.insert(ToString(id));
    }
    EXPECT_EQ(nodes, expected_nodes);
  }
}

TEST_F(SubqueryTest, OptionalUnboundSharedVariable) {
  // Outer side: t is unbound on the rows of persons without an interest,
  // which are compatible with every inner binding that agrees on n. (A
  // WHERE after OPTIONAL filters the optional block, so the full outer
  // row is asked from the SELECT projection.)
  const std::string optional_match =
      "MATCH (n:Person) OPTIONAL (n)-[:hasInterest]->(t)";
  const std::string located_match =
      "MATCH (n)-[:isLocatedIn]->(c:City {name='Houston'}), (t:Tag)";
  const BindingTable outer = Bindings(optional_match);
  const BindingTable inner = Bindings(located_match);
  Rows expected;
  for (const auto& row : Project(TableSemijoin(outer, inner), {"n", "t"})) {
    expected.insert({row[0], row[1], Value::Bool(true).ToString()});
  }
  for (const auto& row : Project(TableAntijoin(outer, inner), {"n", "t"})) {
    expected.insert({row[0], row[1], Value::Bool(false).ToString()});
  }
  ASSERT_EQ(expected.size(), outer.NumRows());
  ExpectSelect("SELECT n AS n, t AS t, EXISTS ( CONSTRUCT () " +
                   located_match + " ) AS hit " + optional_match,
               expected);

  // Inner side: the OPTIONAL sits in the subquery, whose rows with t
  // unbound match every outer t.
  const std::string tagged_match =
      "MATCH (n:Person)-[:isLocatedIn]->(c), (t:Tag)";
  const std::string others_match =
      "MATCH (n:Person) WHERE n.firstName <> 'Peter' "
      "OPTIONAL (n)-[:hasInterest]->(t)";
  const BindingTable tagged = Bindings(tagged_match);
  const BindingTable others = Bindings(others_match);
  const BindingTable semi = TableSemijoin(tagged, others);
  const BindingTable anti = TableAntijoin(tagged, others);
  ASSERT_GT(semi.NumRows(), 0u);
  ASSERT_GT(anti.NumRows(), 0u);
  ExpectSelect("SELECT n AS n, t AS t " + tagged_match +
                   " WHERE EXISTS ( CONSTRUCT () " + others_match + " )",
               Project(semi, {"n", "t"}));
  ExpectSelect("SELECT n AS n, t AS t " + tagged_match +
                   " WHERE NOT EXISTS ( CONSTRUCT () " + others_match + " )",
               Project(anti, {"n", "t"}));
}

TEST_F(SubqueryTest, PathViewWhereExists) {
  // A PATH view's WHERE runs on the view's own matcher, whose evaluator
  // answers EXISTS and pattern predicates: the view keeps the knows
  // segments whose x has an interest. Restricted by hand, that is a WHERE
  // naming those persons.
  const std::string by_hand = InterestedByHand();
  ASSERT_FALSE(by_hand.empty());

  // (n, m) endpoint pairs of the constructed reachability graph.
  auto reach = [&](const std::string& where, const Config& config) {
    std::set<std::pair<std::string, std::string>> pairs;
    auto result = Run("PATH p = (x)-[:knows]->(y)" + where +
                          " CONSTRUCT (n)-[:r]->(m) "
                          "MATCH (n:Person)-/<~p*>/->(m:Person)",
                      config);
    EXPECT_TRUE(result.ok()) << where << ": " << result.status().ToString();
    if (!result.ok() || !result->IsGraph()) return pairs;
    result->graph->ForEachEdge([&](EdgeId, NodeId from, NodeId to) {
      pairs.emplace(ToString(from), ToString(to));
    });
    return pairs;
  };
  const auto expected = reach(" WHERE " + by_hand, kConfigs[0]);
  // The restriction bites: some segment survives and some is dropped.
  const auto unrestricted = reach("", kConfigs[0]);
  const auto moves = std::count_if(
      expected.begin(), expected.end(),
      [](const auto& pair) { return pair.first != pair.second; });
  ASSERT_GT(moves, 0);
  ASSERT_LT(expected.size(), unrestricted.size());
  for (const Config& config : kConfigs) {
    SCOPED_TRACE(ConfigName(config));
    EXPECT_EQ(reach(" WHERE EXISTS ( CONSTRUCT () "
                    "MATCH (x)-[:hasInterest]->() )",
                    config),
              expected);
    EXPECT_EQ(reach(" WHERE (x)-[:hasInterest]->()", config), expected);
    EXPECT_EQ(reach(" WHERE " + by_hand, config), expected);
  }
}

TEST_F(SubqueryTest, PathViewCostSubquery) {
  // COST runs on the view's matcher too, so a pattern predicate or EXISTS
  // may price a segment: a knows segment costs 1 when its x has an
  // interest, else 2. Priced by hand, that is the same CASE over a
  // condition naming those persons.
  const std::string by_hand = InterestedByHand();
  ASSERT_FALSE(by_hand.empty());

  // (n, m, cost) of every weighted shortest walk over the view.
  auto costs = [&](const std::string& cond, const Config& config) {
    Rows rows;
    auto result = Run("PATH w = (x)-[:knows]->(y) COST CASE WHEN " + cond +
                          " THEN 1 ELSE 2 END "
                          "SELECT n.firstName AS n, m.firstName AS m, c "
                          "MATCH (n:Person)-/p<~w*> COST c/->(m:Person)",
                      config);
    EXPECT_TRUE(result.ok()) << cond << ": " << result.status().ToString();
    if (!result.ok() || !result->IsTable()) return rows;
    for (const auto& row : result->table->rows()) {
      std::vector<std::string> cells;
      for (const Value& v : row) cells.push_back(v.ToString());
      rows.insert(cells);
    }
    return rows;
  };
  const Rows expected = costs(by_hand, kConfigs[0]);
  // Both prices occur: the condition bites.
  const Rows all_one = costs("true", kConfigs[0]);
  const Rows all_two = costs("false", kConfigs[0]);
  ASSERT_FALSE(expected.empty());
  ASSERT_NE(expected, all_one);
  ASSERT_NE(expected, all_two);
  for (const Config& config : kConfigs) {
    SCOPED_TRACE(ConfigName(config));
    EXPECT_EQ(costs("(x)-[:hasInterest]->()", config), expected);
    EXPECT_EQ(costs("EXISTS ( CONSTRUCT () MATCH (x)-[:hasInterest]->() )",
                    config),
              expected);
    EXPECT_EQ(costs(by_hand, config), expected);
  }
}

TEST_F(SubqueryTest, FailingInnerRunsOnlyForOuterRows) {
  const std::string failing = "CONSTRUCT () MATCH (x) ON no_such_graph";
  const Status inner_status = Run(failing, kConfigs[0]).status();
  ASSERT_FALSE(inner_status.ok());
  for (const Config& config : kConfigs) {
    SCOPED_TRACE(ConfigName(config));
    // No outer row asks: the subquery is never evaluated.
    auto empty = Run("SELECT n AS n MATCH (n:NoSuchLabel) "
                     "WHERE EXISTS ( " + failing + " )",
                     config);
    ASSERT_TRUE(empty.ok()) << empty.status().ToString();
    EXPECT_EQ(empty->table->NumRows(), 0u);
    // Rows whose OR short-circuits never ask either.
    auto skipped = Run("SELECT n AS n MATCH (n:Person) "
                       "WHERE n.firstName <> 'Nobody' OR EXISTS ( " +
                           failing + " )",
                       config);
    ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
    EXPECT_EQ(skipped->table->NumRows(), Bindings(kPersons).NumRows());
    // The first row that asks fails the query with the inner Status.
    auto failed = Run("SELECT n AS n MATCH (n:Person) "
                      "WHERE EXISTS ( " + failing + " )",
                      config);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), inner_status.code());
    EXPECT_EQ(failed.status().message(), inner_status.message());
  }
}

}  // namespace
}  // namespace gcore
