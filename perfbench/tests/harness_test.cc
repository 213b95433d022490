// Self-tests of the benchmark harness: the id-free fingerprint, the class
// rule, percentile and tail selection, the seeded request stream and the
// EXPLAIN ANALYZE parser. Exits non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "harness.h"
#include "paper_queries.h"
#include "snb/generator.h"
#include "snb/toy_graphs.h"

namespace perfbench {
namespace {

int failures = 0;

#define CHECK(cond)                                                 \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,   \
                   __LINE__, #cond);                                \
      ++failures;                                                   \
    }                                                               \
  } while (0)

using gcore::EdgeId;
using gcore::NodeId;
using gcore::PathPropertyGraph;
using gcore::Value;
using gcore::ValueSet;

/// Person -knows-> Person with properties; ids offset by `base`.
PathPropertyGraph TwoPeople(uint64_t base) {
  PathPropertyGraph g;
  const NodeId a(base + 1);
  const NodeId b(base + 2);
  g.AddNode(a);
  g.AddNode(b);
  g.AddLabel(a, "Person");
  g.AddLabel(b, "Person");
  g.SetProperty(a, "name", ValueSet(Value::String("Ann")));
  g.SetProperty(b, "name", ValueSet(Value::String("Bob")));
  const EdgeId e(base + 3);
  if (!g.AddEdge(e, a, b).ok()) ++failures;
  g.AddLabel(e, "knows");
  g.SetProperty(e, "since", ValueSet(Value::Int(2014)));
  return g;
}

void TestFingerprint() {
  const std::string base = GraphFingerprint(TwoPeople(100));
  // Fresh ids do not change the fingerprint.
  CHECK(GraphFingerprint(TwoPeople(900)) == base);

  PathPropertyGraph relabeled = TwoPeople(100);
  relabeled.AddLabel(NodeId(101), "Manager");
  CHECK(GraphFingerprint(relabeled) != base);

  PathPropertyGraph reproperty = TwoPeople(100);
  reproperty.SetProperty(EdgeId(103), "since", ValueSet(Value::Int(2015)));
  CHECK(GraphFingerprint(reproperty) != base);

  PathPropertyGraph bigger = TwoPeople(100);
  bigger.AddNode(NodeId(104));
  CHECK(GraphFingerprint(bigger) != base);

  // The edge's direction between differently labelled nodes is seen.
  PathPropertyGraph reversed = TwoPeople(100);
  reversed.AddLabel(NodeId(101), "Manager");
  PathPropertyGraph forward = TwoPeople(100);
  forward.AddLabel(NodeId(102), "Manager");
  CHECK(GraphFingerprint(reversed) != GraphFingerprint(forward));

  // Tables compare byte for byte.
  gcore::QueryResult t1;
  t1.table = gcore::Table({"x"});
  CHECK(t1.table->AddRow({Value::Int(1)}).ok());
  gcore::QueryResult t2;
  t2.table = gcore::Table({"x"});
  CHECK(t2.table->AddRow({Value::Int(2)}).ok());
  CHECK(ResultFingerprint(t1) != ResultFingerprint(t2));

  // A CONSTRUCT re-executed mints new ids but keeps its fingerprint.
  gcore::GraphCatalog catalog;
  gcore::snb::RegisterToyData(&catalog);
  gcore::QueryEngine engine(&catalog);
  const char* q =
      "CONSTRUCT (x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
      "MATCH (n:Person {employer=e})";
  auto r1 = engine.Execute(q);
  auto r2 = engine.Execute(q);
  CHECK(r1.ok() && r2.ok());
  if (r1.ok() && r2.ok()) {
    CHECK(ResultFingerprint(*r1) == ResultFingerprint(*r2));
  }
}

void TestClassify() {
  const std::map<std::string, QueryClass> expected = {
      {"Q1", QueryClass::kConstruct},  {"Q2", QueryClass::kConstruct},
      {"Q3", QueryClass::kConstruct},  {"Q4", QueryClass::kConstruct},
      {"Q5", QueryClass::kConstruct},  {"Q6", QueryClass::kPath},
      {"Q7", QueryClass::kPath},       {"Q8", QueryClass::kPath},
      {"Q9", QueryClass::kConstruct},  {"Q10", QueryClass::kConstruct},
      {"Q11", QueryClass::kPath},      {"Q12", QueryClass::kPath},
      {"SELECT", QueryClass::kPath},   {"FROM", QueryClass::kConstruct},
      {"ON-TABLE", QueryClass::kConstruct},
  };
  for (const PaperQuery& q : kPaperQueries) {
    const auto it = expected.find(q.id);
    CHECK(it != expected.end());
    if (it != expected.end() && Classify(q.text) != it->second) {
      std::fprintf(stderr, "  %s classified %s\n", q.id,
                   ClassName(Classify(q.text)));
      ++failures;
    }
  }
  for (QueryClass c : {QueryClass::kLookup, QueryClass::kExpand,
                       QueryClass::kJoin, QueryClass::kPath}) {
    CHECK(Classify(RequestText(c, "Wei", "Chen_3")) == c);
  }
  CHECK(Classify("SELECT a.x AS x MATCH (a)-[:e]->(b)-[:e]->(a)") ==
        QueryClass::kJoin);
  CHECK(Classify("select n.x as x match (n:Person) where n.x = 'a-/b'") ==
        QueryClass::kLookup);
  CHECK(Classify("SELECT n.x AS x MATCH (n)") == QueryClass::kOther);
}

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  CHECK(Percentile(v, 50) == 51.0);
  CHECK(Percentile(v, 99) == 100.0);
  CHECK(Percentile(v, 0) == 1.0);
  CHECK(Percentile(v, 100) == 101.0);
  CHECK(Percentile({1.0, 2.0}, 50) == 1.5);
  CHECK(Median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(Median({}) == 0.0);

  CHECK(TailPercentileFor(1000) == 99);
  CHECK(TailPercentileFor(999) == 95);
  CHECK(TailPercentileFor(200) == 95);
  CHECK(TailPercentileFor(199) == 90);
  CHECK(TailPercentileFor(100) == 90);
  CHECK(TailPercentileFor(99) == 75);
  CHECK(TailPercentileFor(40) == 75);
  CHECK(TailPercentileFor(39) == 50);
  CHECK(TailPercentileFor(20) == 50);
  CHECK(TailPercentileFor(19) == 0);
}

void TestStreams() {
  // Same seed, same stream; another seed or client, another stream.
  RequestStream a(20000, 7, 0);
  RequestStream b(20000, 7, 0);
  RequestStream c(20000, 8, 0);
  RequestStream d(20000, 7, 1);
  size_t same_c = 0;
  size_t same_d = 0;
  std::map<QueryClass, size_t> classes;
  std::set<std::string> distinct;
  for (int i = 0; i < 2000; ++i) {
    const Request ra = a.Next();
    const Request rb = b.Next();
    CHECK(ra.text == rb.text && ra.cls == rb.cls);
    same_c += ra.text == c.Next().text;
    same_d += ra.text == d.Next().text;
    ++classes[ra.cls];
    distinct.insert(ra.text);
  }
  CHECK(same_c < 200);
  CHECK(same_d < 200);
  // The mix is roughly 60/25/10/5 and repeats texts (Zipf) while still
  // exceeding the 128-entry plan cache.
  CHECK(classes[QueryClass::kLookup] > 1000 &&
        classes[QueryClass::kLookup] < 1400);
  CHECK(classes[QueryClass::kPath] > 50 && classes[QueryClass::kPath] < 200);
  CHECK(distinct.size() > 128 && distinct.size() < 1800);

  ZipfStream z1(100, 1.2, 3, 4);
  ZipfStream z2(100, 1.2, 3, 4);
  std::vector<size_t> counts(100, 0);
  for (int i = 0; i < 10000; ++i) {
    const size_t x = z1.Next();
    CHECK(x == z2.Next());
    CHECK(x < 100);
    ++counts[x % 100];
  }
  size_t top = 0;
  for (size_t c : counts) top = std::max(top, c);
  CHECK(top > 1500);  // rank 1 draws ~ 1/H(100, 1.2) ~ 27%

  // Person names are unique and are exactly the generator's.
  std::set<std::pair<std::string, std::string>> names;
  for (size_t i = 0; i < 20000; ++i) names.insert(PersonName(i));
  CHECK(names.size() == 20000);
  gcore::GraphCatalog catalog;
  gcore::snb::GeneratorOptions options;
  options.num_persons = 1200;
  const PathPropertyGraph g = gcore::snb::Generate(options, catalog.ids());
  std::set<std::pair<std::string, std::string>> generated;
  g.ForEachNode([&](NodeId id) {
    if (!g.Labels(id).Contains("Person")) return;
    generated.insert({g.Property(id, "firstName").single().AsString(),
                      g.Property(id, "lastName").single().AsString()});
  });
  std::set<std::pair<std::string, std::string>> expected;
  for (size_t i = 0; i < options.num_persons; ++i) {
    expected.insert(PersonName(i));
  }
  CHECK(generated == expected);
}

void TestAnalyzeParsing() {
  const std::vector<std::string> lines = {
      "GraphUnion",
      "├─ Construct",
      "│  └─ Project [c, n] dedup parallelism=4  (est_rows=400 "
      "actual_rows=144 actual_ms=0.011)",
      "│     └─ Filter (c.name = n.employer)  (est_rows=400 actual_rows=144)",
      "│        └─ NodeScan (n:Person) on g  (est_rows=1.6e+03 "
      "actual_rows=1600 actual_ms=0.101)",
      "└─ Graph social_graph",
  };
  const std::vector<AnalyzedOp> ops = ParseAnalyze(lines);
  CHECK(ops.size() == 3);
  if (ops.size() == 3) {
    CHECK(ops[0].op == "Project" && ops[0].root);
    CHECK(ops[0].actual_rows == 144 && ops[0].actual_ms == 0.011);
    CHECK(ops[1].op == "Filter" && !ops[1].root);
    CHECK(ops[1].actual_ms < 0.0);  // missing, not zero
    CHECK(ops[2].op == "NodeScan" && ops[2].est_rows == 1600.0);
  }
}

void TestJson() {
  CHECK(JsonNumber(1.5) == "1.5");
  CHECK(JsonNumber(0.1) == "0.1");
  CHECK(JsonString("a\"b") == "\"a\\\"b\"");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestFingerprint();
  perfbench::TestClassify();
  perfbench::TestPercentiles();
  perfbench::TestStreams();
  perfbench::TestAnalyzeParsing();
  perfbench::TestJson();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 perfbench::failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
