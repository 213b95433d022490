// The paper's Section 3 listing (Q1-Q12, SELECT, FROM, ON-TABLE) in
// listing order. The texts are the same as bench/paper_queries.h; they
// are kept here so that the benchmark's inputs stay fixed while the
// repository's own microbenchmarks change.
#ifndef PERFBENCH_PAPER_QUERIES_H_
#define PERFBENCH_PAPER_QUERIES_H_

namespace perfbench {

struct PaperQuery {
  const char* id;
  const char* text;
};

inline constexpr PaperQuery kPaperQueries[] = {
    {"Q1",
     "CONSTRUCT (n) MATCH (n:Person) ON social_graph "
     "WHERE n.employer = 'Acme'"},
    {"Q2",
     "CONSTRUCT (c)<-[:worksAt]-(n) "
     "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
     "WHERE c.name = n.employer UNION social_graph"},
    {"Q3",
     "CONSTRUCT (c)<-[:worksAt]-(n) "
     "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
     "WHERE c.name IN n.employer UNION social_graph"},
    {"Q4",
     "CONSTRUCT (c)<-[:worksAt]-(n) "
     "MATCH (c:Company) ON company_graph, "
     "(n:Person {employer=e}) ON social_graph "
     "WHERE c.name = e UNION social_graph"},
    {"Q5",
     "CONSTRUCT social_graph, "
     "(x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
     "MATCH (n:Person {employer=e})"},
    {"Q6",
     "CONSTRUCT (n)-/@p:localPeople{distance:=c}/->(m) "
     "MATCH (n)-/3 SHORTEST p<:knows*> COST c/->(m) "
     "WHERE (n:Person) AND (m:Person) "
     "AND n.firstName = 'John' AND n.lastName = 'Doe' "
     "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)"},
    {"Q7",
     "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) "
     "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
     "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)"},
    {"Q8",
     "CONSTRUCT (n)-/p/->(m) "
     "MATCH (n:Person)-/ALL p<:knows*>/->(m:Person) "
     "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
     "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)"},
    {"Q9",
     "CONSTRUCT (m) MATCH (m:Person), (n:Person) "
     "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
     "AND EXISTS ( CONSTRUCT () "
     "MATCH (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m) )"},
    {"Q10",
     "GRAPH VIEW social_graph1 AS ( "
     "CONSTRUCT social_graph, (n)-[e]->(m) SET e.nr_messages := COUNT(*) "
     "MATCH (n)-[e:knows]->(m) WHERE (n:Person) AND (m:Person) "
     "OPTIONAL (n)<-[c1]-(msg1:Post|Comment), (msg1)-[:reply_of]-(msg2), "
     "(msg2:Post|Comment)-[c2]->(m) "
     "WHERE (c1:has_creator) AND (c2:has_creator) )"},
    {"Q11",
     "GRAPH VIEW social_graph2 AS ( "
     "PATH wKnows = (x)-[e:knows]->(y) "
     "WHERE NOT 'Acme' IN y.employer "
     "COST 1 / (1 + e.nr_messages) "
     "CONSTRUCT social_graph1, (n)-/@p:toWagner/->(m) "
     "MATCH (n:Person)-/p<~wKnows*>/->(m:Person) ON social_graph1 "
     "WHERE (m)-[:hasInterest]->(:Tag {name='Wagner'}) "
     "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m) "
     "AND n.firstName = 'John' AND n.lastName = 'Doe')"},
    {"Q12",
     "CONSTRUCT (n)-[e:wagnerFriend {score:=COUNT(*)}]->(m) "
     "WHEN e.score > 0 "
     "MATCH (n:Person)-/@p:toWagner/->(), (m:Person) ON social_graph2 "
     "WHERE m = nodes(p)[1]"},
    {"SELECT",
     "SELECT m.lastName + ', ' + m.firstName AS friendName "
     "MATCH (n:Person)-/<:knows*>/->(m:Person) "
     "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
     "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)"},
    {"FROM",
     "CONSTRUCT (cust GROUP custName :Customer {name:=custName}), "
     "(prod GROUP prodCode :Product {code:=prodCode}), "
     "(cust)-[:bought]->(prod) FROM orders"},
    {"ON-TABLE",
     "CONSTRUCT (cust GROUP o.custName :Customer {name:=o.custName}), "
     "(prod GROUP o.prodCode :Product {code:=o.prodCode}), "
     "(cust)-[:bought]->(prod) MATCH (o) ON orders"},
};

}  // namespace perfbench

#endif  // PERFBENCH_PAPER_QUERIES_H_
