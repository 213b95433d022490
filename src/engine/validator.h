// Static semantic validation of parsed queries — the well-formedness
// rules the paper states outside the grammar:
//
//  * variable sorts are consistent: "it would be illegal to use n (a
//    node) in the place of y (an edge)" (Section 3);
//  * ALL path variables may only be used for graph projection:
//    "asking for all paths is not allowed if a path variable is bound to
//    it and used somewhere ... G-CORE can support it in the case where
//    the path variable is only used to return a graph projection";
//  * construct-side path variables must be bound by the MATCH;
//  * bound edges cannot be re-oriented (checked at runtime too; flagged
//    early when statically decidable);
//  * PATH view names are unique; referenced views exist among the head
//    clauses;
//  * variables shared between OPTIONAL blocks appear in the enclosing
//    pattern (Section 3 / [31]);
//  * graph positions hold graph-typed queries: a SELECT cannot be a
//    set-operation operand, a GRAPH clause's query or an ON (subquery)
//    location (Section 5 — SELECT is the one table-producing form).
//
// Validation runs before evaluation (QueryEngine::Execute) and returns
// kBindError with a precise message.
#ifndef GCORE_ENGINE_VALIDATOR_H_
#define GCORE_ENGINE_VALIDATOR_H_

#include "ast/ast.h"
#include "common/status.h"

namespace gcore {

/// Variable sorts.
enum class VarSort { kNode, kEdge, kPath, kValue };
const char* VarSortToString(VarSort sort);

/// Checks `query` (recursing into views, subqueries and set-op branches).
Status ValidateQuery(const Query& query);

}  // namespace gcore

#endif  // GCORE_ENGINE_VALIDATOR_H_
