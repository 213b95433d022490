// The MATCH evaluator: Appendix A.2.
//
// Evaluates full graph patterns (chains of node/edge/path patterns over
// possibly different graphs) into binding tables, applies WHERE filters
// (including EXISTS subqueries and implicit pattern predicates), and
// chains OPTIONAL blocks with left outer joins in source order.
//
// Since the planner refactor, `EvalMatchClause` lowers the clause to a
// logical plan (plan/planner.h), optimizes it, and runs it through the
// pull-based executor (plan/executor.h). It is the one entry point for
// every caller: plain execution, the plan cache (run a cached plan, or
// hand the built one out) and EXPLAIN ANALYZE (record per-operator
// actuals) differ only in its nullable hooks. The pre-planner recursive
// tree-walk is kept as a reference implementation (`use_planner = false`)
// for differential testing; both paths share the pattern-element
// primitives below, so their semantics cannot drift apart.
#ifndef GCORE_EVAL_MATCHER_H_
#define GCORE_EVAL_MATCHER_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "ast/ast.h"
#include "common/options.h"
#include "eval/binding.h"
#include "eval/binding_ops.h"
#include "eval/expr_eval.h"
#include "eval/expr_vec.h"
#include "graph/adjacency.h"
#include "graph/catalog.h"
#include "graph/snapshot.h"
#include "paths/k_shortest.h"
#include "paths/path_view.h"

namespace gcore {

class ExecStats;  // plan/executor.h
struct PlanNode;  // plan/plan.h

/// Everything a match evaluation needs from its surroundings. The
/// evaluation knobs (planner on/off, optimizer rules, parallelism —
/// see common/options.h) are the inherited EngineOptions fields: the
/// engine assigns one frozen options struct in a single statement
/// instead of forwarding field by field.
struct MatcherContext : EngineOptions {
  GraphCatalog* catalog = nullptr;
  /// PATH views in scope (query head clauses). May be null.
  const PathViewRegistry* views = nullptr;
  /// Graph used when a pattern has no ON clause.
  std::string default_graph;
  /// Correlated-EXISTS hook (wired by the engine; may be empty — EXISTS
  /// then errors, naming the subquery).
  ExprEvaluator::ExistsCallback exists_cb;
  /// Resolved ON-(subquery) locations: the engine evaluates each
  /// pattern's subquery to a temporary catalog graph and records its name
  /// here before matching. May be null.
  const std::map<const GraphPattern*, std::string>* location_overrides =
      nullptr;
};

/// Result of evaluating one pattern chain with full element detail; used
/// by the engine to assemble PATH-view segment bodies.
struct ChainResult {
  BindingTable table;
  /// Column name of every chain element in order: node, connector, node,
  /// connector, ... (anonymous elements get generated "__anonN" names).
  std::vector<std::string> element_columns;
};

/// Pattern admission compiled once against a GraphSnapshot: label groups
/// are resolved to interned ids and literal kFilter props to (typed
/// column, literal) pairs, so the per-candidate test touches only dense
/// arrays — no string lookup, no std::map walk, no ValueSet
/// materialization. It is the one place a literal `{k = v}` is decided,
/// with expression semantics: v ∈ σ(x, k) for a non-null v, σ(x, k) = ∅
/// for a null one (⟦null⟧ = ∅). Non-literal and bind-mode props stay the
/// caller's business (Matcher::ApplyPropPatterns).
class SnapshotPred {
 public:
  static SnapshotPred ForNode(const GraphSnapshot& snap,
                              const NodePattern& node);
  static SnapshotPred ForEdge(const GraphSnapshot& snap,
                              const EdgePattern& edge);

  /// Admission of a member object by dense node/edge index.
  bool Admits(uint32_t idx) const;
  /// Admission of an id outside the snapshot, whose λ/σ are empty.
  bool AdmitsNonMember() const;
  /// True when no member can match (a label group with no interned label,
  /// or a non-null literal on a key no object carries): callers skip the
  /// scan.
  bool never() const { return never_; }
  /// True when the pattern constrains nothing — every object admits,
  /// including ids outside the snapshot.
  bool unconstrained() const {
    return !never_ && groups_.empty() && filters_.empty();
  }
  /// A label every match must carry (some singleton label group), chosen
  /// with the smallest per-label index span — node scans iterate
  /// NodesWithLabel(scan_label()) instead of every node. kNoLabel when
  /// the pattern has no singleton group.
  uint32_t scan_label() const { return scan_label_; }

 private:
  SnapshotPred(const GraphSnapshot& snap, bool node_side,
               const std::vector<std::vector<std::string>>& label_groups,
               const std::vector<PropPattern>& props);

  const GraphSnapshot* snap_;
  bool node_side_;
  /// Interned label ids per group (any-of within, all-of across).
  std::vector<std::vector<uint32_t>> groups_;
  /// (column, literal) of each literal kFilter prop; the Value pointers
  /// alias the pattern AST, which outlives the predicate. A null pointer
  /// is a null literal: the cell must be absent.
  std::vector<std::pair<const GraphSnapshot::PropertyColumn*, const Value*>>
      filters_;
  bool never_ = false;
  uint32_t scan_label_ = GraphSnapshot::kNoLabel;
};

/// True for a `{k = literal}` filter prop — the props SnapshotPred decides.
bool IsLiteralFilter(const PropPattern& p);

/// The match runtime: pattern-element primitives plus per-evaluation
/// caches (graph snapshots, anonymous-column counter). Shared by the
/// legacy tree-walk and the plan executor.
class Matcher {
 public:
  explicit Matcher(MatcherContext ctx);

  /// ⟦MATCH γ WHERE ξ OPTIONAL ...⟧. Internal (anonymous) columns are
  /// dropped from the result. Plans + executes unless
  /// `ctx.use_planner = false` (then the legacy tree-walk runs). Three
  /// nullable hooks:
  ///  * `plan` — an already-optimized plan to execute instead of planning
  ///    (a plan-cache hit). Shared, concurrently executed and never
  ///    mutated; `match` must be the clause it was built from (same AST
  ///    object, kept alive by the cache entry).
  ///  * `stats` — every operator records its actual rows and time
  ///    (EXPLAIN ANALYZE). Forces planning even with use_planner = false,
  ///    and annotates the built plan's estimates.
  ///  * `plan_out` — receives the plan this call built, after executing
  ///    it (null when `plan` was given; untouched when the legacy walk
  ///    ran). It holds non-owning pointers into the match AST.
  Result<BindingTable> EvalMatchClause(
      const MatchClause& match, const PlanNode* plan = nullptr,
      ExecStats* stats = nullptr,
      std::unique_ptr<PlanNode>* plan_out = nullptr);

  /// Joined evaluation of comma-separated patterns (no WHERE).
  Result<BindingTable> EvalPatterns(
      const std::vector<GraphPattern>& patterns);

  /// Chain evaluation preserving anonymous element columns.
  Result<ChainResult> EvalChainDetailed(const GraphPattern& pattern);

  /// True when `pattern` has at least one match compatible with row
  /// `row` of `outer` (the ⋉ of correlated predicates). The pattern's
  /// matches are evaluated on first use and kept for the matcher's
  /// lifetime; every later row costs one probe.
  Result<bool> PatternHasMatch(const GraphPattern& pattern,
                               const BindingTable& outer, size_t row);

  /// Resolves a graph name (or the default when empty); a registered
  /// *table* of that name is interpreted as a graph of isolated nodes
  /// (Section 5, "Interpreting tables as graphs").
  Result<const PathPropertyGraph*> ResolveGraph(const std::string& name);

  /// Columnar snapshot of `graph` (cached per graph pointer for the
  /// matcher's lifetime; shared with the catalog's cache when `graph` is
  /// the registered instance). Thread-safe: executor stages pre-warm the
  /// cache from the coordinator, but worker-thread lookups (and stray
  /// builds) serialize on an internal mutex.
  const GraphSnapshot& Snapshot(const PathPropertyGraph& graph) const;
  /// The snapshot's CSR topology (same cache).
  const AdjacencyIndex& Adjacency(const PathPropertyGraph& graph) {
    return Snapshot(graph).adjacency();
  }

  const MatcherContext& context() const { return ctx_; }

  // --- pattern-element primitives ------------------------------------------
  // Used by both evaluation paths; they extend/filter `table` in place.

  Result<BindingTable> MatchStartNode(const NodePattern& node,
                                      const PathPropertyGraph& graph,
                                      const std::string& graph_name,
                                      const std::string& var);
  Result<BindingTable> ExpandEdgeHop(BindingTable table,
                                     const std::string& from_var,
                                     const EdgePattern& edge,
                                     const std::string& edge_var,
                                     const NodePattern& to,
                                     const std::string& to_var,
                                     const PathPropertyGraph& graph,
                                     const std::string& graph_name);
  /// Batch-oriented: the source column is deduplicated and each distinct
  /// source answered by one batched kernel launch — multi-source product
  /// BFS for reachable sets, batched k-shortest, bidirectional pair
  /// probes for prebound targets, the `<~view*>` SSSP fast path — then a
  /// serial emission loop replays the rows in input order against the
  /// caches. Output rows, row order and fresh path ids are exactly those
  /// of per-row serial evaluation at every MatcherContext::parallelism
  /// degree (the kernels are degree-invariant and ids are drawn in
  /// row-emission order).
  Result<BindingTable> ExpandPathHop(
      BindingTable table, const std::string& from_var,
      const PathPattern& path, const std::string& path_var,
      const NodePattern& to, const std::string& to_var,
      const PathPropertyGraph& graph, const std::string& graph_name);

  /// Keeps the rows of `table` on which every conjunct holds: the one
  /// WHERE path over a binding table (pushed conjuncts of an operator, or
  /// a whole residual WHERE as a single conjunct, which is then neither
  /// split nor reordered). Each conjunct runs its VecProgram when it
  /// compiles and `enable_vectorized_exprs` is on, the row evaluator
  /// otherwise.
  Result<BindingTable> FilterByConjuncts(
      BindingTable table, const std::vector<const Expr*>& conjuncts,
      const PathPropertyGraph* graph);

  /// Drops matcher-internal columns (restoring `output` order when given)
  /// and re-establishes set semantics. The shared tail of both paths;
  /// duplicate elimination is fused into row construction.
  BindingTable ProjectResult(const BindingTable& table,
                             const std::vector<std::string>* output) const;

  /// Column slicing of ProjectResult without the dedup: used by the
  /// executor's per-morsel projection stage, whose chunks merge through
  /// one fused dedup sink afterwards. Thread-safe.
  BindingTable ProjectChunk(const BindingTable& table,
                            const std::vector<std::string>* output) const;

  std::string FreshAnonName();
  ExprEvaluator MakeEvaluator(const PathPropertyGraph* graph);

  /// Vectorized program for `expr` over `table`'s schema (eval/expr_vec.h),
  /// or null when the expression needs the row evaluator. Compiled once
  /// and cached for the matcher's lifetime per (expression, schema,
  /// default graph); the snapshot cache pins every snapshot a program
  /// gathers from. Thread-safe; `expr` must outlive the matcher's use of
  /// the program (plan/AST lifetime — both outlive the evaluation).
  std::shared_ptr<const VecProgram> VecProgramFor(
      const Expr& expr, const BindingTable& table, const ExprEvaluator& eval,
      const PathPropertyGraph* default_graph) const;

 private:
  Result<BindingTable> LegacyEvalMatchClause(const MatchClause& match);
  Result<BindingTable> EvalChainInternal(const GraphPattern& pattern,
                                         ChainResult* detail);

  /// Label-group test: every group must have at least one matching label.
  static bool LabelsMatch(const LabelSet& labels,
                          const std::vector<std::vector<std::string>>& groups);

  /// Applies the `{k = ...}` entries SnapshotPred does not decide to rows
  /// of `table` whose column `var` holds the object: non-literal filters
  /// (with expression semantics) and bind-variables, which unroll.
  Result<BindingTable> ApplyPropPatterns(BindingTable table,
                                         const std::string& var,
                                         const std::vector<PropPattern>& props,
                                         const PathPropertyGraph& graph);

  /// Applies pushed-down single-variable WHERE conjuncts for `var` (no-op
  /// when none are registered; legacy path only).
  Result<BindingTable> ApplyPushdownFilters(BindingTable table,
                                            const std::string& var,
                                            const PathPropertyGraph* graph);

  MatcherContext ctx_;
  /// When a MATCH clause names exactly one distinct ON graph, patterns
  /// without their own ON use it (the paper writes clause-level ON, e.g.
  /// line 70: `MATCH (n)-/@p:toWagner/->(), (m:Person) ON social_graph2`).
  std::string clause_on_override_;
  /// Selection pushdown (legacy path): single-variable conjuncts of the
  /// clause's WHERE, applied as soon as their variable is bound during
  /// chain evaluation — essential so `WHERE n.firstName = 'John'`
  /// restricts the *sources* of an expensive path hop instead of
  /// filtering afterwards. The full WHERE still runs afterwards
  /// (re-checking is harmless). In planner mode the same conjuncts live
  /// in the plan's scan/expand nodes instead.
  std::map<std::string, std::vector<const Expr*>> pushdown_filters_;
  mutable std::mutex adj_mu_;
  /// Per-query snapshot cache keyed by graph pointer; entries hold shared
  /// ownership so a catalog re-register cannot pull a snapshot out from
  /// under an in-flight evaluation.
  mutable std::map<const PathPropertyGraph*,
                   std::shared_ptr<const GraphSnapshot>>
      snapshot_cache_;
  /// Per-query graph pins keyed by resolved name: the first ResolveGraph
  /// of a name takes shared ownership, so every later resolution within
  /// this evaluation returns the same image even if the catalog
  /// re-registered the name mid-flight — an in-progress reader finishes
  /// on the graph version it started with.
  mutable std::map<std::string, std::shared_ptr<const PathPropertyGraph>>
      graph_pins_;
  /// Compiled vectorized programs keyed by (expression identity, schema
  /// signature): the same conjunct is compiled once per schema even
  /// though morsels arrive chunk by chunk. Negative results (null) are
  /// cached too, so uncompilable expressions pay the walk only once.
  mutable std::mutex vec_mu_;
  mutable std::map<std::pair<const Expr*, std::string>,
                   std::shared_ptr<const VecProgram>>
      vec_cache_;
  /// ⟦γ⟧G of each pattern predicate, evaluated on first use (one
  /// evaluation per MATCH clause instead of one per outer row). Pattern
  /// predicates never run on worker threads (ExprParallelSafe), so no
  /// lock guards this.
  std::map<const GraphPattern*, CorrelatedBindings> pattern_matches_;
  int anon_counter_ = 0;
};

/// True for matcher-internal generated column names.
bool IsInternalColumn(const std::string& name);

/// Splits `where` into AND-conjuncts and registers every pushdown-safe
/// single-variable conjunct under its variable (the pushdown rewrite rule;
/// shared by the legacy walk and the planner).
void CollectSingleVarConjuncts(
    const Expr& where,
    std::map<std::string, std::vector<const Expr*>>* out);

/// The single distinct ON graph named by the clause's patterns, or ""
/// (clause-level ON inference shared by both evaluation paths).
std::string ClauseOnOverride(const MatchClause& match);

/// The syntactic restriction of [31] (end of Section 3): variables shared
/// between OPTIONAL blocks must appear in the main pattern, making the
/// evaluation order immaterial.
Status CheckOptionalVariableSharing(const MatchClause& match);

}  // namespace gcore

#endif  // GCORE_EVAL_MATCHER_H_
