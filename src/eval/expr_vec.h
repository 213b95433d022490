// Vectorized expression kernels: an Expr tree compiled once per
// (schema, snapshot) into a small program of typed batch kernels over
// columnar binding chunks.
//
// The row-at-a-time ExprEvaluator (expr_eval.h) stays the executable
// spec; a VecProgram is an *optimization* of it, pinned byte-identical
// by tests/eval/expr_vec_test.cc. Kernels operate on compact cells —
// one tag byte plus a 64-bit slot — instead of materialized ValueSets:
//
//   * singleton scalars (null/bool/int/double/date) are encoded inline
//     (dates packed as year/month/day so non-calendar literals survive);
//   * strings are string_views into the snapshot pool / AST literals
//     (property strings gathered straight from GraphSnapshot columns);
//   * multi-valued overflow cells keep a pointer to the stored ValueSet;
//   * nodes/edges carry their raw id (property gathers resolve dense
//     indices against the snapshot per row, with column pointers bound
//     once at compile time).
//
// A comparison `x.k ⊙ literal` compiles to one fused opcode that reads
// the snapshot cell in place; string (in)equality compares the pool
// string with the literal without gathering a cell at all.
//
// Kernels never construct a Status: any row whose evaluation could
// error (type errors, division by zero, path-valued operands) is tagged
// as a fallback row and replayed through the row evaluator in ascending
// row order, so the first error surfaced — and every non-error result —
// matches the serial path exactly. AND/OR evaluate their right side
// only on the selection that survived the left side (short-circuiting
// as a selection-vector gather), which also reproduces the row path's
// error suppression.
//
// Compile() refuses (returns null) when any subtree needs the full
// evaluator (function calls, aggregates, index expressions, EXISTS,
// pattern predicates); callers then keep the row path. Programs are
// immutable after compilation and safe to share across threads; all
// per-call state lives in a stack-local scratch area.
#ifndef GCORE_EVAL_EXPR_VEC_H_
#define GCORE_EVAL_EXPR_VEC_H_

#include <functional>
#include <memory>
#include <vector>

#include "ast/expr.h"
#include "common/result.h"
#include "eval/binding.h"
#include "eval/expr_eval.h"
#include "graph/snapshot.h"

namespace gcore {

/// Splits a comparison `x.k ⊙ literal` (⊙ ∈ = <> < <= > >=, literal on
/// either side) into its property and literal operands and the operator
/// as read with the property on the left. False for every other shape.
/// VecProgram compiles this shape to one fused column-scan opcode.
bool SplitPropertyLiteralCompare(const Expr& e, const Expr** prop,
                                 const Expr** lit, BinaryOp* op);

class VecProgram {
 public:
  /// Resolves the frozen snapshot of a graph at compile time (property
  /// gathers bind their PropertyColumn pointers once). The returned
  /// reference must outlive the program — Matcher's snapshot cache
  /// provides exactly that lifetime.
  using SnapshotFn =
      std::function<const GraphSnapshot&(const PathPropertyGraph&)>;

  /// Compiles `expr` against the column schema of `schema` (column
  /// indices and per-variable provenance graphs are resolved now, so
  /// every evaluated chunk must share that schema — same column names
  /// in the same order with the same provenance). Returns null when the
  /// expression contains a construct the kernels do not cover. `eval`
  /// supplies provenance resolution (ExprEvaluator::GraphFor);
  /// `snapshots` pins property columns. `expr` must outlive the program.
  static std::shared_ptr<const VecProgram> Compile(const Expr& expr,
                                                   const BindingTable& schema,
                                                   const ExprEvaluator& eval,
                                                   const SnapshotFn& snapshots);

  ~VecProgram();

  /// Predicate batch: appends (in order) the members of rows[0..n) that
  /// satisfy the expression to *keep. Rows the kernels cannot decide
  /// are replayed through eval.EvalPredicate as they are reached, so
  /// row-level errors surface for exactly the row — and in exactly the
  /// order — the serial filter loop would surface them.
  Status FilterRows(const BindingTable& table, const size_t* rows, size_t n,
                    const ExprEvaluator& eval, std::vector<size_t>* keep) const;

  /// Value batch: out[i] receives the expression's Datum for rows[i]
  /// and fallback[i] is 0; rows the kernels cannot decide leave out[i]
  /// unbound with fallback[i] = 1 — the caller replays those through
  /// ExprEvaluator::Eval in its own (row-major) order so multi-
  /// expression sites keep the serial error order. Both vectors are
  /// resized to n.
  void EvalValues(const BindingTable& table, const size_t* rows, size_t n,
                  std::vector<Datum>* out,
                  std::vector<uint8_t>* fallback) const;

  /// The compiled expression (callers replay fallback rows against it).
  const Expr& expr() const;

 private:
  struct Impl;

  VecProgram();

  std::unique_ptr<Impl> impl_;
};

}  // namespace gcore

#endif  // GCORE_EVAL_EXPR_VEC_H_
