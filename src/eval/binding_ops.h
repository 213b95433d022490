// The binding-set algebra of Appendix A.1:
//
//   Ω1 ∪ Ω2   union
//   Ω1 ⋈ Ω2   natural join over compatible bindings
//   Ω1 ⋉ Ω2   semijoin (filter Ω1 by compatibility with Ω2)
//   Ω1 ∖ Ω2   anti-semijoin
//   Ω1 ⟕ Ω2   left outer join = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2)
//
// Compatibility: µ1 ∼ µ2 iff they agree on every variable bound in both.
// An unbound entry (variable outside dom(µ)) is compatible with anything.
#ifndef GCORE_EVAL_BINDING_OPS_H_
#define GCORE_EVAL_BINDING_OPS_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "eval/binding.h"

namespace gcore {

/// The compatibility test µ1 ∼ µ2 prepared for one probe schema: the
/// columns a probe table `a` shares with `b`, plus a hash index over b's
/// rows keyed by the combined hash of their shared cells (rows with an
/// unbound shared cell sit in a wildcard list every probe checks). Built
/// once, it answers any number of probe rows of tables with a's column
/// order — the join, semijoin and antijoin loops, and correlated
/// subqueries, whose inner bindings are probed once per outer row.
/// Keeps a reference to `b`, which must outlive the index.
class ProbeIndex {
 public:
  /// (column in a, column in b) of every variable both schemas carry.
  using Shared = std::vector<std::pair<size_t, size_t>>;

  ProbeIndex(const BindingTable& a, const BindingTable& b);

  static Shared SharedColumns(const BindingTable& a, const BindingTable& b);
  const Shared& shared() const { return shared_; }

  /// µ1 ∼ µ2 on the shared columns: equal wherever both cells are bound.
  /// Tested column-wise (dense cells compare kind bytes and raw ids).
  static bool CompatibleAt(const BindingTable& a, size_t ra,
                           const BindingTable& b, size_t rb,
                           const Shared& shared);

  /// Combined hash of the shared cells of row `r` of `t`, read from side
  /// `kSide` of each pair (0 = a, 1 = b); false when any is unbound.
  template <size_t kSide>
  static bool HashSharedAt(const BindingTable& t, size_t r,
                           const Shared& shared, size_t* hash) {
    size_t h = 0;
    for (const auto& cols : shared) {
      const Column& c = t.ColumnAt(std::get<kSide>(cols));
      if (!c.BoundAt(r)) return false;
      h = HashCombine(h, c.HashAt(r));
    }
    *hash = h;
    return true;
  }

  /// Calls fn(rb) for every row rb of b compatible with row `ra` of `a`:
  /// the matching hash bucket (every bucket when a shared cell of the
  /// probe row is unbound), then the wildcard rows.
  template <typename Fn>
  void ForEachCompatible(const BindingTable& a, size_t ra, Fn fn) const {
    Visit(a, ra, [&](size_t rb) {
      fn(rb);
      return false;
    });
  }

  /// True when some row of b is compatible with row `ra` of `a`; stops
  /// at the first.
  bool AnyCompatible(const BindingTable& a, size_t ra) const {
    return Visit(a, ra, [](size_t) { return true; });
  }

 private:
  /// Calls stop(rb) for the compatible rows in enumeration order until it
  /// returns true; returns whether it did.
  template <typename Stop>
  bool Visit(const BindingTable& a, size_t ra, Stop stop) const {
    auto visit = [&](const std::vector<size_t>& rows) {
      for (const size_t rb : rows) {
        if (CompatibleAt(a, ra, *b_, rb, shared_) && stop(rb)) return true;
      }
      return false;
    };
    size_t h = 0;
    if (HashSharedAt<0>(a, ra, shared_, &h)) {
      auto it = keyed_.find(h);
      if (it != keyed_.end() && visit(it->second)) return true;
    } else {
      for (const auto& bucket : keyed_) {
        if (visit(bucket.second)) return true;
      }
    }
    return visit(wildcard_);
  }

  const BindingTable* b_;
  Shared shared_;
  std::unordered_map<size_t, std::vector<size_t>> keyed_;
  std::vector<size_t> wildcard_;
};

/// Ω1 ∪ Ω2 over the merged schema. Duplicate elimination is fused into
/// output construction (RowDedupSink) — the result is a set without a
/// second pass.
BindingTable TableUnion(const BindingTable& a, const BindingTable& b);

/// Ω1 ⋈ Ω2: one output row µ1 ∪ µ2 per compatible pair. Dedup is fused
/// into output construction: each merged row is hashed once, while hot,
/// and appended only if new — duplicates are never materialized and the
/// whole-table rehash of the old trailing Deduplicate() is gone.
BindingTable TableJoin(const BindingTable& a, const BindingTable& b);

/// Streaming probe side of Ω1 ⋈ Ω2: the build table is indexed once up
/// front, then probe chunks are pushed in arrival order — the hash join
/// no longer drains its probe input, so probing overlaps the upstream
/// pipeline that is still producing it. Dedup state spans chunks, so the
/// result is pinned byte-identical (rows *and* order) to draining the
/// probe side and calling TableJoin(probe, build). With `swap_output`,
/// Finish() moves those columns into the canonical build-first schema
/// and provenance of TableJoin(build, probe): the same set, in probe
/// order. The planner requests the swap via PlanNode::swap_build when
/// statistics predict the default build side dwarfs the other.
class StreamingJoinProbe {
 public:
  StreamingJoinProbe(BindingTable build, bool swap_output);
  ~StreamingJoinProbe();
  StreamingJoinProbe(const StreamingJoinProbe&) = delete;
  StreamingJoinProbe& operator=(const StreamingJoinProbe&) = delete;

  /// Joins one probe chunk against the build table. All chunks must share
  /// one schema (they come from one operator); the first chunk fixes the
  /// output schema exactly as draining would.
  void Probe(const BindingTable& chunk);
  /// The joined table. No chunks pushed behaves as an empty probe input.
  BindingTable Finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Ω1 ⋉ Ω2: rows of Ω1 with at least one compatible row in Ω2.
BindingTable TableSemijoin(const BindingTable& a, const BindingTable& b);

/// Ω1 ∖ Ω2: rows of Ω1 with no compatible row in Ω2.
BindingTable TableAntijoin(const BindingTable& a, const BindingTable& b);

/// Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2) in one pass: the join probe also
/// collects the left rows that matched nothing (the ∖ side), so one hash
/// build and one probe loop answer the whole ⟕. Byte-identical (rows and
/// order) to TableUnion(TableJoin(a, b), TableAntijoin(a, b)).
BindingTable TableLeftOuterJoin(const BindingTable& a, const BindingTable& b);

/// ⟦γ⟧G of one correlated subquery — a pattern predicate or an EXISTS
/// body — kept for one execution. ⟦γ⟧G does not depend on the outer row,
/// so ⟦γ⟧Ω,G = ⟦γ⟧G ⋉ Ω is answered row by row with one probe, prepared
/// once per outer schema, instead of one evaluation per row. Not
/// thread-safe: stages that evaluate subqueries run serially.
class CorrelatedBindings {
 public:
  explicit CorrelatedBindings(BindingTable inner) : inner_(std::move(inner)) {}
  CorrelatedBindings(const CorrelatedBindings&) = delete;
  CorrelatedBindings& operator=(const CorrelatedBindings&) = delete;

  /// True when some inner binding is compatible with row `row` of
  /// `outer` (the row survives the semijoin).
  bool AnyCompatible(const BindingTable& outer, size_t row);

 private:
  BindingTable inner_;
  /// Keyed by the outer schema's column list; each probe points into
  /// inner_, which never moves.
  std::map<std::vector<std::string>, ProbeIndex> probes_;
};

}  // namespace gcore

#endif  // GCORE_EVAL_BINDING_OPS_H_
