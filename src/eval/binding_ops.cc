#include "eval/binding_ops.h"

#include <optional>
#include <tuple>
#include <utility>

namespace gcore {

namespace {

/// Output schema of a join: a's columns then b's extra columns, with
/// provenance merged.
BindingTable JoinSchema(const BindingTable& a, const BindingTable& b,
                        std::vector<size_t>* b_extra) {
  std::vector<std::string> columns = a.columns();
  for (size_t j = 0; j < b.columns().size(); ++j) {
    if (a.ColumnIndex(b.columns()[j]) == BindingTable::kNpos) {
      b_extra->push_back(j);
      columns.push_back(b.columns()[j]);
    }
  }
  BindingTable out(std::move(columns));
  for (const auto& [var, graph] : a.column_graphs()) {
    out.SetColumnGraph(var, graph);
  }
  for (const auto& [var, graph] : b.column_graphs()) {
    if (out.ColumnGraph(var).empty()) out.SetColumnGraph(var, graph);
  }
  return out;
}

}  // namespace

ProbeIndex::Shared ProbeIndex::SharedColumns(const BindingTable& a,
                                             const BindingTable& b) {
  Shared shared;
  for (size_t i = 0; i < a.columns().size(); ++i) {
    const size_t j = b.ColumnIndex(a.columns()[i]);
    if (j != BindingTable::kNpos) shared.emplace_back(i, j);
  }
  return shared;
}

bool ProbeIndex::CompatibleAt(const BindingTable& a, size_t ra,
                              const BindingTable& b, size_t rb,
                              const Shared& shared) {
  for (const auto& [ia, ib] : shared) {
    const Column& ca = a.ColumnAt(ia);
    const Column& cb = b.ColumnAt(ib);
    if (ca.BoundAt(ra) && cb.BoundAt(rb) &&
        !Column::CellsEqual(ca, ra, cb, rb)) {
      return false;
    }
  }
  return true;
}

// Buckets are keyed by the *combined hash* of the shared cells rather
// than by owned key vectors: probing and building walk the typed key
// columns directly (ValueSets and path pointers stay untouched on this
// hot path), and hash collisions are harmless because every candidate is
// re-verified with CompatibleAt.
ProbeIndex::ProbeIndex(const BindingTable& a, const BindingTable& b)
    : b_(&b), shared_(SharedColumns(a, b)) {
  keyed_.reserve(b.NumRows());
  for (size_t r = 0; r < b.NumRows(); ++r) {
    size_t h = 0;
    if (HashSharedAt<1>(b, r, shared_, &h)) {
      keyed_[h].push_back(r);
    } else {
      wildcard_.push_back(r);
    }
  }
}

BindingTable TableUnion(const BindingTable& a, const BindingTable& b) {
  std::vector<size_t> b_extra;
  BindingTable out = JoinSchema(a, b, &b_extra);
  RowIndexSet seen;
  seen.Reserve(a.NumRows() + b.NumRows());
  const size_t unbound_hash = Datum().Hash();

  // a-side: out's prefix is exactly a's columns, extras pad with kUnbound.
  for (size_t ra = 0; ra < a.NumRows(); ++ra) {
    size_t h = a.RowHash(ra);
    for (size_t k = 0; k < b_extra.size(); ++k) {
      h = HashCombine(h, unbound_hash);
    }
    const bool fresh = seen.InsertIfNew(h, out.NumRows(), [&](size_t i) {
      for (size_t c = 0; c < a.NumColumns(); ++c) {
        if (!Column::CellsEqual(out.ColumnAt(c), i, a.ColumnAt(c), ra)) {
          return false;
        }
      }
      for (size_t c = a.NumColumns(); c < out.NumColumns(); ++c) {
        if (out.ColumnAt(c).BoundAt(i)) return false;
      }
      return true;
    });
    if (fresh) out.AppendRowFrom(a, ra);
  }

  // b-side: scatter b's columns into out positions; the rest stay unbound.
  std::vector<size_t> src_of_out(out.NumColumns(), BindingTable::kNpos);
  for (size_t j = 0; j < b.columns().size(); ++j) {
    src_of_out[out.ColumnIndex(b.columns()[j])] = j;
  }
  for (size_t rb = 0; rb < b.NumRows(); ++rb) {
    size_t h = 0;
    for (size_t c = 0; c < out.NumColumns(); ++c) {
      h = HashCombine(h, src_of_out[c] == BindingTable::kNpos
                             ? unbound_hash
                             : b.ColumnAt(src_of_out[c]).HashAt(rb));
    }
    const bool fresh = seen.InsertIfNew(h, out.NumRows(), [&](size_t i) {
      for (size_t c = 0; c < out.NumColumns(); ++c) {
        if (src_of_out[c] == BindingTable::kNpos) {
          if (out.ColumnAt(c).BoundAt(i)) return false;
        } else if (!Column::CellsEqual(out.ColumnAt(c), i,
                                       b.ColumnAt(src_of_out[c]), rb)) {
          return false;
        }
      }
      return true;
    });
    if (!fresh) continue;
    for (size_t c = 0; c < out.NumColumns(); ++c) {
      if (src_of_out[c] == BindingTable::kNpos) {
        out.MutableColumn(c).AppendUnbound();
      } else {
        out.MutableColumn(c).AppendFrom(b.ColumnAt(src_of_out[c]), rb);
      }
    }
    out.CommitRow();
  }
  return out;
}

namespace {

/// Duplicate elimination fused into join-output construction, one level
/// deeper than RowDedupSink: the merged row's hash and equality are
/// computed straight from the (probe row, build row) index pair over the
/// typed key columns, so duplicate pairs are rejected *before* a merged
/// row is ever materialized — and accepted pairs append column-wise
/// (dense cells are two array pushes; nothing row-shaped exists at all).
class JoinDedupSink {
 public:
  JoinDedupSink(BindingTable* out, const BindingTable& a,
                const BindingTable& b,
                const std::vector<std::pair<size_t, size_t>>& shared,
                const std::vector<size_t>& b_extra)
      : out_(out), a_(&a), b_(b), b_extra_(b_extra) {
    shared_of_a_.assign(a.NumColumns(), BindingTable::kNpos);
    for (const auto& [ia, ib] : shared) shared_of_a_[ia] = ib;
  }

  /// Re-points the probe side at another table with the same schema; the
  /// dedup state carries over (the streaming probe joins one chunk at a
  /// time against a common build table).
  void SetProbe(const BindingTable& a) { a_ = &a; }

  /// The column/row the merged row reads at position `i` of the a-prefix
  /// (bound a-value wins; unbound shared positions fill from b).
  std::pair<const Column*, size_t> MergedSrc(size_t ra, size_t rb,
                                             size_t i) const {
    const Column& ca = a_->ColumnAt(i);
    if (ca.BoundAt(ra) || shared_of_a_[i] == BindingTable::kNpos) {
      return {&ca, ra};
    }
    return {&b_.ColumnAt(shared_of_a_[i]), rb};
  }

  /// Appends µ1 ∪ µ2 unless an equal row is already present; the merged
  /// row is only constructed on first occurrence.
  void InsertPair(size_t ra, size_t rb) {
    // Reproduces HashRow over the would-be merged row (a-prefix, then
    // b-extras) without building it.
    size_t h = 0;
    for (size_t i = 0; i < a_->NumColumns(); ++i) {
      const auto [col, row] = MergedSrc(ra, rb, i);
      h = HashCombine(h, col->HashAt(row));
    }
    for (size_t j : b_extra_) h = HashCombine(h, b_.ColumnAt(j).HashAt(rb));
    const bool fresh = seen_.InsertIfNew(h, out_->NumRows(), [&](size_t i) {
      return MergedEquals(i, ra, rb);
    });
    if (!fresh) return;
    for (size_t i = 0; i < a_->NumColumns(); ++i) {
      const auto [col, row] = MergedSrc(ra, rb, i);
      out_->MutableColumn(i).AppendFrom(*col, row);
    }
    for (size_t k = 0; k < b_extra_.size(); ++k) {
      out_->MutableColumn(a_->NumColumns() + k)
          .AppendFrom(b_.ColumnAt(b_extra_[k]), rb);
    }
    out_->CommitRow();
  }

 private:
  bool MergedEquals(size_t stored, size_t ra, size_t rb) const {
    for (size_t i = 0; i < a_->NumColumns(); ++i) {
      const auto [col, row] = MergedSrc(ra, rb, i);
      if (!Column::CellsEqual(out_->ColumnAt(i), stored, *col, row)) {
        return false;
      }
    }
    for (size_t k = 0; k < b_extra_.size(); ++k) {
      if (!Column::CellsEqual(out_->ColumnAt(a_->NumColumns() + k), stored,
                              b_.ColumnAt(b_extra_[k]), rb)) {
        return false;
      }
    }
    return true;
  }

  BindingTable* out_;
  /// The current probe table (re-pointable, see SetProbe).
  const BindingTable* a_;
  const BindingTable& b_;
  const std::vector<size_t>& b_extra_;
  /// ia → ib for shared columns, kNpos elsewhere.
  std::vector<size_t> shared_of_a_;
  RowIndexSet seen_;
};

/// TableJoin with optional per-probe-row match tracking: `matched[ra]`
/// is set whenever row ra of a has at least one compatible b row — the
/// signal the left outer join's antijoin needs, harvested during the
/// probe instead of by a second full pass.
BindingTable JoinTracked(const BindingTable& a, const BindingTable& b,
                         std::vector<char>* matched) {
  std::vector<size_t> b_extra;
  BindingTable out = JoinSchema(a, b, &b_extra);
  const ProbeIndex index(a, b);
  JoinDedupSink sink(&out, a, b, index.shared(), b_extra);
  for (size_t ra = 0; ra < a.NumRows(); ++ra) {
    index.ForEachCompatible(a, ra, [&](size_t rb) {
      if (matched != nullptr) (*matched)[ra] = 1;
      sink.InsertPair(ra, rb);
    });
  }
  return out;
}

}  // namespace

BindingTable TableJoin(const BindingTable& a, const BindingTable& b) {
  return JoinTracked(a, b, nullptr);
}

/// Owns the build index and the chunk-spanning dedup state; lazily
/// initialized from the first probe chunk (which fixes the schema the
/// same way draining the probe side would).
struct StreamingJoinProbe::Impl {
  BindingTable build;
  bool swap_output;
  bool started = false;
  std::vector<size_t> b_extra;
  /// Accumulated join output in probe-first column order.
  BindingTable out;
  /// Empty table carrying the probe side's columns and provenance (the
  /// swap-output re-merge rebuilds the canonical schema from it).
  BindingTable probe_schema;
  std::optional<ProbeIndex> index;
  std::optional<JoinDedupSink> sink;

  Impl(BindingTable b, bool swap)
      : build(std::move(b)), swap_output(swap) {}

  void Start(const BindingTable& chunk) {
    started = true;
    index.emplace(chunk, build);
    out = JoinSchema(chunk, build, &b_extra);
    probe_schema = BindingTable(chunk.columns());
    for (const auto& [var, graph] : chunk.column_graphs()) {
      probe_schema.SetColumnGraph(var, graph);
    }
    sink.emplace(&out, chunk, build, index->shared(), b_extra);
  }
};

StreamingJoinProbe::StreamingJoinProbe(BindingTable build, bool swap_output)
    : impl_(new Impl(std::move(build), swap_output)) {}

StreamingJoinProbe::~StreamingJoinProbe() = default;

void StreamingJoinProbe::Probe(const BindingTable& chunk) {
  Impl& s = *impl_;
  if (!s.started) s.Start(chunk);
  s.sink->SetProbe(chunk);
  for (size_t ra = 0; ra < chunk.NumRows(); ++ra) {
    s.index->ForEachCompatible(chunk, ra, [&](size_t rb) {
      s.sink->InsertPair(ra, rb);
    });
  }
}

BindingTable StreamingJoinProbe::Finish() {
  Impl& s = *impl_;
  // No chunks at all: behave exactly like joining the empty table a
  // drained probe side would have produced.
  if (!s.started) s.Start(BindingTable());
  if (!s.swap_output) return std::move(s.out);
  // Canonical build-first schema, every column moved wholesale from the
  // equally-named probe-first column. Cell values agree pair-by-pair with
  // the unswapped join (a bound shared cell equals the cell it matched;
  // an unbound one was filled from the other side either way), so only
  // row order differs from joining build ⋈ probe.
  std::vector<size_t> extra;
  BindingTable canonical = JoinSchema(s.build, s.probe_schema, &extra);
  std::vector<size_t> kept(canonical.NumColumns());
  for (size_t c = 0; c < canonical.NumColumns(); ++c) {
    kept[c] = s.out.ColumnIndex(canonical.columns()[c]);
  }
  canonical.AdoptProjectedColumnsMove(std::move(s.out), kept);
  return canonical;
}

BindingTable TableSemijoin(const BindingTable& a, const BindingTable& b) {
  BindingTable out(a.columns());
  for (const auto& [var, graph] : a.column_graphs()) {
    out.SetColumnGraph(var, graph);
  }
  const ProbeIndex index(a, b);
  for (size_t ra = 0; ra < a.NumRows(); ++ra) {
    if (index.AnyCompatible(a, ra)) {
      out.AppendRowFrom(a, ra);
    }
  }
  return out;
}

BindingTable TableAntijoin(const BindingTable& a, const BindingTable& b) {
  BindingTable out(a.columns());
  for (const auto& [var, graph] : a.column_graphs()) {
    out.SetColumnGraph(var, graph);
  }
  const ProbeIndex index(a, b);
  for (size_t ra = 0; ra < a.NumRows(); ++ra) {
    if (!index.AnyCompatible(a, ra)) {
      out.AppendRowFrom(a, ra);
    }
  }
  return out;
}

BindingTable TableLeftOuterJoin(const BindingTable& a,
                                const BindingTable& b) {
  // The join probe already visits every candidate of every a-row, so it
  // harvests the antijoin for free: rows that matched nothing are the
  // ∖-side, gathered in a-order exactly as TableAntijoin would emit them
  // — one hash build and one probe pass for the whole ⟕.
  std::vector<char> matched(a.NumRows(), 0);
  BindingTable joined = JoinTracked(a, b, &matched);
  BindingTable missing(a.columns());
  for (const auto& [var, graph] : a.column_graphs()) {
    missing.SetColumnGraph(var, graph);
  }
  std::vector<size_t> kept;
  kept.reserve(a.NumRows());
  for (size_t r = 0; r < a.NumRows(); ++r) {
    if (matched[r] == 0) kept.push_back(r);
  }
  missing.AppendRowsFrom(a, kept);
  return TableUnion(joined, missing);
}

bool CorrelatedBindings::AnyCompatible(const BindingTable& outer,
                                       size_t row) {
  auto it = probes_.find(outer.columns());
  if (it == probes_.end()) {
    it = probes_
             .emplace(std::piecewise_construct,
                      std::forward_as_tuple(outer.columns()),
                      std::forward_as_tuple(outer, inner_))
             .first;
  }
  return it->second.AnyCompatible(outer, row);
}

}  // namespace gcore
