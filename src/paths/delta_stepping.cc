#include "paths/delta_stepping.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <queue>

#include "common/parallel.h"

namespace gcore {

DenseEdgeWeightFn WrapWeightFn(EdgeWeightFn fn) {
  return [fn = std::move(fn)](const AdjacencyEntry& e) {
    return fn(e.edge, e.forward);
  };
}

DenseEdgeWeightFn SnapshotWeightFn(GraphSnapshot::EdgeWeightView weights) {
  return [weights](const AdjacencyEntry& e) { return weights.At(e.edge_dense); };
}

namespace {

constexpr char kNegativeWeightError[] =
    "Dijkstra requires non-negative edge weights";

/// One proposed relaxation, produced by a worker, applied by the
/// coordinator.
struct Candidate {
  DenseNodeIndex node;
  double dist;
  int64_t parent;
  /// Tiebreak key at equal distance: edge-id value for graph kernels,
  /// segment ordinal within SegmentsFrom(parent) for view kernels.
  uint64_t tie;
  EdgeId edge;
  const PathViewSegment* seg = nullptr;
  /// Weight was > 0: eligible for the canonical parent tiebreak (a
  /// positive-weight tie parent has strictly smaller distance, so the
  /// parent forest stays acyclic).
  bool tie_ok = false;
};

/// Distance/parent arrays plus the canonical acceptance rule shared by
/// the graph and view SSSP kernels.
struct DeltaState {
  std::vector<double> dist;
  std::vector<int64_t> parent;
  std::vector<uint64_t> tie;
  std::vector<EdgeId> edge;
  std::vector<const PathViewSegment*> seg;

  DeltaState(size_t n, bool track_seg) {
    dist.assign(n, SsspResult::kUnreachable);
    parent.assign(n, -1);
    tie.assign(n, 0);
    edge.assign(n, EdgeId());
    if (track_seg) seg.assign(n, nullptr);
  }

  void Store(const Candidate& c) {
    parent[c.node] = c.parent;
    tie[c.node] = c.tie;
    edge[c.node] = c.edge;
    if (!seg.empty()) seg[c.node] = c.seg;
  }

  /// Canonical acceptance: strictly smaller distance always wins; at
  /// equal distance a positive-weight candidate with a smaller
  /// (parent, tie) pair replaces the incumbent parent without requeueing.
  /// Returns true when the distance improved (the node must requeue).
  bool Apply(const Candidate& c) {
    double& d = dist[c.node];
    if (c.dist < d) {
      d = c.dist;
      Store(c);
      return true;
    }
    if (c.dist == d && c.tie_ok && parent[c.node] >= 0 &&
        (c.parent < parent[c.node] ||
         (c.parent == parent[c.node] && c.tie < tie[c.node]))) {
      Store(c);
    }
    return false;
  }
};

/// Mean of up to `cap` sampled weights; the classic Δ ≈ average-weight
/// heuristic. Falls back to 1.0 (unit weights / empty sample).
template <typename Sampler>
double AutoDelta(double requested, Sampler&& sample) {
  if (requested > 0.0) return requested;
  double sum = 0.0;
  size_t count = 0;
  sample(/*cap=*/size_t{1024}, [&](double w) {
    sum += w;
    ++count;
  });
  const double mean = count == 0 ? 1.0 : sum / static_cast<double>(count);
  return mean > 0.0 ? mean : 1.0;
}

/// The bucketed coordinator loop. `expand(u, du, out)` appends the
/// relaxation candidates of node `u` at distance `du`; it returns false
/// on a negative weight. Workers expand disjoint contiguous frontier
/// slices against the frozen distance array; the coordinator merges the
/// slice buffers in order, so the candidate sequence — and with the
/// canonical Apply rule the whole result — is identical at every
/// parallelism degree.
template <typename Expander>
Status RunDelta(DeltaState& state, DenseNodeIndex src_idx, double delta,
                size_t parallelism, Expander&& expand) {
  state.dist[src_idx] = 0.0;
  auto bucket_of = [delta](double d) {
    return static_cast<uint64_t>(d / delta);
  };
  std::map<uint64_t, std::vector<DenseNodeIndex>> buckets;
  buckets[0].push_back(src_idx);

  const size_t degree = ResolveParallelism(parallelism);
  std::vector<uint32_t> stamp(state.dist.size(), 0);
  uint32_t round = 0;

  while (!buckets.empty()) {
    auto it = buckets.begin();
    const uint64_t idx = it->first;
    std::vector<DenseNodeIndex> pending = std::move(it->second);
    buckets.erase(it);

    // Inner fixpoint: relax the bucket until no node of it changes.
    while (!pending.empty()) {
      ++round;
      std::vector<DenseNodeIndex> frontier;
      frontier.reserve(pending.size());
      for (DenseNodeIndex u : pending) {
        if (stamp[u] == round) continue;              // duplicate this wave
        if (bucket_of(state.dist[u]) != idx) continue;  // migrated buckets
        stamp[u] = round;
        frontier.push_back(u);
      }
      pending.clear();
      if (frontier.empty()) break;

      const size_t grain =
          std::max<size_t>(16, (frontier.size() + degree * 4 - 1) /
                                   (degree * 4));
      const size_t slices = (frontier.size() + grain - 1) / grain;
      std::vector<std::vector<Candidate>> buffers(slices);
      std::atomic<bool> negative{false};
      ParallelFor(degree, slices, [&](size_t sl) {
        const size_t lo = sl * grain;
        const size_t hi = std::min(frontier.size(), lo + grain);
        for (size_t i = lo; i < hi; ++i) {
          const DenseNodeIndex u = frontier[i];
          if (!expand(u, state.dist[u], &buffers[sl])) {
            negative.store(true, std::memory_order_relaxed);
            return;
          }
        }
      });
      if (negative.load()) return Status::EvaluationError(kNegativeWeightError);

      for (const auto& buf : buffers) {
        for (const Candidate& c : buf) {
          if (!state.Apply(c)) continue;
          const uint64_t b = bucket_of(c.dist);
          if (b == idx) {
            pending.push_back(c.node);
          } else {
            buckets[b].push_back(c.node);
          }
        }
      }
    }
  }
  return Status::OK();
}

/// Appends the graph relaxation candidates of `u`; shared by the delta
/// kernel's workers and the serial heap spec below.
bool ExpandGraphNode(const AdjacencyIndex& adj, const DenseEdgeWeightFn& weight,
                     bool follow_forward, bool follow_backward,
                     DenseNodeIndex u, double du,
                     std::vector<Candidate>* out) {
  auto visit = [&](const AdjacencyEntry* begin, const AdjacencyEntry* end) {
    for (const AdjacencyEntry* e = begin; e != end; ++e) {
      std::optional<double> w = weight(*e);
      if (!w.has_value()) continue;
      if (*w < 0.0) return false;
      out->push_back(Candidate{e->neighbor, du + *w, static_cast<int64_t>(u),
                               e->edge.value(), e->edge, nullptr, *w > 0.0});
    }
    return true;
  };
  if (follow_forward) {
    auto [b, e] = adj.Out(u);
    if (!visit(b, e)) return false;
  }
  if (follow_backward) {
    auto [b, e] = adj.In(u);
    if (!visit(b, e)) return false;
  }
  return true;
}

SsspResult ExtractSssp(const DeltaState& state) {
  SsspResult r;
  r.distance = state.dist;
  r.parent = state.parent;
  r.parent_edge = state.edge;
  return r;
}

/// Serial binary-heap spec with the same canonical tiebreak — the
/// small-graph fallback. Pop order (distance, node index) matches
/// DijkstraFrom, so the two agree even on zero-weight discovery-order
/// parents.
Result<SsspResult> HeapSsspFrom(const AdjacencyIndex& adj, DenseNodeIndex s,
                                const DenseEdgeWeightFn& weight,
                                bool follow_forward, bool follow_backward) {
  DeltaState state(adj.num_nodes(), /*track_seg=*/false);
  state.dist[s] = 0.0;

  using Entry = std::pair<double, DenseNodeIndex>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  heap.emplace(0.0, s);
  std::vector<bool> settled(adj.num_nodes(), false);
  std::vector<Candidate> buf;
  while (!heap.empty()) {
    auto [dist, n] = heap.top();
    heap.pop();
    if (settled[n]) continue;
    settled[n] = true;
    buf.clear();
    if (!ExpandGraphNode(adj, weight, follow_forward, follow_backward, n, dist,
                         &buf)) {
      return Status::EvaluationError(kNegativeWeightError);
    }
    for (const Candidate& c : buf) {
      if (state.Apply(c)) heap.emplace(c.dist, c.node);
    }
  }
  return ExtractSssp(state);
}

}  // namespace

Result<SsspResult> DeltaSsspFrom(const AdjacencyIndex& adj, NodeId src,
                                 const DenseEdgeWeightFn& weight,
                                 const ParallelSsspOptions& opts,
                                 bool follow_forward, bool follow_backward) {
  const DenseNodeIndex s = adj.IndexOf(src);
  if (opts.serial_cutoff != 0 && adj.num_nodes() < opts.serial_cutoff) {
    return HeapSsspFrom(adj, s, weight, follow_forward, follow_backward);
  }
  const double delta = AutoDelta(opts.delta, [&](size_t cap, auto&& take) {
    size_t seen = 0;
    for (DenseNodeIndex n = 0; n < adj.num_nodes() && seen < cap; ++n) {
      auto [b, e] = adj.Out(n);
      for (const AdjacencyEntry* it = b; it != e && seen < cap; ++it) {
        std::optional<double> w = weight(*it);
        if (w.has_value() && *w >= 0.0) {
          take(*w);
          ++seen;
        }
      }
    }
  });
  DeltaState state(adj.num_nodes(), /*track_seg=*/false);
  Status st = RunDelta(state, s, delta, opts.parallelism,
                       [&](DenseNodeIndex u, double du,
                           std::vector<Candidate>* out) {
                         return ExpandGraphNode(adj, weight, follow_forward,
                                                follow_backward, u, du, out);
                       });
  if (!st.ok()) return st;
  return ExtractSssp(state);
}

namespace {

/// One queued K-SSSP label: a walk-cost class representative. Unlike the
/// SSSP frontier, labels carry their own value and each accepted label
/// expands exactly once (two equal-cost labels at one node are two
/// distinct walks — both expand, preserving multiplicity downstream).
struct KLabel {
  DenseNodeIndex node;
  double dist;
};

/// The per-node accepted list: the up-to-k cheapest walk costs seen so
/// far, ascending. Returns true when `d` entered the list (queue the
/// label). The j-th cheapest walk to any node extends a walk that is
/// among the j cheapest at its predecessor, so rejecting d > back on a
/// full list is exact, not heuristic.
bool KAccept(std::vector<double>& list, size_t k, double d) {
  if (list.size() < k) {
    list.insert(std::upper_bound(list.begin(), list.end(), d), d);
    return true;
  }
  if (d < list.back()) {
    list.pop_back();
    list.insert(std::upper_bound(list.begin(), list.end(), d), d);
    return true;
  }
  return false;
}

/// A label is stale when later accepts displaced its value off the list.
bool KStale(const std::vector<double>& list, size_t k, double d) {
  return list.size() == k && d > list.back();
}

bool ExpandKLabel(const AdjacencyIndex& adj, const DenseEdgeWeightFn& weight,
                  bool follow_forward, bool follow_backward, KLabel label,
                  std::vector<KLabel>* out) {
  auto visit = [&](const AdjacencyEntry* begin, const AdjacencyEntry* end) {
    for (const AdjacencyEntry* e = begin; e != end; ++e) {
      std::optional<double> w = weight(*e);
      if (!w.has_value()) continue;
      if (*w < 0.0) return false;
      out->push_back(KLabel{e->neighbor, label.dist + *w});
    }
    return true;
  };
  if (follow_forward) {
    auto [b, e] = adj.Out(label.node);
    if (!visit(b, e)) return false;
  }
  if (follow_backward) {
    auto [b, e] = adj.In(label.node);
    if (!visit(b, e)) return false;
  }
  return true;
}

}  // namespace

Result<KSsspDistances> KSsspHeapFrom(const AdjacencyIndex& adj, NodeId src,
                                     const DenseEdgeWeightFn& weight, size_t k,
                                     bool follow_forward,
                                     bool follow_backward) {
  KSsspDistances accepted(adj.num_nodes());
  if (k == 0) return accepted;
  using Entry = std::pair<double, DenseNodeIndex>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  std::vector<size_t> pops(adj.num_nodes(), 0);
  heap.emplace(0.0, adj.IndexOf(src));
  std::vector<KLabel> buf;
  while (!heap.empty()) {
    auto [dist, n] = heap.top();
    heap.pop();
    if (pops[n] >= k) continue;
    ++pops[n];
    accepted[n].push_back(dist);
    buf.clear();
    if (!ExpandKLabel(adj, weight, follow_forward, follow_backward,
                      KLabel{n, dist}, &buf)) {
      return Status::EvaluationError(kNegativeWeightError);
    }
    for (const KLabel& l : buf) {
      // Exact prune (see KAccept): an l.dist beyond the node's current
      // k-th best can never extend into any node's k best.
      if (pops[l.node] >= k) continue;
      heap.emplace(l.dist, l.node);
    }
  }
  return accepted;
}

Result<KSsspDistances> DeltaKSsspFrom(const AdjacencyIndex& adj, NodeId src,
                                      const DenseEdgeWeightFn& weight, size_t k,
                                      const ParallelSsspOptions& opts,
                                      bool follow_forward,
                                      bool follow_backward) {
  KSsspDistances accepted(adj.num_nodes());
  if (k == 0) return accepted;
  if (opts.serial_cutoff != 0 && adj.num_nodes() < opts.serial_cutoff) {
    return KSsspHeapFrom(adj, src, weight, k, follow_forward, follow_backward);
  }
  const double delta = AutoDelta(opts.delta, [&](size_t cap, auto&& take) {
    size_t seen = 0;
    for (DenseNodeIndex n = 0; n < adj.num_nodes() && seen < cap; ++n) {
      auto [b, e] = adj.Out(n);
      for (const AdjacencyEntry* it = b; it != e && seen < cap; ++it) {
        std::optional<double> w = weight(*it);
        if (w.has_value() && *w >= 0.0) {
          take(*w);
          ++seen;
        }
      }
    }
  });
  auto bucket_of = [delta](double d) {
    return static_cast<uint64_t>(d / delta);
  };

  const size_t degree = ResolveParallelism(opts.parallelism);
  std::map<uint64_t, std::vector<KLabel>> buckets;
  const DenseNodeIndex s = adj.IndexOf(src);
  KAccept(accepted[s], k, 0.0);
  buckets[0].push_back(KLabel{s, 0.0});

  while (!buckets.empty()) {
    auto it = buckets.begin();
    const uint64_t idx = it->first;
    std::vector<KLabel> pending = std::move(it->second);
    buckets.erase(it);
    while (!pending.empty()) {
      std::vector<KLabel> frontier;
      frontier.reserve(pending.size());
      for (const KLabel& l : pending) {
        if (!KStale(accepted[l.node], k, l.dist)) frontier.push_back(l);
      }
      pending.clear();
      if (frontier.empty()) break;

      const size_t grain =
          std::max<size_t>(16, (frontier.size() + degree * 4 - 1) /
                                   (degree * 4));
      const size_t slices = (frontier.size() + grain - 1) / grain;
      std::vector<std::vector<KLabel>> buffers(slices);
      std::atomic<bool> negative{false};
      ParallelFor(degree, slices, [&](size_t sl) {
        const size_t lo = sl * grain;
        const size_t hi = std::min(frontier.size(), lo + grain);
        for (size_t i = lo; i < hi; ++i) {
          if (!ExpandKLabel(adj, weight, follow_forward, follow_backward,
                            frontier[i], &buffers[sl])) {
            negative.store(true, std::memory_order_relaxed);
            return;
          }
        }
      });
      if (negative.load()) return Status::EvaluationError(kNegativeWeightError);

      for (const auto& buf : buffers) {
        for (const KLabel& l : buf) {
          if (!KAccept(accepted[l.node], k, l.dist)) continue;
          const uint64_t b = bucket_of(l.dist);
          if (b == idx) {
            pending.push_back(l);
          } else {
            buckets[b].push_back(l);
          }
        }
      }
    }
  }
  return accepted;
}

Result<ViewSsspResult> ViewStarSssp(const AdjacencyIndex& adj,
                                    const PathViewRelation& view, NodeId src,
                                    const ParallelSsspOptions& opts) {
  if (!adj.Contains(src)) {
    return Status::EvaluationError("path search source is not in the graph");
  }
  const double delta = AutoDelta(opts.delta, [&](size_t cap, auto&& take) {
    const auto& segs = view.AllSegments();
    for (size_t i = 0; i < segs.size() && i < cap; ++i) take(segs[i].cost);
  });
  DeltaState state(adj.num_nodes(), /*track_seg=*/true);
  Status st = RunDelta(
      state, adj.IndexOf(src), delta, opts.parallelism,
      [&](DenseNodeIndex u, double du, std::vector<Candidate>* out) {
        const auto& segs = view.SegmentsFrom(adj.IdOf(u));
        for (size_t i = 0; i < segs.size(); ++i) {
          const PathViewSegment& seg = segs[i];
          if (!adj.Contains(seg.dst)) continue;
          // View costs are > 0 by construction (path_view.h), so every
          // candidate is tiebreak-eligible: parents are fully canonical.
          out->push_back(Candidate{adj.IndexOf(seg.dst), du + seg.cost,
                                   static_cast<int64_t>(u),
                                   static_cast<uint64_t>(i), EdgeId(), &seg,
                                   /*tie_ok=*/true});
        }
        return true;
      });
  if (!st.ok()) return st;
  ViewSsspResult r;
  r.distance = std::move(state.dist);
  r.parent = std::move(state.parent);
  r.parent_seg = std::move(state.seg);
  return r;
}

std::optional<PathBody> ReconstructViewWalk(const AdjacencyIndex& adj,
                                            const ViewSsspResult& sssp,
                                            NodeId src, NodeId dst) {
  const DenseNodeIndex s = adj.IndexOf(src);
  const DenseNodeIndex d = adj.IndexOf(dst);
  if (!sssp.Reached(d)) return std::nullopt;
  std::vector<const PathViewSegment*> chain;
  for (DenseNodeIndex cur = d; cur != s;
       cur = static_cast<DenseNodeIndex>(sssp.parent[cur])) {
    chain.push_back(sssp.parent_seg[cur]);
  }
  std::reverse(chain.begin(), chain.end());
  PathBody body;
  body.nodes.push_back(src);
  for (const PathViewSegment* seg : chain) {
    body.nodes.insert(body.nodes.end(), seg->body.nodes.begin() + 1,
                      seg->body.nodes.end());
    body.edges.insert(body.edges.end(), seg->body.edges.begin(),
                      seg->body.edges.end());
  }
  return body;
}

}  // namespace gcore
