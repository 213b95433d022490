#include "paths/dijkstra.h"

#include <deque>

namespace gcore {

namespace {

SsspResult MakeResult(size_t n) {
  SsspResult r;
  r.distance.assign(n, SsspResult::kUnreachable);
  r.parent.assign(n, -1);
  r.parent_edge.assign(n, EdgeId());
  return r;
}

}  // namespace

SsspResult BfsFrom(const AdjacencyIndex& adj, NodeId src, bool follow_forward,
                   bool follow_backward) {
  SsspResult r = MakeResult(adj.num_nodes());
  const DenseNodeIndex s = adj.IndexOf(src);
  r.distance[s] = 0.0;
  std::deque<DenseNodeIndex> queue{s};
  while (!queue.empty()) {
    const DenseNodeIndex n = queue.front();
    queue.pop_front();
    auto visit = [&](const AdjacencyEntry* begin, const AdjacencyEntry* end) {
      for (const AdjacencyEntry* e = begin; e != end; ++e) {
        if (r.distance[e->neighbor] != SsspResult::kUnreachable) continue;
        r.distance[e->neighbor] = r.distance[n] + 1.0;
        r.parent[e->neighbor] = n;
        r.parent_edge[e->neighbor] = e->edge;
        queue.push_back(e->neighbor);
      }
    };
    if (follow_forward) {
      auto [b, e] = adj.Out(n);
      visit(b, e);
    }
    if (follow_backward) {
      auto [b, e] = adj.In(n);
      visit(b, e);
    }
  }
  return r;
}

}  // namespace gcore
