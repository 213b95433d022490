// Plain unit-weight BFS over the CSR adjacency (no regex): the hop-count
// oracle the product search is checked against (tests/paths), and the
// SsspResult shape the PATH-view SSSP (delta_stepping.h) reports
// distances in.
#ifndef GCORE_PATHS_DIJKSTRA_H_
#define GCORE_PATHS_DIJKSTRA_H_

#include <limits>
#include <vector>

#include "graph/adjacency.h"

namespace gcore {

/// Result of a single-source run; indexed by dense node index.
struct SsspResult {
  static constexpr double kUnreachable =
      std::numeric_limits<double>::infinity();
  std::vector<double> distance;   // kUnreachable when not reached
  std::vector<int64_t> parent;    // dense parent node, -1 for source/unreached
  std::vector<EdgeId> parent_edge;

  bool Reached(DenseNodeIndex n) const {
    return distance[n] != kUnreachable;
  }
};

/// Unit-weight BFS over all edges (both directions optional).
SsspResult BfsFrom(const AdjacencyIndex& adj, NodeId src,
                   bool follow_forward = true, bool follow_backward = false);

}  // namespace gcore

#endif  // GCORE_PATHS_DIJKSTRA_H_
