// Delta-stepping SSSP (Meyer & Sanders) over the segment graph of one
// PATH view: the engine's `<~w*>` weighted-shortest fast path.
//
// Shape: distances are kept in buckets of width Δ (the mean sampled
// segment cost); one bucket at a time is relaxed to a fixpoint, with the
// frontier's segment scans fanned onto worker threads that emit
// relaxation candidates into per-slice buffers. A coordinator merges the
// buffers serially under the canonical acceptance rule, so the result is
// a pure function of the input at every parallelism degree:
//
//   * a candidate with a strictly smaller distance always wins;
//   * at equal distance, the parent with the lexicographically smallest
//     (parent node, segment ordinal) pair wins — the paper's "fixed
//     lexicographical order" tiebreak (Appendix A.1, footnote 4). View
//     costs are > 0 by construction, so such a parent is strictly closer
//     and the parent forest stays acyclic.
//
// The product Dijkstra (KShortestPathsFrom over `~w*`, k_shortest.h) is
// the executable spec: tests/paths/parallel_paths_test.cc pins distances
// against it at parallelism 1/2/8, and bodies where walks are unique.
#ifndef GCORE_PATHS_DELTA_STEPPING_H_
#define GCORE_PATHS_DELTA_STEPPING_H_

#include <optional>
#include <vector>

#include "common/result.h"
#include "graph/adjacency.h"
#include "paths/dijkstra.h"
#include "paths/path_view.h"

namespace gcore {

/// SSSP over the segment graph of one PATH view — the `<~w*>` regex
/// shape, where the graph × NFA product degenerates to a plain weighted
/// graph whose edges are view segments.
struct ViewSsspResult {
  std::vector<double> distance;  // SsspResult::kUnreachable when not reached
  std::vector<int64_t> parent;   // dense parent node, -1 for source/unreached
  std::vector<const PathViewSegment*> parent_seg;  // borrowed from the view
  bool Reached(DenseNodeIndex n) const {
    return distance[n] != SsspResult::kUnreachable;
  }
};

/// `parallelism` worker threads scan each bucket's frontier (0 = one per
/// hardware thread); the result is identical at every degree.
Result<ViewSsspResult> ViewStarSssp(const AdjacencyIndex& adj,
                                    const PathViewRelation& view, NodeId src,
                                    size_t parallelism);

/// Concatenates the parent segment chain into the walk from `src` to
/// `dst`; nullopt when unreached. dst == src yields the empty walk.
std::optional<PathBody> ReconstructViewWalk(const AdjacencyIndex& adj,
                                            const ViewSsspResult& sssp,
                                            NodeId src, NodeId dst);

}  // namespace gcore

#endif  // GCORE_PATHS_DELTA_STEPPING_H_
