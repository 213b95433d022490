#include "graph/stats.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "graph/snapshot.h"

namespace gcore {

namespace {

using Buckets = std::map<std::string, std::map<std::string, size_t>>;

/// Buckets of one endpoint-label map an edge contributes to: every label
/// the endpoint carries, plus the "" any-label bucket.
void CountEdgeBuckets(const LabelSet& endpoint_labels,
                      const LabelSet& edge_labels, Buckets* counts) {
  auto count_edge_labels = [&](const std::string& endpoint_label) {
    auto& by_edge_label = (*counts)[endpoint_label];
    ++by_edge_label[""];
    for (const auto& edge_label : edge_labels) ++by_edge_label[edge_label];
  };
  count_edge_labels("");
  for (const auto& label : endpoint_labels) count_edge_labels(label);
}

/// Folds one property value into the numeric range of `stats`.
void FoldRange(PropertyStats* stats, const Value& value) {
  if (!value.is_numeric()) return;
  const double v = value.NumericAsDouble();
  if (!stats->has_range) {
    stats->has_range = true;
    stats->min = v;
    stats->max = v;
    return;
  }
  if (v < stats->min) stats->min = v;
  if (v > stats->max) stats->max = v;
}

/// Distinct-value sets of one object class in the PPG scan: global per
/// key, and per (label, key) for the label-restricted buckets.
struct ValueSets {
  std::map<std::string, std::set<Value>> global;
  std::map<std::string, std::map<std::string, std::set<Value>>> by_label;
};

/// One count per carrying object, distinct/range over its values.
void FoldPropertyMap(const PropertyMap& map,
                     std::map<std::string, PropertyStats>* props,
                     std::map<std::string, std::set<Value>>* values) {
  for (const auto& [key, value_set] : map.entries()) {
    if (value_set.empty()) continue;
    PropertyStats& stats = (*props)[key];
    ++stats.count;
    for (const auto& value : value_set) {
      (*values)[key].insert(value);
      FoldRange(&stats, value);
    }
  }
}

/// Folds one object's labels and properties into its class's label
/// counts and distributions. Per-label buckets exist only for objects
/// holding at least one non-empty value set.
void FoldObject(const LabelSet& labels, const PropertyMap& props,
                std::map<std::string, size_t>* label_counts,
                std::map<std::string, PropertyStats>* global,
                std::map<std::string, std::map<std::string, PropertyStats>>*
                    by_label,
                ValueSets* values) {
  for (const auto& label : labels) ++(*label_counts)[label];
  FoldPropertyMap(props, global, &values->global);
  const bool any = std::any_of(
      props.entries().begin(), props.entries().end(),
      [](const auto& entry) { return !entry.second.empty(); });
  if (!any) return;
  for (const auto& label : labels) {
    FoldPropertyMap(props, &(*by_label)[label], &values->by_label[label]);
  }
}

void ResolveDistinct(
    const ValueSets& values, std::map<std::string, PropertyStats>* global,
    std::map<std::string, std::map<std::string, PropertyStats>>* by_label) {
  for (const auto& [key, set] : values.global) {
    (*global)[key].distinct = set.size();
  }
  for (const auto& [label, sets] : values.by_label) {
    for (const auto& [key, set] : sets) {
      (*by_label)[label][key].distinct = set.size();
    }
  }
}

double AvgDegree(const Buckets& counts, const std::string& endpoint_label,
                 const std::string& edge_label, size_t endpoint_count) {
  if (endpoint_count == 0) return 0.0;
  auto by_endpoint = counts.find(endpoint_label);
  if (by_endpoint == counts.end()) return 0.0;
  auto by_edge = by_endpoint->second.find(edge_label);
  if (by_edge == by_endpoint->second.end()) return 0.0;
  return static_cast<double>(by_edge->second) /
         static_cast<double>(endpoint_count);
}

size_t MaxDegree(const Buckets& maxima, const std::string& endpoint_label,
                 const std::string& edge_label) {
  auto by_endpoint = maxima.find(endpoint_label);
  if (by_endpoint == maxima.end()) return 0;
  auto by_edge = by_endpoint->second.find(edge_label);
  return by_edge == by_endpoint->second.end() ? 0 : by_edge->second;
}

const PropertyStats* PropStatsFor(
    const std::map<std::string, std::map<std::string, PropertyStats>>&
        by_label,
    const std::map<std::string, PropertyStats>& global,
    const std::string& label, const std::string& key) {
  if (label.empty()) {
    auto it = global.find(key);
    return it == global.end() ? nullptr : &it->second;
  }
  auto bucket = by_label.find(label);
  if (bucket == by_label.end()) return nullptr;
  auto it = bucket->second.find(key);
  return it == bucket->second.end() ? nullptr : &it->second;
}

/// Folds one typed column into the global and per-label distributions —
/// the columnar mirror of FoldObject: one count per carrying cell,
/// distinct/range over the cell's values, per-label buckets created
/// exactly for (label of a carrier, key) pairs.
template <typename LabelIdsFn>
void SweepColumn(const GraphSnapshot& snap, const std::string& key,
                 const GraphSnapshot::PropertyColumn& col,
                 LabelIdsFn label_ids_of,
                 std::map<std::string, PropertyStats>* global,
                 std::map<std::string, std::map<std::string, PropertyStats>>*
                     by_label) {
  PropertyStats& g = (*global)[key];
  g.count = col.num_carriers();
  std::set<Value> distinct;
  std::map<uint32_t, std::set<Value>> distinct_by_label;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.AbsentAt(i)) continue;
    const ValueSet values = snap.CellValues(col, i);
    for (const Value& v : values) {
      distinct.insert(v);
      FoldRange(&g, v);
    }
    for (const uint32_t label : label_ids_of(i)) {
      PropertyStats& b = (*by_label)[snap.LabelName(label)][key];
      ++b.count;
      auto& label_distinct = distinct_by_label[label];
      for (const Value& v : values) {
        label_distinct.insert(v);
        FoldRange(&b, v);
      }
    }
  }
  g.distinct = distinct.size();
  for (const auto& [label, set] : distinct_by_label) {
    (*by_label)[snap.LabelName(label)][key].distinct = set.size();
  }
}

/// The [endpoint label][edge label] edge counts and per-node degree
/// maxima of one direction, counted over label ids. Per node, the CSR
/// half-edges of that direction are tallied into `degree`, one slot per
/// edge label (slot 0 is the "" any-label bucket, slot l + 1 label l);
/// the tallies fold into the row of the endpoint label being swept —
/// first the "" row over every node, then one row per label over its
/// index span. A row is written out, ids turned into names, only once
/// it is complete, and only for buckets some edge landed in.
void SweepDegrees(const GraphSnapshot& snap, bool outgoing, Buckets* counts,
                  Buckets* maxima) {
  const AdjacencyIndex& adj = snap.adjacency();
  const size_t slots = snap.num_labels() + 1;
  std::vector<size_t> degree(slots, 0);
  std::vector<size_t> total(slots, 0);
  std::vector<size_t> max(slots, 0);
  std::vector<uint32_t> node_slots;
  std::vector<uint32_t> row_slots;
  auto tally = [&](uint32_t slot) {
    if (degree[slot]++ == 0) node_slots.push_back(slot);
  };
  auto add_node = [&](DenseNodeIndex n) {
    const auto [begin, end] = outgoing ? adj.Out(n) : adj.In(n);
    for (const AdjacencyEntry* it = begin; it != end; ++it) {
      tally(0);
      for (const uint32_t l : snap.EdgeLabelIds(it->edge_dense)) tally(l + 1);
    }
    for (const uint32_t slot : node_slots) {
      if (total[slot] == 0) row_slots.push_back(slot);
      total[slot] += degree[slot];
      max[slot] = std::max(max[slot], degree[slot]);
      degree[slot] = 0;
    }
    node_slots.clear();
  };
  auto slot_name = [&](uint32_t slot) {
    return slot == 0 ? std::string() : snap.LabelName(slot - 1);
  };
  auto write_row = [&](uint32_t endpoint_slot) {
    if (row_slots.empty()) return;
    const std::string endpoint = slot_name(endpoint_slot);
    auto& count_row = (*counts)[endpoint];
    auto& max_row = (*maxima)[endpoint];
    for (const uint32_t slot : row_slots) {
      const std::string edge_label = slot_name(slot);
      count_row[edge_label] = total[slot];
      max_row[edge_label] = max[slot];
      total[slot] = 0;
      max[slot] = 0;
    }
    row_slots.clear();
  };
  for (size_t n = 0; n < snap.num_nodes(); ++n) {
    add_node(static_cast<DenseNodeIndex>(n));
  }
  write_row(0);
  for (uint32_t l = 0; l < snap.num_labels(); ++l) {
    for (const DenseNodeIndex n : snap.NodesWithLabel(l)) add_node(n);
    write_row(l + 1);
  }
}

}  // namespace

size_t GraphStats::NodesWithLabel(const std::string& label) const {
  auto it = node_label_counts.find(label);
  return it == node_label_counts.end() ? 0 : it->second;
}

size_t GraphStats::EdgesWithLabel(const std::string& label) const {
  auto it = edge_label_counts.find(label);
  return it == edge_label_counts.end() ? 0 : it->second;
}

double GraphStats::AvgOutDegree(const std::string& src_label,
                                const std::string& edge_label) const {
  const size_t sources =
      src_label.empty() ? num_nodes : NodesWithLabel(src_label);
  return AvgDegree(out_edge_counts, src_label, edge_label, sources);
}

double GraphStats::AvgInDegree(const std::string& dst_label,
                               const std::string& edge_label) const {
  const size_t targets =
      dst_label.empty() ? num_nodes : NodesWithLabel(dst_label);
  return AvgDegree(in_edge_counts, dst_label, edge_label, targets);
}

size_t GraphStats::MaxOutDegree(const std::string& src_label,
                                const std::string& edge_label) const {
  return MaxDegree(out_degree_max, src_label, edge_label);
}

size_t GraphStats::MaxInDegree(const std::string& dst_label,
                               const std::string& edge_label) const {
  return MaxDegree(in_degree_max, dst_label, edge_label);
}

const PropertyStats* GraphStats::NodePropStatsFor(
    const std::string& label, const std::string& key) const {
  return PropStatsFor(node_props_by_label, node_props, label, key);
}

const PropertyStats* GraphStats::EdgePropStatsFor(
    const std::string& label, const std::string& key) const {
  return PropStatsFor(edge_props_by_label, edge_props, label, key);
}

GraphStats GraphStats::Collect(const PathPropertyGraph& graph) {
  GraphStats stats;
  ValueSets node_values;
  ValueSets edge_values;
  graph.ForEachNode([&](NodeId id) {
    ++stats.num_nodes;
    FoldObject(graph.Labels(id), graph.Properties(id),
               &stats.node_label_counts, &stats.node_props,
               &stats.node_props_by_label, &node_values);
  });
  // Per-node [endpoint label][edge label] counters, folded into the
  // per-bucket maxima below.
  std::unordered_map<uint64_t, Buckets> out_degrees;
  std::unordered_map<uint64_t, Buckets> in_degrees;
  graph.ForEachEdge([&](EdgeId id, NodeId src, NodeId dst) {
    ++stats.num_edges;
    const LabelSet& labels = graph.Labels(id);
    FoldObject(labels, graph.Properties(id), &stats.edge_label_counts,
               &stats.edge_props, &stats.edge_props_by_label, &edge_values);
    CountEdgeBuckets(graph.Labels(src), labels, &stats.out_edge_counts);
    CountEdgeBuckets(graph.Labels(dst), labels, &stats.in_edge_counts);
    CountEdgeBuckets(graph.Labels(src), labels, &out_degrees[src.value()]);
    CountEdgeBuckets(graph.Labels(dst), labels, &in_degrees[dst.value()]);
  });
  graph.ForEachPath([&](PathId, const PathBody&) { ++stats.num_paths; });
  ResolveDistinct(node_values, &stats.node_props, &stats.node_props_by_label);
  ResolveDistinct(edge_values, &stats.edge_props, &stats.edge_props_by_label);
  auto fold_maxima = [](const std::unordered_map<uint64_t, Buckets>& per_node,
                        Buckets* maxima) {
    for (const auto& [node, buckets] : per_node) {
      (void)node;
      for (const auto& [endpoint_label, by_edge] : buckets) {
        auto& row = (*maxima)[endpoint_label];
        for (const auto& [edge_label, count] : by_edge) {
          size_t& slot = row[edge_label];
          if (count > slot) slot = count;
        }
      }
    }
  };
  fold_maxima(out_degrees, &stats.out_degree_max);
  fold_maxima(in_degrees, &stats.in_degree_max);
  return stats;
}

GraphStats GraphStats::CollectFromSnapshot(const GraphSnapshot& snap) {
  GraphStats stats;
  stats.num_nodes = snap.num_nodes();
  stats.num_edges = snap.num_edges();
  stats.num_paths = snap.num_paths();

  // Label counts are the sizes of the per-label index spans; entries only
  // for labels that occur on the object class.
  for (uint32_t l = 0; l < snap.num_labels(); ++l) {
    const auto nodes = snap.NodesWithLabel(l);
    if (!nodes.empty()) {
      stats.node_label_counts[snap.LabelName(l)] = nodes.size();
    }
    const auto edges = snap.EdgesWithLabel(l);
    if (!edges.empty()) {
      stats.edge_label_counts[snap.LabelName(l)] = edges.size();
    }
  }

  for (const auto& [key, col] : snap.node_columns()) {
    SweepColumn(
        snap, key, col, [&](size_t i) {
          return snap.NodeLabelIds(static_cast<DenseNodeIndex>(i));
        },
        &stats.node_props, &stats.node_props_by_label);
  }
  for (const auto& [key, col] : snap.edge_columns()) {
    SweepColumn(
        snap, key, col, [&](size_t i) {
          return snap.EdgeLabelIds(static_cast<DenseEdgeIndex>(i));
        },
        &stats.edge_props, &stats.edge_props_by_label);
  }

  SweepDegrees(snap, /*outgoing=*/true, &stats.out_edge_counts,
               &stats.out_degree_max);
  SweepDegrees(snap, /*outgoing=*/false, &stats.in_edge_counts,
               &stats.in_degree_max);
  return stats;
}

}  // namespace gcore
