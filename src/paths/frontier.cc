#include "paths/frontier.h"

namespace gcore {

CompiledNfa::CompiledNfa(const Nfa& nfa, const GraphSnapshot& snap)
    : snap_(&snap), start_(nfa.start()), accept_(nfa.accept()) {
  states_.resize(nfa.num_states());
  for (NfaStateId s = 0; s < nfa.num_states(); ++s) {
    const auto& transitions = nfa.TransitionsFrom(s);
    states_[s].reserve(transitions.size());
    for (const NfaTransition& t : transitions) {
      CompiledTransition ct;
      ct.type = t.type;
      ct.target = t.target;
      ct.label = &t.label;
      if (t.type == NfaTransition::Type::kEdgeForward ||
          t.type == NfaTransition::Type::kEdgeBackward ||
          t.type == NfaTransition::Type::kNodeTest) {
        ct.label_id = snap_->LabelId(t.label);
      }
      states_[s].push_back(ct);
    }
  }
}

const std::vector<const PathViewSegment*>& ViewBackIndex::SegmentsInto(
    const PathViewRelation& rel, NodeId dst) {
  auto [it, inserted] = by_rel_.try_emplace(&rel);
  if (inserted) {
    for (const PathViewSegment& seg : rel.AllSegments()) {
      it->second[seg.dst].push_back(&seg);
    }
  }
  static const std::vector<const PathViewSegment*> kEmpty;
  auto hit = it->second.find(dst);
  return hit == it->second.end() ? kEmpty : hit->second;
}

}  // namespace gcore
