// Event detection over a tracking result.
//
// The paper (Sec 5) calls feature tracking "the process of capturing all
// the events for one or more features" and its Fig 9 vortex "moves and
// changes its shape through time and splits near the end". This module
// derives those events from the per-step masks a Tracker produces: each
// step's mask is decomposed into connected components; components of
// consecutive steps are matched by spatial overlap (the tracking
// assumption guarantees overlap for matching features); the bipartite
// match pattern classifies continuation / birth / death / split / merge.
// The result is organized as a feature tree (Chen et al., cited in Sec 2).
// Each step is labeled by its x-runs (volume/components.hpp) and the
// overlaps of consecutive steps are counted by intersecting their run
// lists row by row, so no label volume is built.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/tracking.hpp"
#include "volume/components.hpp"

namespace ifet {

enum class EventType : std::uint8_t {
  kBirth,         ///< Component with no predecessor.
  kDeath,         ///< Component with no successor.
  kContinuation,  ///< 1 predecessor, 1 successor.
  kSplit,         ///< One component overlapping >= 2 at the next step.
  kMerge,         ///< >= 2 components overlapping one at the next step.
};

const char* event_name(EventType type);

/// One node of the feature tree: a component at a given step.
struct FeatureNode {
  int step = 0;
  std::int32_t label = 0;  ///< Component label within the step.
  ComponentInfo info;
  std::vector<int> parents;   ///< Node indices at step-1 with overlap.
  std::vector<int> children;  ///< Node indices at step+1 with overlap.
};

/// A detected event.
struct FeatureEvent {
  EventType type = EventType::kContinuation;
  int step = 0;  ///< Step at which the event is observed.
  int node = 0;  ///< Index into FeatureHistory::nodes.
};

/// The full tracked history: per-step component decomposition, tree edges,
/// and the derived event list.
struct FeatureHistory {
  std::vector<FeatureNode> nodes;
  std::vector<FeatureEvent> events;

  /// Node indices of a given step.
  std::vector<int> nodes_at(int step) const;
  /// Number of components at a step.
  int component_count(int step) const;
  /// Events of a given type.
  std::vector<FeatureEvent> events_of(EventType type) const;
  /// Steps covered (sorted).
  std::vector<int> steps() const;
};

/// Build the history from a tracking result. Components of consecutive
/// steps are connected when they overlap in at least `min_overlap` voxels.
FeatureHistory build_feature_history(const TrackResult& track,
                                     std::size_t min_overlap = 1);

/// Render the feature tree as indented text (for logs and the examples).
std::string format_feature_tree(const FeatureHistory& history);

}  // namespace ifet
