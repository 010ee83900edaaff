#include "core/track_events.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace ifet {

const char* event_name(EventType type) {
  switch (type) {
    case EventType::kBirth: return "birth";
    case EventType::kDeath: return "death";
    case EventType::kContinuation: return "continuation";
    case EventType::kSplit: return "split";
    case EventType::kMerge: return "merge";
  }
  return "?";
}

std::vector<int> FeatureHistory::nodes_at(int step) const {
  std::vector<int> out;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (nodes[n].step == step) out.push_back(static_cast<int>(n));
  }
  return out;
}

int FeatureHistory::component_count(int step) const {
  return static_cast<int>(nodes_at(step).size());
}

std::vector<FeatureEvent> FeatureHistory::events_of(EventType type) const {
  std::vector<FeatureEvent> out;
  for (const auto& e : events) {
    if (e.type == type) out.push_back(e);
  }
  return out;
}

std::vector<int> FeatureHistory::steps() const {
  std::vector<int> out;
  for (const auto& n : nodes) out.push_back(n.step);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

FeatureHistory build_feature_history(const TrackResult& track,
                                     std::size_t min_overlap) {
  IFET_REQUIRE(min_overlap >= 1, "build_feature_history: min_overlap >= 1");
  FeatureHistory history;
  if (track.masks.empty()) return history;

  // One pass over the masks in step order with two labelings live: the
  // previous step's and this one's, in reused buffers. node_index[k][l] is
  // the node index of label l in labeling k.
  Volume<std::int32_t> labels[2];
  std::vector<int> node_index[2];
  std::vector<std::uint32_t> worklist;
  std::vector<std::pair<std::uint64_t, std::size_t>> overlap;
  int prev_step = 0;
  int cur = 0;
  for (const auto& [step, mask] : track.masks) {
    const std::vector<ComponentInfo> components =
        label_components_into(mask, nullptr, labels[cur], worklist);
    node_index[cur].assign(components.size() + 1, -1);
    for (const auto& comp : components) {
      FeatureNode node;
      node.step = step;
      node.label = comp.label;
      node.info = comp;
      node_index[cur][static_cast<std::size_t>(comp.label)] =
          static_cast<int>(history.nodes.size());
      history.nodes.push_back(std::move(node));
    }

    // Connect consecutive steps by voxel overlap. Each voxel both steps
    // hold counts its (la, lb) pair, adding to the last entry when the
    // pair repeats, so the list holds one entry per change of pair in
    // scan order: a few per step for large components, never more than
    // the overlapping voxels. Sorted and summed, the pairs come out in
    // (la, lb) order.
    const int prev = 1 - cur;
    if (!node_index[prev].empty() && step == prev_step + 1) {
      const Volume<std::int32_t>& a = labels[prev];
      const Volume<std::int32_t>& b = labels[cur];
      overlap.clear();
      for (std::size_t v = 0; v < mask.size(); ++v) {
        if (eight_clear(mask, v)) {
          v += 7;
          continue;
        }
        const std::int32_t la = a[v];
        const std::int32_t lb = b[v];
        if (la <= 0 || lb <= 0) continue;
        const std::uint64_t pair = static_cast<std::uint64_t>(la) << 32 |
                                   static_cast<std::uint32_t>(lb);
        if (!overlap.empty() && overlap.back().first == pair) {
          ++overlap.back().second;
        } else {
          overlap.emplace_back(pair, 1);
        }
      }
      std::sort(overlap.begin(), overlap.end());
      for (std::size_t i = 0; i < overlap.size();) {
        const std::uint64_t pair = overlap[i].first;
        std::size_t count = 0;
        for (; i < overlap.size() && overlap[i].first == pair; ++i) {
          count += overlap[i].second;
        }
        if (count < min_overlap) continue;
        const int from = node_index[prev][pair >> 32];
        const int to = node_index[cur][pair & 0xFFFFFFFFu];
        history.nodes[static_cast<std::size_t>(from)].children.push_back(to);
        history.nodes[static_cast<std::size_t>(to)].parents.push_back(from);
      }
    }
    prev_step = step;
    cur = prev;
  }

  // Classify events.
  const int first = track.masks.begin()->first;
  const int last = track.masks.rbegin()->first;
  for (std::size_t n = 0; n < history.nodes.size(); ++n) {
    const FeatureNode& node = history.nodes[n];
    if (node.parents.empty() && node.step != first) {
      history.events.push_back(
          {EventType::kBirth, node.step, static_cast<int>(n)});
    }
    if (node.children.empty() && node.step != last) {
      history.events.push_back(
          {EventType::kDeath, node.step, static_cast<int>(n)});
    }
    if (node.children.size() >= 2) {
      history.events.push_back(
          {EventType::kSplit, node.step, static_cast<int>(n)});
    }
    if (node.parents.size() >= 2) {
      history.events.push_back(
          {EventType::kMerge, node.step, static_cast<int>(n)});
    }
    if (node.parents.size() == 1 && node.children.size() == 1) {
      history.events.push_back(
          {EventType::kContinuation, node.step, static_cast<int>(n)});
    }
  }
  return history;
}

std::string format_feature_tree(const FeatureHistory& history) {
  std::ostringstream os;
  for (int step : history.steps()) {
    os << "t=" << step << ":";
    for (int n : history.nodes_at(step)) {
      const FeatureNode& node = history.nodes[static_cast<std::size_t>(n)];
      os << "  [#" << n << " size=" << node.info.voxel_count << " c=("
         << static_cast<int>(node.info.centroid.x) << ","
         << static_cast<int>(node.info.centroid.y) << ","
         << static_cast<int>(node.info.centroid.z) << ")";
      if (!node.children.empty()) {
        os << " ->";
        for (int c : node.children) os << " #" << c;
      }
      os << "]";
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace ifet
