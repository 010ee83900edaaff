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

namespace {

using PairCount = std::pair<std::uint64_t, std::size_t>;

/// Replaces `pairs` with the (la, lb) label pairs of the voxels that both
/// labelings hold, each with its voxel count: row by row, the two rows'
/// runs are intersected in x order, and each overlap adds to the pair
/// before it while the pair repeats.
void intersect_runs(const RunLabeling& a, const RunLabeling& b,
                    std::vector<PairCount>& pairs) {
  IFET_REQUIRE(a.dims == b.dims,
               "build_feature_history: step mask dimension mismatch");
  pairs.clear();
  std::uint64_t pair = 0;
  std::size_t count = 0;
  for (std::size_t r = 0; r + 1 < a.row_start.size(); ++r) {
    std::uint32_t i = a.row_start[r];
    std::uint32_t j = b.row_start[r];
    const std::uint32_t i_end = a.row_start[r + 1];
    const std::uint32_t j_end = b.row_start[r + 1];
    while (i < i_end && j < j_end) {
      const MaskRun ra = a.runs[i];
      const MaskRun rb = b.runs[j];
      const std::uint32_t x0 = std::max(ra.x0, rb.x0);
      const std::uint32_t x1 = std::min(ra.x1, rb.x1);
      if (x0 <= x1) {
        const std::uint64_t overlap =
            static_cast<std::uint64_t>(a.label[i]) << 32 |
            static_cast<std::uint32_t>(b.label[j]);
        if (overlap != pair) {
          if (count != 0) pairs.emplace_back(pair, count);
          pair = overlap;
          count = 0;
        }
        count += x1 - x0 + 1;
      }
      // The run that ends first can meet no later run of the other row.
      const bool a_first = ra.x1 < rb.x1;
      i += a_first ? 1 : 0;
      j += a_first ? 0 : 1;
    }
  }
  if (count != 0) pairs.emplace_back(pair, count);
}

}  // namespace

FeatureHistory build_feature_history(const TrackResult& track,
                                     std::size_t min_overlap) {
  IFET_REQUIRE(min_overlap >= 1, "build_feature_history: min_overlap >= 1");
  FeatureHistory history;
  if (track.masks.empty()) return history;

  // One pass over the masks in step order with two run labelings live: the
  // previous step's and this one's, in reused buffers. node_index[k][l] is
  // the node index of label l in labeling k.
  RunLabeling runs[2];
  std::vector<int> node_index[2];
  std::vector<PairCount> overlap;
  int prev_step = 0;
  int cur = 0;
  for (const auto& [step, mask] : track.masks) {
    const std::vector<ComponentInfo> components =
        label_runs(mask, nullptr, runs[cur]);
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

    // Connect consecutive steps by voxel overlap. The pair list holds one
    // entry per change of pair along the rows: a few per row for large
    // components, never more than the overlapping runs. Sorted and summed,
    // the pairs come out in (la, lb) order with their voxel totals.
    const int prev = 1 - cur;
    if (!node_index[prev].empty() && step == prev_step + 1) {
      intersect_runs(runs[prev], runs[cur], overlap);
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
