#include "core/track_events.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "parallel/thread_pool.hpp"
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

/// One part's pair list, on cache lines of its own: the part's thread
/// reads and moves the list's end as it scans.
struct alignas(64) PairList {
  std::vector<PairCount> pairs;
};

/// Replaces `pairs` with the (la, lb) label pairs of the voxels in
/// [begin, end) that both labelings hold, in scan order, adding to the
/// last entry while the pair repeats.
void count_pairs(const Mask& mask, const Volume<std::int32_t>& a,
                 const Volume<std::int32_t>& b, std::size_t begin,
                 std::size_t end, std::vector<PairCount>& pairs) {
  pairs.clear();
  for (std::size_t v = begin; v < end; ++v) {
    if (eight_clear(mask, v)) {
      v += 7;
      continue;
    }
    const std::int32_t la = a[v];
    const std::int32_t lb = b[v];
    if (la <= 0 || lb <= 0) continue;
    const std::uint64_t pair = static_cast<std::uint64_t>(la) << 32 |
                               static_cast<std::uint32_t>(lb);
    if (!pairs.empty() && pairs.back().first == pair) {
      ++pairs.back().second;
    } else {
      pairs.emplace_back(pair, 1);
    }
  }
}

}  // namespace

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
  LabelScratch scratch;
  std::vector<PairList> part_overlap;
  std::vector<PairCount> overlap;
  int prev_step = 0;
  int cur = 0;
  for (const auto& [step, mask] : track.masks) {
    const std::vector<ComponentInfo> components =
        label_components_into(mask, nullptr, labels[cur], scratch);
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
    // pair repeats, so a list holds one entry per change of pair in scan
    // order: a few per step for large components, never more than the
    // overlapping voxels. The voxel range is split into as many parts as
    // the labeling has slabs, each with its own list; concatenated,
    // sorted and summed, the pairs come out in (la, lb) order with the
    // same totals one list gives.
    const int prev = 1 - cur;
    if (!node_index[prev].empty() && step == prev_step + 1) {
      const Volume<std::int32_t>& a = labels[prev];
      const Volume<std::int32_t>& b = labels[cur];
      const std::size_t parts = label_slab_count(mask.dims());
      part_overlap.resize(parts);
      ThreadPool::global().parallel_for_static(
          0, parts, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t p = lo; p < hi; ++p) {
              count_pairs(mask, a, b, mask.size() * p / parts,
                          mask.size() * (p + 1) / parts,
                          part_overlap[p].pairs);
            }
          });
      overlap.clear();
      for (std::size_t p = 0; p < parts; ++p) {
        const std::vector<PairCount>& list = part_overlap[p].pairs;
        overlap.insert(overlap.end(), list.begin(), list.end());
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
