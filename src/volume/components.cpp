#include "volume/components.hpp"

#include <algorithm>

#include "parallel/thread_pool.hpp"
#include "util/hot_path.hpp"

namespace ifet {

const ComponentInfo& Labeling::info(std::int32_t label) const {
  for (const auto& c : components) {
    if (c.label == label) return c;
  }
  throw Error("Labeling::info: unknown label " + std::to_string(label));
}

Mask Labeling::component_mask(std::int32_t label) const {
  Mask out(labels.dims());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    out[i] = labels[i] == label ? 1 : 0;
  }
  return out;
}

namespace {

/// Slab count for `nz` planes on `pool`: one slab per pool thread, at most
/// one per plane, at least one.
std::size_t slab_count(const ThreadPool& pool, int nz) {
  return std::max<std::size_t>(
      1, std::min(pool.size() + 1, static_cast<std::size_t>(nz)));
}

/// Floods the mask voxels of the linear range [begin, end), whole planes,
/// into `parts` with slab-local labels 1, 2, ... in scan order of their
/// first voxels. Claims along z stop at the slab's faces.
void flood_slab(const Mask& mask, const VolumeF* values,
                Volume<std::int32_t>& labels, std::uint32_t begin,
                std::uint32_t end, LabelSlab& slab) {
  std::vector<std::uint32_t>& worklist = slab.worklist;
  std::vector<LabelPart>& parts = slab.parts;
  const Dims d = mask.dims();
  const auto nx = static_cast<std::uint32_t>(d.x);
  const auto ny = static_cast<std::uint32_t>(d.y);
  const std::uint32_t plane = nx * ny;
  // -1 marks a mask voxel no part has claimed yet, so the flood fill
  // reads one volume instead of two.
  for (std::uint32_t v = begin; v < end; ++v) {
    labels[v] = mask[v] != 0 ? -1 : 0;
  }
  parts.clear();

  for (std::uint32_t start = begin; start < end; ++start) {
    if (eight_clear(mask, start)) {
      start += 7;
      continue;
    }
    if (labels[start] >= 0) continue;
    const auto label = static_cast<std::int32_t>(parts.size() + 1);

    // FIFO flood fill over worklist[head..] in linear indices; neighbors
    // in the order +x, -x, +y, -y, +z, -z, so value_sum adds in the same
    // order on every run.
    labels[start] = label;
    worklist.clear();
    worklist.push_back(start);
    const auto claim = [&](std::uint32_t q) {
      IFET_DEBUG_ASSERT(q >= begin && q < end,
                        "label_components: claim outside the slab");
      if (labels[q] >= 0) return;
      labels[q] = label;
      worklist.push_back(q);
    };
    std::uint32_t lo[3] = {UINT32_MAX, UINT32_MAX, UINT32_MAX};
    std::uint32_t hi[3] = {0, 0, 0};
    std::uint64_t sum[3] = {0, 0, 0};
    double value_sum = 0.0;
    for (std::size_t head = 0; head < worklist.size(); ++head) {
      const std::uint32_t v = worklist[head];
      // Frontier bookkeeping invariants: every queued voxel is set in the
      // input mask and was claimed for this part when it was enqueued (so
      // no voxel is ever counted twice).
      IFET_DEBUG_ASSERT(mask[v] != 0,
                        "label_components: frontier voxel not in mask");
      IFET_DEBUG_ASSERT(
          labels[v] == label,
          "label_components: frontier voxel not claimed by this component");
      const std::uint32_t row = v / nx;
      const std::uint32_t x = v - row * nx;
      const std::uint32_t z = row / ny;
      const std::uint32_t y = row - z * ny;
      const std::uint32_t c[3] = {x, y, z};
      for (int a = 0; a < 3; ++a) {
        lo[a] = std::min(lo[a], c[a]);
        hi[a] = std::max(hi[a], c[a]);
        sum[a] += c[a];
      }
      if (values != nullptr) value_sum += (*values)[v];
      if (x + 1 < nx) claim(v + 1);
      if (x > 0) claim(v - 1);
      if (y + 1 < ny) claim(v + nx);
      if (y > 0) claim(v - nx);
      if (v + plane < end) claim(v + plane);
      if (v >= begin + plane) claim(v - plane);
    }
    LabelPart part;
    part.first = start;
    part.count = worklist.size();
    for (int a = 0; a < 3; ++a) {
      part.lo[a] = lo[a];
      part.hi[a] = hi[a];
      part.sum[a] = sum[a];
    }
    part.value_sum = value_sum;
    parts.push_back(part);
  }
}

/// Root of part `a` with path halving. Every parent has a lower id than
/// its child, so a root is the lowest id of its set.
std::uint32_t find_root(std::vector<std::uint32_t>& root, std::uint32_t a) {
  while (root[a] != a) {
    root[a] = root[root[a]];
    a = root[a];
  }
  return a;
}

ComponentInfo component_of(const LabelPart& part, std::int32_t label) {
  ComponentInfo info;
  info.label = label;
  info.voxel_count = part.count;
  info.bbox_min = Index3{static_cast<int>(part.lo[0]),
                         static_cast<int>(part.lo[1]),
                         static_cast<int>(part.lo[2])};
  info.bbox_max = Index3{static_cast<int>(part.hi[0]),
                         static_cast<int>(part.hi[1]),
                         static_cast<int>(part.hi[2])};
  info.value_sum = part.value_sum;
  // Coordinate sums are integers, so the centroid is exact.
  const double n = static_cast<double>(part.count);
  info.centroid = Vec3{static_cast<double>(part.sum[0]) / n,
                       static_cast<double>(part.sum[1]) / n,
                       static_cast<double>(part.sum[2]) / n};
  return info;
}

}  // namespace

std::size_t label_slab_count(Dims d) {
  return slab_count(ThreadPool::global(), d.z);
}

IFET_DETERMINISTIC std::vector<ComponentInfo> label_components_into(
    const Mask& mask, const VolumeF* values, Volume<std::int32_t>& labels,
    LabelScratch& scratch) {
  if (values != nullptr) {
    IFET_REQUIRE(values->dims() == mask.dims(),
                 "label_components: value volume dimension mismatch");
  }
  IFET_REQUIRE(mask.size() <= UINT32_MAX,
               "label_components: masks over 2^32 voxels are not supported");
  const Dims d = mask.dims();
  if (!(labels.dims() == d)) labels = Volume<std::int32_t>(d, 0);
  const auto nx = static_cast<std::uint32_t>(d.x);
  const std::uint32_t plane = nx * static_cast<std::uint32_t>(d.y);

  // A value volume keeps one slab: value_sum adds in the order of one
  // flood, which floods split at slab faces cannot reproduce.
  ThreadPool& pool = ThreadPool::global();
  const std::size_t slabs = values != nullptr ? 1 : slab_count(pool, d.z);
  const auto slab_begin = [&](std::size_t s) {
    return static_cast<std::uint32_t>(static_cast<std::size_t>(d.z) * s /
                                      slabs) *
           plane;
  };
  scratch.slabs.resize(slabs);
  pool.parallel_for_static(0, slabs, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      flood_slab(mask, values, labels, slab_begin(s), slab_begin(s + 1),
                 scratch.slabs[s]);
    }
  });

  // Global part ids: slab s's parts follow slab s-1's, so the ids run in
  // scan order of the parts' first voxels.
  std::vector<std::uint32_t>& first_id = scratch.first_id;
  first_id.assign(slabs + 1, 0);
  for (std::size_t s = 0; s < slabs; ++s) {
    first_id[s + 1] = first_id[s] + static_cast<std::uint32_t>(
                                        scratch.slabs[s].parts.size());
  }
  std::vector<std::uint32_t>& root = scratch.root;
  root.resize(first_id[slabs]);
  for (std::uint32_t g = 0; g < root.size(); ++g) root[g] = g;

  // Union the parts that touch across each internal face (the last plane
  // of slab s against the first of slab s+1), rooting each set at its
  // lowest id.
  for (std::size_t s = 0; s + 1 < slabs; ++s) {
    const std::uint32_t face = slab_begin(s + 1);
    std::int32_t seen_a = 0;
    std::int32_t seen_b = 0;
    for (std::uint32_t p = 0; p < plane; ++p) {
      const std::int32_t a = labels[face - plane + p];
      const std::int32_t b = labels[face + p];
      if (a <= 0 || b <= 0 || (a == seen_a && b == seen_b)) continue;
      seen_a = a;
      seen_b = b;
      const std::uint32_t ra =
          find_root(root, first_id[s] + static_cast<std::uint32_t>(a - 1));
      const std::uint32_t rb = find_root(
          root, first_id[s + 1] + static_cast<std::uint32_t>(b - 1));
      if (ra < rb) root[rb] = ra;
      if (rb < ra) root[ra] = rb;
    }
  }

  // Sets numbered in order of their roots: each component gets the rank
  // of its first voxel, the label one scan-order flood gives it. Its
  // parts add into one record.
  std::vector<std::int32_t>& final_label = scratch.final_label;
  final_label.resize(root.size());
  std::vector<LabelPart>& merged = scratch.merged;
  merged.clear();
  std::uint32_t g = 0;
  const LabelPart* previous = nullptr;
  for (std::size_t s = 0; s < slabs; ++s) {
    for (const LabelPart& part : scratch.slabs[s].parts) {
      IFET_DEBUG_ASSERT(previous == nullptr || previous->first < part.first,
                        "label_components: part ids out of scan order");
      previous = &part;
      const std::uint32_t r = find_root(root, g);
      IFET_DEBUG_ASSERT(r <= g, "label_components: set rooted above a part");
      if (r == g) {
        merged.push_back(part);
        final_label[g] = static_cast<std::int32_t>(merged.size());
      } else {
        final_label[g] = final_label[r];
        LabelPart& into = merged[static_cast<std::size_t>(final_label[r] - 1)];
        into.count += part.count;
        for (int a = 0; a < 3; ++a) {
          into.lo[a] = std::min(into.lo[a], part.lo[a]);
          into.hi[a] = std::max(into.hi[a], part.hi[a]);
          into.sum[a] += part.sum[a];
        }
      }
      ++g;
    }
  }

  // Relabel in parallel, inside the box of each slab's parts whose label
  // changes: in slab 0 only the parts after a merged one. Each voxel there
  // is read and mapped once, so no part can take another's new label.
  if (slabs > 1) {
    pool.parallel_for_static(0, slabs, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t s = lo; s < hi; ++s) {
        const std::vector<LabelPart>& parts = scratch.slabs[s].parts;
        const std::int32_t* to = final_label.data() + first_id[s];
        std::uint32_t box_lo[3] = {UINT32_MAX, UINT32_MAX, UINT32_MAX};
        std::uint32_t box_hi[3] = {0, 0, 0};
        for (std::size_t l = 1; l <= parts.size(); ++l) {
          if (to[l - 1] == static_cast<std::int32_t>(l)) continue;
          for (int a = 0; a < 3; ++a) {
            box_lo[a] = std::min(box_lo[a], parts[l - 1].lo[a]);
            box_hi[a] = std::max(box_hi[a], parts[l - 1].hi[a]);
          }
        }
        for (std::uint32_t z = box_lo[2]; z <= box_hi[2]; ++z) {
          for (std::uint32_t y = box_lo[1]; y <= box_hi[1]; ++y) {
            const std::uint32_t row =
                (z * static_cast<std::uint32_t>(d.y) + y) * nx;
            for (std::uint32_t x = box_lo[0]; x <= box_hi[0]; ++x) {
              const std::int32_t l = labels[row + x];
              if (l > 0) labels[row + x] = to[l - 1];
            }
          }
        }
      }
    });
  }

  std::vector<ComponentInfo> components;
  components.reserve(merged.size());
  for (std::size_t c = 0; c < merged.size(); ++c) {
    components.push_back(
        component_of(merged[c], static_cast<std::int32_t>(c + 1)));
  }
  std::sort(components.begin(), components.end(),
            [](const ComponentInfo& a, const ComponentInfo& b) {
              return a.voxel_count > b.voxel_count;
            });
  return components;
}

Labeling label_components(const Mask& mask, const VolumeF* values) {
  Labeling result;
  LabelScratch scratch;
  result.components =
      label_components_into(mask, values, result.labels, scratch);
  return result;
}

Mask remove_small_components(const Mask& mask, std::size_t min_voxels) {
  Labeling labeling = label_components(mask);
  std::vector<std::uint8_t> keep(labeling.components.size() + 1, 0);
  for (const auto& c : labeling.components) {
    if (c.voxel_count >= min_voxels) {
      keep[static_cast<std::size_t>(c.label)] = 1;
    }
  }
  Mask out(mask.dims());
  for (std::size_t i = 0; i < mask.size(); ++i) {
    std::int32_t label = labeling.labels[i];
    out[i] = (label > 0 && keep[static_cast<std::size_t>(label)]) ? 1 : 0;
  }
  return out;
}

}  // namespace ifet
