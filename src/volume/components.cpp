#include "volume/components.hpp"

#include <algorithm>

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

IFET_DETERMINISTIC std::vector<ComponentInfo> label_components_into(
    const Mask& mask, const VolumeF* values, Volume<std::int32_t>& labels,
    std::vector<std::uint32_t>& worklist) {
  if (values != nullptr) {
    IFET_REQUIRE(values->dims() == mask.dims(),
                 "label_components: value volume dimension mismatch");
  }
  IFET_REQUIRE(mask.size() <= UINT32_MAX,
               "label_components: masks over 2^32 voxels are not supported");
  const Dims d = mask.dims();
  if (!(labels.dims() == d)) labels = Volume<std::int32_t>(d, 0);
  const auto nx = static_cast<std::uint32_t>(d.x);
  const auto ny = static_cast<std::uint32_t>(d.y);
  const std::uint32_t plane = nx * ny;
  const auto size = static_cast<std::uint32_t>(mask.size());
  // -1 marks a mask voxel no component has claimed yet, so the flood fill
  // reads one volume instead of two.
  for (std::uint32_t v = 0; v < size; ++v) {
    labels[v] = mask[v] != 0 ? -1 : 0;
  }
  std::vector<ComponentInfo> components;
  std::int32_t next_label = 1;

  for (std::uint32_t start = 0; start < size; ++start) {
    if (eight_clear(mask, start)) {
      start += 7;
      continue;
    }
    if (labels[start] >= 0) continue;
    const std::int32_t label = next_label++;
    ComponentInfo info;
    info.label = label;

    // FIFO flood fill over worklist[head..] in linear indices; neighbors
    // in the order +x, -x, +y, -y, +z, -z, so value_sum adds in the same
    // order on every run. Coordinate sums are integers, so the centroid
    // is exact.
    labels[start] = label;
    worklist.clear();
    worklist.push_back(start);
    const auto claim = [&](std::uint32_t q) {
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
      // input mask and was claimed for this component when it was
      // enqueued (so no voxel is ever counted twice).
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
      if (v + plane < size) claim(v + plane);
      if (v >= plane) claim(v - plane);
    }
    info.voxel_count = worklist.size();
    info.bbox_min = Index3{static_cast<int>(lo[0]), static_cast<int>(lo[1]),
                           static_cast<int>(lo[2])};
    info.bbox_max = Index3{static_cast<int>(hi[0]), static_cast<int>(hi[1]),
                           static_cast<int>(hi[2])};
    info.value_sum = value_sum;
    const double n = static_cast<double>(info.voxel_count);
    info.centroid = Vec3{static_cast<double>(sum[0]) / n,
                         static_cast<double>(sum[1]) / n,
                         static_cast<double>(sum[2]) / n};
    components.push_back(info);
  }

  std::sort(components.begin(), components.end(),
            [](const ComponentInfo& a, const ComponentInfo& b) {
              return a.voxel_count > b.voxel_count;
            });
  return components;
}

Labeling label_components(const Mask& mask, const VolumeF* values) {
  Labeling result;
  std::vector<std::uint32_t> worklist;
  result.components =
      label_components_into(mask, values, result.labels, worklist);
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
