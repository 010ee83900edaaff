#include "volume/components.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

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

constexpr int kWordBits = 64;

/// mask_bits of the `n` mask bytes from `bytes` (n <= 64); a word of 64
/// clear bytes is passed over after one test.
std::uint64_t row_word(const std::uint8_t* bytes, int n) {
  if (n == kWordBits) {
    std::uint64_t eight[8];
    std::memcpy(eight, bytes, sizeof(eight));
    std::uint64_t any = 0;
    for (const std::uint64_t word : eight) any |= word;
    if (any == 0) return 0;
  }
  return mask_bits(bytes, n);
}

/// Appends the runs of the mask row of `nx` voxels at `row` to `runs`, in
/// x order. The row is read a word of 64 voxels at a time and cut at its
/// bit transitions; a run still open at a word's end goes on in the next.
void append_row_runs(const std::uint8_t* row, int nx,
                     std::vector<MaskRun>& runs) {
  bool open = false;
  std::uint32_t x0 = 0;
  for (int base = 0; base < nx; base += kWordBits) {
    const std::uint64_t bits =
        row_word(row + base, std::min(kWordBits, nx - base));
    // The next cut is the lowest set bit of `search`: the word's bits while
    // no run is open, their complement while one is. Bits past the row's
    // end are clear, so a run open in a short last word ends with the row.
    std::uint64_t search = open ? ~bits : bits;
    while (search != 0) {
      const int at = std::countr_zero(search);
      const auto x = static_cast<std::uint32_t>(base + at);
      if (open) {
        runs.push_back(MaskRun{x0, x - 1});
      } else {
        x0 = x;
      }
      open = !open;
      search = ~search & (~std::uint64_t{0} << at);
    }
  }
  if (open) runs.push_back(MaskRun{x0, static_cast<std::uint32_t>(nx - 1)});
}

/// Root of run `a` with path halving. Every parent is lower than its child,
/// so a root is the lowest run of its set.
std::uint32_t find_root(std::vector<std::uint32_t>& root, std::uint32_t a) {
  while (root[a] != a) {
    root[a] = root[root[a]];
    a = root[a];
  }
  return a;
}

/// Joins the run `run` to the runs of an earlier row that share an x with
/// it, from `j` (the first that may) to `j_end`; `set` is the root of
/// `run`'s set and becomes the joined set's. Each set stays rooted at its
/// lowest run. `j` is left at the first run that may meet the row's next
/// run.
void join_overlaps(const std::vector<MaskRun>& runs,
                   std::vector<std::uint32_t>& root, MaskRun run,
                   std::uint32_t& j, std::uint32_t j_end,
                   std::uint32_t& set) {
  while (j < j_end && runs[j].x1 < run.x0) ++j;
  for (std::uint32_t k = j; k < j_end && runs[k].x0 <= run.x1; ++k) {
    const std::uint32_t other = find_root(root, k);
    if (other < set) {
      root[set] = other;
      set = other;
    } else if (set < other) {
      root[other] = set;
    }
  }
}

/// One component's sums over its runs, all in integers but value_sum.
struct ComponentSums {
  std::size_t count = 0;
  std::uint32_t lo[3] = {UINT32_MAX, UINT32_MAX, UINT32_MAX};
  std::uint32_t hi[3] = {0, 0, 0};
  std::uint64_t sum[3] = {0, 0, 0};
  double value_sum = 0.0;
};

ComponentInfo component_of(const ComponentSums& sums, std::int32_t label) {
  ComponentInfo info;
  info.label = label;
  info.voxel_count = sums.count;
  info.bbox_min = Index3{static_cast<int>(sums.lo[0]),
                         static_cast<int>(sums.lo[1]),
                         static_cast<int>(sums.lo[2])};
  info.bbox_max = Index3{static_cast<int>(sums.hi[0]),
                         static_cast<int>(sums.hi[1]),
                         static_cast<int>(sums.hi[2])};
  info.value_sum = sums.value_sum;
  // Coordinate sums are integers, so the centroid is exact.
  const double n = static_cast<double>(sums.count);
  info.centroid = Vec3{static_cast<double>(sums.sum[0]) / n,
                       static_cast<double>(sums.sum[1]) / n,
                       static_cast<double>(sums.sum[2]) / n};
  return info;
}

}  // namespace

IFET_DETERMINISTIC std::vector<ComponentInfo> label_runs(
    const Mask& mask, const VolumeF* values, RunLabeling& out) {
  if (values != nullptr) {
    IFET_REQUIRE(values->dims() == mask.dims(),
                 "label_components: value volume dimension mismatch");
  }
  IFET_REQUIRE(mask.size() <= UINT32_MAX,
               "label_components: masks over 2^32 voxels are not supported");
  const Dims d = mask.dims();
  const auto nx = static_cast<std::size_t>(d.x);
  const auto ny = static_cast<std::uint32_t>(d.y);
  const auto nz = static_cast<std::uint32_t>(d.z);
  const std::size_t rows = static_cast<std::size_t>(ny) * nz;
  std::vector<MaskRun>& runs = out.runs;
  std::vector<std::uint32_t>& row_start = out.row_start;
  std::vector<std::uint32_t>& root = out.root;
  std::vector<std::int32_t>& label = out.label;
  out.dims = d;

  runs.clear();
  row_start.resize(rows + 1);
  const std::uint8_t* bytes = mask.data().data();
  for (std::size_t r = 0; r < rows; ++r) {
    row_start[r] = static_cast<std::uint32_t>(runs.size());
    append_row_runs(bytes + r * nx, d.x, runs);
  }
  row_start[rows] = static_cast<std::uint32_t>(runs.size());

  // Each run joins the runs it overlaps in rows y - 1 and z - 1. Run ids
  // follow scan order, so a set's root is its component's first voxel.
  root.resize(runs.size());
  for (std::uint32_t z = 0, r = 0; z < nz; ++z) {
    for (std::uint32_t y = 0; y < ny; ++y, ++r) {
      std::uint32_t j = y > 0 ? row_start[r - 1] : 0;
      const std::uint32_t j_end = y > 0 ? row_start[r] : 0;
      std::uint32_t k = z > 0 ? row_start[r - ny] : 0;
      const std::uint32_t k_end = z > 0 ? row_start[r - ny + 1] : 0;
      for (std::uint32_t i = row_start[r]; i < row_start[r + 1]; ++i) {
        IFET_DEBUG_ASSERT(i == row_start[r] || runs[i - 1].x1 + 1 < runs[i].x0,
                          "label_components: runs out of scan order");
        std::uint32_t set = i;
        join_overlaps(runs, root, runs[i], j, j_end, set);
        join_overlaps(runs, root, runs[i], k, k_end, set);
        root[i] = set;
      }
    }
  }

  // One ascending pass finalizes every root, since each parent's root is
  // final before its children's, and numbers the sets in run order: the
  // rank of each component's first voxel, the label one scan-order flood
  // gives it. Each run adds into its component's sums, and the values add
  // one voxel at a time in scan order.
  label.resize(runs.size());
  std::vector<ComponentSums> sums;
  for (std::uint32_t z = 0, r = 0; z < nz; ++z) {
    for (std::uint32_t y = 0; y < ny; ++y, ++r) {
      for (std::uint32_t i = row_start[r]; i < row_start[r + 1]; ++i) {
        IFET_DEBUG_ASSERT(root[i] <= i,
                          "label_components: run parented above itself");
        const std::uint32_t set = root[root[i]];
        root[i] = set;
        if (set == i) {
          sums.emplace_back();
          label[i] = static_cast<std::int32_t>(sums.size());
        } else {
          label[i] = label[set];
        }
        ComponentSums& c = sums[static_cast<std::size_t>(label[i] - 1)];
        const MaskRun run = runs[i];
        const std::uint64_t length = run.x1 - run.x0 + 1;
        c.count += length;
        const std::uint32_t lo[3] = {run.x0, y, z};
        const std::uint32_t hi[3] = {run.x1, y, z};
        for (int a = 0; a < 3; ++a) {
          c.lo[a] = std::min(c.lo[a], lo[a]);
          c.hi[a] = std::max(c.hi[a], hi[a]);
        }
        // x0 + ... + x1; the product is even, as one factor is.
        c.sum[0] += (std::uint64_t{run.x0} + run.x1) * length / 2;
        c.sum[1] += y * length;
        c.sum[2] += z * length;
        if (values != nullptr) {
          const std::size_t row = r * nx;
          for (std::uint32_t x = run.x0; x <= run.x1; ++x) {
            c.value_sum += (*values)[row + x];
          }
        }
      }
    }
  }

  std::vector<ComponentInfo> components;
  components.reserve(sums.size());
  for (std::size_t c = 0; c < sums.size(); ++c) {
    components.push_back(
        component_of(sums[c], static_cast<std::int32_t>(c + 1)));
  }
  std::sort(components.begin(), components.end(),
            [](const ComponentInfo& a, const ComponentInfo& b) {
              return a.voxel_count > b.voxel_count;
            });
  return components;
}

Labeling label_components(const Mask& mask, const VolumeF* values) {
  Labeling result;
  RunLabeling runs;
  result.components = label_runs(mask, values, runs);
  if (mask.empty()) return result;
  result.labels = Volume<std::int32_t>(mask.dims(), 0);
  const auto nx = static_cast<std::size_t>(mask.dims().x);
  for (std::size_t r = 0; r + 1 < runs.row_start.size(); ++r) {
    for (std::uint32_t i = runs.row_start[r]; i < runs.row_start[r + 1]; ++i) {
      for (std::uint32_t x = runs.runs[i].x0; x <= runs.runs[i].x1; ++x) {
        result.labels[r * nx + x] = runs.label[i];
      }
    }
  }
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
