#include "core/feature_vector.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "volume/components.hpp"
#include "volume/ops.hpp"

namespace ifet {

int FeatureVectorSpec::width() const {
  int per_variable = 0;
  if (use_value) ++per_variable;
  if (use_shell) per_variable += shell_samples;
  if (use_gradient) ++per_variable;
  int n = variables * per_variable;
  if (use_position) n += 3;
  if (use_time) ++n;
  return n;
}

std::vector<std::string> FeatureVectorSpec::component_names() const {
  auto prefix = [&](int v) {
    return variables == 1 ? std::string() : "var" + std::to_string(v) + ".";
  };
  std::vector<std::string> names;
  for (int v = 0; v < variables; ++v) {
    if (use_value) names.push_back(prefix(v) + "value");
    if (use_shell) {
      for (int s = 0; s < shell_samples; ++s) {
        names.push_back(prefix(v) + "shell" + std::to_string(s));
      }
    }
  }
  if (use_position) {
    names.push_back("pos_x");
    names.push_back("pos_y");
    names.push_back("pos_z");
  }
  if (use_time) names.push_back("time");
  if (use_gradient) {
    for (int v = 0; v < variables; ++v) names.push_back(prefix(v) + "gradient");
  }
  return names;
}

StepFields::StepFields(std::vector<const VolumeF*> fields)
    : fields_(std::move(fields)) {
  for (const VolumeF* field : fields_) {
    IFET_REQUIRE(field != nullptr, "StepFields: null field");
  }
}

Dims FeatureContext::require_shape(const FeatureVectorSpec& spec) const {
  IFET_REQUIRE(spec.variables >= 1 && fields.size() == spec.variables,
               "FeatureContext: need one field per variable");
  IFET_REQUIRE(static_cast<int>(ranges.size()) == spec.variables,
               "FeatureContext: need one value range per variable");
  const Dims d = fields[0].dims();
  for (int v = 1; v < fields.size(); ++v) {
    IFET_REQUIRE(fields[v].dims() == d,
                 "FeatureContext: variables must be aligned");
  }
  return d;
}

namespace {

double span_of(const std::pair<double, double>& range) {
  return std::max(1e-12, range.second - range.first);
}

}  // namespace

std::vector<Vec3> shell_directions(int count) {
  static const std::vector<Vec3> kAll = [] {
    std::vector<Vec3> dirs;
    // 6 axes.
    dirs.push_back({1, 0, 0});
    dirs.push_back({-1, 0, 0});
    dirs.push_back({0, 1, 0});
    dirs.push_back({0, -1, 0});
    dirs.push_back({0, 0, 1});
    dirs.push_back({0, 0, -1});
    // 8 cube diagonals.
    for (int sx : {-1, 1}) {
      for (int sy : {-1, 1}) {
        for (int sz : {-1, 1}) {
          dirs.push_back(Vec3{static_cast<double>(sx),
                              static_cast<double>(sy),
                              static_cast<double>(sz)}
                             .normalized());
        }
      }
    }
    // 12 edge midpoints.
    const int signs[2] = {-1, 1};
    for (int a : signs) {
      for (int b : signs) {
        dirs.push_back(Vec3{static_cast<double>(a), static_cast<double>(b), 0}
                           .normalized());
        dirs.push_back(Vec3{static_cast<double>(a), 0, static_cast<double>(b)}
                           .normalized());
        dirs.push_back(Vec3{0, static_cast<double>(a), static_cast<double>(b)}
                           .normalized());
      }
    }
    return dirs;
  }();
  IFET_REQUIRE(count > 0 && count <= static_cast<int>(kAll.size()),
               "shell_directions: supported counts are 1..26");
  return {kAll.begin(), kAll.begin() + count};
}

std::vector<Vec3> shell_offsets(double radius, int count) {
  std::vector<Vec3> offsets = shell_directions(count);
  // 1/256 voxel is an exact binary fraction: the rounded offsets and all
  // voxel+offset sums are exactly representable, which pins the trilinear
  // weights to per-direction constants (see the header for why).
  for (Vec3& o : offsets) {
    o.x = std::round(radius * o.x * 256.0) / 256.0;
    o.y = std::round(radius * o.y * 256.0) / 256.0;
    o.z = std::round(radius * o.z * 256.0) / 256.0;
  }
  return offsets;
}

std::vector<double> assemble_feature_vector(const FeatureVectorSpec& spec,
                                            const FeatureContext& context,
                                            int i, int j, int k) {
  const Dims d = context.require_shape(spec);
  const auto offsets =
      spec.use_shell ? shell_offsets(spec.shell_radius, spec.shell_samples)
                     : std::vector<Vec3>{};
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(spec.width()));
  for (int v = 0; v < spec.variables; ++v) {
    const VolumeF& field = context.fields[v];
    const double lo = context.ranges[static_cast<std::size_t>(v)].first;
    const double span = span_of(context.ranges[static_cast<std::size_t>(v)]);
    auto norm = [&](double raw) { return clamp((raw - lo) / span, 0.0, 1.0); };
    if (spec.use_value) out.push_back(norm(field.clamped(i, j, k)));
    if (spec.use_shell) {
      for (const Vec3& off : offsets) {
        out.push_back(norm(field.sample(i + off.x, j + off.y, k + off.z)));
      }
    }
  }
  if (spec.use_position) {
    out.push_back(static_cast<double>(i) / std::max(1, d.x - 1));
    out.push_back(static_cast<double>(j) / std::max(1, d.y - 1));
    out.push_back(static_cast<double>(k) / std::max(1, d.z - 1));
  }
  if (spec.use_time) {
    out.push_back(static_cast<double>(context.step) /
                  std::max(1, context.num_steps - 1));
  }
  if (spec.use_gradient) {
    // Normalize by the value span; central differences are bounded by it.
    for (int v = 0; v < spec.variables; ++v) {
      const double span = span_of(context.ranges[static_cast<std::size_t>(v)]);
      out.push_back(clamp(
          gradient_at(context.fields[v], i, j, k).norm() / span, 0.0, 1.0));
    }
  }
  return out;
}

FeatureBlockAssembler::FeatureBlockAssembler(const FeatureVectorSpec& spec,
                                             const FeatureContext& context)
    : spec_(spec), width_(spec.width()) {
  const Dims d = context.require_shape(spec_);
  vars_.resize(static_cast<std::size_t>(spec_.variables));
  for (int v = 0; v < spec_.variables; ++v) {
    Variable& var = vars_[static_cast<std::size_t>(v)];
    var.field = &context.fields[v];
    var.lo = context.ranges[static_cast<std::size_t>(v)].first;
    var.span = span_of(context.ranges[static_cast<std::size_t>(v)]);
  }
  if (spec_.use_shell) {
    const auto offsets = shell_offsets(spec_.shell_radius, spec_.shell_samples);
    // Per-axis padding so every tap's floor corner and its +1 neighbour
    // index straight into the padded grid for any voxel of the volume.
    int klo_x = 0, khi_x = 0, klo_y = 0, khi_y = 0, klo_z = 0, khi_z = 0;
    taps_.reserve(offsets.size());
    for (const Vec3& off : offsets) {
      ShellTap tap;
      const int kx = static_cast<int>(std::floor(off.x));
      const int ky = static_cast<int>(std::floor(off.y));
      const int kz = static_cast<int>(std::floor(off.z));
      // Exact: off - floor(off) is a multiple of 1/256, and it equals the
      // (i + off) - floor(i + off) the scalar path computes (both sums are
      // exact). These are the voxel-independent trilinear weights.
      tap.fx = off.x - static_cast<double>(kx);
      tap.fy = off.y - static_cast<double>(ky);
      tap.fz = off.z - static_cast<double>(kz);
      taps_.push_back(tap);
      klo_x = std::min(klo_x, kx);
      khi_x = std::max(khi_x, kx);
      klo_y = std::min(klo_y, ky);
      khi_y = std::max(khi_y, ky);
      klo_z = std::min(klo_z, kz);
      khi_z = std::max(khi_z, kz);
    }
    const int plx = -klo_x, phx = khi_x + 1;
    const int ply = -klo_y, phy = khi_y + 1;
    const int plz = -klo_z, phz = khi_z + 1;
    const int px = d.x + plx + phx;
    const int py = d.y + ply + phy;
    const int pz = d.z + plz + phz;
    pdx_ = px;
    pdxy_ = static_cast<std::ptrdiff_t>(px) * py;
    for (Variable& var : vars_) {
      var.padded.resize(pdxy_ * static_cast<std::ptrdiff_t>(pz));
      std::ptrdiff_t w = 0;
      for (int c = 0; c < pz; ++c) {
        for (int b = 0; b < py; ++b) {
          for (int a = 0; a < px; ++a) {
            var.padded[w++] = var.field->clamped(a - plx, b - ply, c - plz);
          }
        }
      }
    }
    for (std::size_t t = 0; t < taps_.size(); ++t) {
      const Vec3& off = offsets[t];
      const int kx = static_cast<int>(std::floor(off.x));
      const int ky = static_cast<int>(std::floor(off.y));
      const int kz = static_cast<int>(std::floor(off.z));
      taps_[t].base = (kx + plx) + pdx_ * (ky + ply) + pdxy_ * (kz + plz);
    }
  }
  // Denominators (not reciprocals) so the division matches the scalar
  // path bit for bit.
  den_x_ = static_cast<double>(std::max(1, d.x - 1));
  den_y_ = static_cast<double>(std::max(1, d.y - 1));
  den_z_ = static_cast<double>(std::max(1, d.z - 1));
  time_value_ = static_cast<double>(context.step) /
                std::max(1, context.num_steps - 1);
}

void FeatureBlockAssembler::assemble_feature_cols(const Index3* voxels,
                                                  int count, double* out,
                                                  int ld) const {
  IFET_REQUIRE(count == 0 || (voxels != nullptr && out != nullptr),
               "assemble_feature_cols: null block buffer");
  IFET_REQUIRE(ld >= count, "assemble_feature_cols: ld shorter than batch");
  const std::ptrdiff_t pdx = pdx_;
  const std::ptrdiff_t pdxy = pdxy_;
  // Chunk so the hoisted per-voxel base offsets live on the stack; within
  // a chunk every column write is one tight loop over voxels.
  constexpr int kChunk = 256;
  std::ptrdiff_t vb[kChunk];
  int run_start[kChunk];
  int run_len[kChunk];
  for (int v0 = 0; v0 < count; v0 += kChunk) {
    const int n = std::min(kChunk, count - v0);
    const Index3* vx = voxels + v0;
    int nruns = 0;
    if (spec_.use_shell) {
      for (int v = 0; v < n; ++v) {
        vb[v] = vx[v].x + pdx * vx[v].y + pdxy * vx[v].z;
      }
      // The classify sweeps feed x-fastest voxel lists, so a chunk is a
      // handful of maximal unit-stride runs (whole x-rows). Splitting the
      // chunk into those runs turns every tap's eight corner loads into
      // contiguous float loads (c[u], c[u+1], c[u+pdx], ...), which the
      // vectorizer handles — the indirect vb[v] gather it cannot.
      for (int v = 0; v < n;) {
        const int s = v++;
        while (v < n && vb[v] == vb[v - 1] + 1) ++v;
        run_start[nruns] = s;
        run_len[nruns] = v - s;
        ++nruns;
      }
    }
    int comp = 0;
    auto col_at = [&](int c) {
      return out + static_cast<std::size_t>(c) * ld + v0;
    };
    for (const Variable& var : vars_) {
      const VolumeF& field = *var.field;
      const double lo = var.lo;
      const double span = var.span;
      if (spec_.use_value) {
        double* col = col_at(comp++);
        for (int v = 0; v < n; ++v) {
          col[v] = clamp((field.clamped(vx[v].x, vx[v].y, vx[v].z) - lo) / span,
                         0.0, 1.0);
        }
      }
      if (!spec_.use_shell) continue;
      // Direction-outer: one tap's constant base offset and trilinear
      // weights stay in registers while the loop streams voxels. Same
      // arithmetic per (voxel, tap) as the lerp chain of Volume::sample.
      const float* pad = var.padded.data();
      for (const ShellTap& tap : taps_) {
        double* col = col_at(comp++);
        const std::ptrdiff_t tb = tap.base;
        const double fx = tap.fx, fy = tap.fy, fz = tap.fz;
        for (int rr = 0; rr < nruns; ++rr) {
          const int rs = run_start[rr];
          const int len = run_len[rr];
          const float* c = pad + vb[rs] + tb;
          double* o = col + rs;
          for (int u = 0; u < len; ++u) {
            const double c000 = c[u], c100 = c[u + 1];
            const double c010 = c[u + pdx], c110 = c[u + pdx + 1];
            const double c001 = c[u + pdxy], c101 = c[u + pdxy + 1];
            const double c011 = c[u + pdxy + pdx], c111 = c[u + pdxy + pdx + 1];
            const double c00 = lerp(c000, c100, fx);
            const double c10 = lerp(c010, c110, fx);
            const double c01 = lerp(c001, c101, fx);
            const double c11 = lerp(c011, c111, fx);
            const double s = lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz);
            o[u] = clamp((s - lo) / span, 0.0, 1.0);
          }
        }
      }
    }
    if (spec_.use_position) {
      double* cx = col_at(comp++);
      double* cy = col_at(comp++);
      double* cz = col_at(comp++);
      for (int v = 0; v < n; ++v) {
        cx[v] = static_cast<double>(vx[v].x) / den_x_;
        cy[v] = static_cast<double>(vx[v].y) / den_y_;
        cz[v] = static_cast<double>(vx[v].z) / den_z_;
      }
    }
    if (spec_.use_time) {
      double* col = col_at(comp++);
      for (int v = 0; v < n; ++v) col[v] = time_value_;
    }
    if (spec_.use_gradient) {
      for (const Variable& var : vars_) {
        double* col = col_at(comp++);
        for (int v = 0; v < n; ++v) {
          col[v] = clamp(
              gradient_at(*var.field, vx[v].x, vx[v].y, vx[v].z).norm() /
                  var.span,
              0.0, 1.0);
        }
      }
    }
  }
}

double derive_shell_radius(const Mask& positive_samples) {
  Labeling labeling = label_components(positive_samples);
  if (labeling.components.empty()) return 3.0;
  double mean_half_extent = 0.0;
  for (const auto& c : labeling.components) {
    double ex = c.bbox_max.x - c.bbox_min.x + 1;
    double ey = c.bbox_max.y - c.bbox_min.y + 1;
    double ez = c.bbox_max.z - c.bbox_min.z + 1;
    mean_half_extent += (ex + ey + ez) / 6.0;
  }
  mean_half_extent /= static_cast<double>(labeling.components.size());
  return clamp(mean_half_extent, 1.5, 6.0);
}

}  // namespace ifet
