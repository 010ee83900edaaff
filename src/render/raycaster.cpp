#include "render/raycaster.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "parallel/thread_pool.hpp"
#include "render/ray_packet.hpp"
#include "util/error.hpp"
#include "util/hot_path.hpp"
#include "util/timer.hpp"
#include "volume/ops.hpp"

namespace ifet {

namespace {

/// World-space box of a volume: largest axis spans [-0.5, 0.5].
struct WorldBox {
  Vec3 lo, hi;
  Vec3 scale;  ///< world -> voxel scale per axis

  explicit WorldBox(const Dims& d) {
    const double m = std::max({d.x, d.y, d.z});
    Vec3 half{0.5 * d.x / m, 0.5 * d.y / m, 0.5 * d.z / m};
    lo = -half;
    hi = half;
    scale = Vec3{d.x / (hi.x - lo.x), d.y / (hi.y - lo.y),
                 d.z / (hi.z - lo.z)};
  }
};

/// Image rows per task of the pooled render: small enough to balance an
/// image whose cost sits in a few bands, large enough to amortize a grab.
constexpr std::size_t kRenderChunkRows = 4;

inline std::uint8_t to_byte(double v) {
  return static_cast<std::uint8_t>(clamp(v, 0.0, 1.0) * 255.0 + 0.5);
}

/// Largest sample index n with t0 + n*dt <= t1. Both marching paths index
/// samples as t = t0 + i*dt (never an accumulated t += dt), so a brick
/// skip is an index jump that lands on EXACTLY the position the unskipped
/// march would have sampled — the root of the bitwise-identity contract.
IFET_HOT inline long march_last_index(double t0, double t1, double dt) {
  long n = static_cast<long>((t1 - t0) / dt);
  while (t0 + static_cast<double>(n + 1) * dt <= t1) ++n;
  while (n >= 0 && t0 + static_cast<double>(n) * dt > t1) --n;
  return n;
}

/// Per-ray brick traversal state for empty-space skipping.
///
/// Activity decisions use the affine form vox(t) = base + slope*t, which
/// mirrors Plan::to_voxel(origin + direction*t) up to FP rounding; the
/// one-brick dilation baked into the activity flags (BrickIndex::classify)
/// absorbs that disagreement — and the up-to-one-brick overshoot of the
/// analytic exit crossing — so any sample this walker skips is provably
/// transparent no matter which side of a brick face exact addressing puts
/// it on.
struct BrickWalk {
  const BrickIndex* bricks;
  const std::uint8_t* active;
  Dims grid;
  Dims vdims;
  int bsize;
  Vec3 base, slope;

  IFET_HOT BrickWalk(const Raycaster::Plan& plan, const Ray& ray)
      : bricks(plan.bricks.get()),
        active(plan.brick_active.data()),
        grid(plan.bricks->grid()),
        vdims(plan.bricks->volume_dims()),
        bsize(plan.bricks->brick_size()),
        base(plan.to_voxel(ray.origin)),
        slope(Vec3{ray.direction.x * plan.box_scale.x,
                   ray.direction.y * plan.box_scale.y,
                   ray.direction.z * plan.box_scale.z}) {}

  /// Brick coordinate of a continuous sample coordinate along one axis.
  /// Clamping matches the sampler: positions outside [0, extent-1] tap the
  /// border voxels, so they belong to the border bricks.
  IFET_HOT int cell(double v, int extent) const {
    int c = static_cast<int>(std::floor(v));
    if (c < 0) c = 0;
    if (c > extent - 1) c = extent - 1;
    return c / bsize;
  }

  /// Activity of the brick containing sample position vox(t); the brick
  /// coordinates are returned for the exit computation.
  IFET_HOT bool is_active(double t, int* bx, int* by, int* bz) const {
    *bx = cell(base.x + slope.x * t, vdims.x);
    *by = cell(base.y + slope.y * t, vdims.y);
    *bz = cell(base.z + slope.z * t, vdims.z);
    return active[bricks->brick_linear(*bx, *by, *bz)] != 0;
  }

  /// Analytic ray–brick interval clip: the first sample index after `i`
  /// whose position leaves brick (bx,by,bz). In continuous sample space
  /// the brick's cell spans [b*B, (b+1)*B) per axis (border cells extend
  /// outward through the sampler's clamp, which the crossings-ahead guard
  /// handles naturally). Always returns >= i+1, so the walk makes
  /// progress; an undershoot just re-skips, an overshoot is covered by the
  /// dilation margin.
  IFET_HOT long jump_index(double t0, double dt, long i, double t, int bx,
                           int by, int bz) const {
    const double kInf = std::numeric_limits<double>::infinity();
    double t_exit = kInf;
    const double b[3] = {static_cast<double>(bx), static_cast<double>(by),
                         static_cast<double>(bz)};
    const double s[3] = {slope.x, slope.y, slope.z};
    const double a[3] = {base.x, base.y, base.z};
    for (int axis = 0; axis < 3; ++axis) {
      if (s[axis] == 0.0) continue;
      const double boundary =
          (s[axis] > 0.0 ? b[axis] + 1.0 : b[axis]) * bsize;
      const double tc = (boundary - a[axis]) / s[axis];
      if (tc > t && tc < t_exit) t_exit = tc;
    }
    if (t_exit == kInf) return i + 1;
    const long j = static_cast<long>(std::ceil((t_exit - t0) / dt));
    return j > i ? j : i + 1;
  }
};

}  // namespace

ImageRgb8 Raycaster::render_step(const VolumeSequence& sequence, int step,
                                 const TransferFunction1D& tf,
                                 const ColorMap& colors, const Camera& camera,
                                 const HighlightLayer* highlight,
                                 RenderStats* stats,
                                 bool prefetch_next) const {
  if (prefetch_next) sequence.prefetch_hint(step + 1);
  // The step first: its fetch settles whether the step is quarantined, so
  // the index below describes the voxels actually served (a substitute's
  // under nearest-good). Ingest-time brick metadata when the sequence
  // serves it (v2 .cvol via the streaming tier); the plan rebuilds from
  // the volume otherwise.
  const VolumeF& volume = sequence.step(step);
  std::shared_ptr<const BrickIndex> bricks =
      settings_.empty_space_skipping ? sequence.brick_index(step) : nullptr;
  return render_impl(volume, tf, colors, camera, highlight, nullptr, stats,
                     std::move(bricks));
}

Raycaster::Raycaster(const RenderSettings& settings) : settings_(settings) {
  IFET_REQUIRE(settings_.width > 0 && settings_.height > 0,
               "Raycaster: image dimensions must be positive");
  IFET_REQUIRE(settings_.step_voxels > 0.0,
               "Raycaster: step size must be positive");
}

ImageRgb8 Raycaster::render(const VolumeF& volume,
                            const TransferFunction1D& tf,
                            const ColorMap& colors, const Camera& camera,
                            const HighlightLayer* highlight,
                            RenderStats* stats) const {
  return render_impl(volume, tf, colors, camera, highlight, nullptr, stats);
}

ImageRgb8 Raycaster::render_classified(const VolumeF& volume,
                                       const VolumeF& certainty,
                                       const TransferFunction1D& tf,
                                       const ColorMap& colors,
                                       const Camera& camera,
                                       RenderStats* stats) const {
  IFET_REQUIRE(certainty.dims() == volume.dims(),
               "Raycaster: certainty volume dimension mismatch");
  return render_impl(volume, tf, colors, camera, nullptr, &certainty, stats);
}

IFET_DETERMINISTIC Raycaster::Plan Raycaster::prepare_plan(
    const VolumeF& volume, const TransferFunction1D& tf,
    const ColorMap& colors, const Camera& camera,
    const HighlightLayer* highlight, const VolumeF* certainty,
    std::shared_ptr<const BrickIndex> bricks) const {
  if (highlight != nullptr) {
    IFET_REQUIRE(highlight->mask != nullptr && highlight->tf != nullptr,
                 "Raycaster: highlight layer needs mask and TF");
    IFET_REQUIRE(highlight->mask->dims() == volume.dims(),
                 "Raycaster: highlight mask dimension mismatch");
  }
  if (certainty != nullptr) {
    IFET_REQUIRE(certainty->dims() == volume.dims(),
                 "Raycaster: certainty volume dimension mismatch");
  }
  const Dims d = volume.dims();
  const WorldBox box(d);
  Plan plan;
  plan.volume = &volume;
  plan.tf = &tf;
  plan.colors = &colors;
  plan.camera = &camera;
  plan.highlight = highlight;
  plan.certainty = certainty;
  plan.box_lo = box.lo;
  plan.box_hi = box.hi;
  plan.box_scale = box.scale;
  // Step length in world units: step_voxels voxels of the largest axis.
  const double max_dim = std::max({d.x, d.y, d.z});
  plan.dt = settings_.step_voxels / max_dim;
  plan.value_span = tf.value_hi() - tf.value_lo();
  plan.light_dir = (camera.position() - Vec3{0, 0, 0}).normalized();
  for (int e = 0; e < TransferFunction1D::kEntries; ++e) {
    const auto slot = static_cast<std::size_t>(e);
    plan.corrected[slot] =
        1.0 - std::pow(1.0 - tf.opacity_entry(e), settings_.step_voxels);
    if (highlight != nullptr) {
      plan.highlight_corrected[slot] =
          1.0 - std::pow(1.0 - highlight->tf->opacity_entry(e),
                         settings_.step_voxels);
    }
  }
  if (settings_.empty_space_skipping) {
    if (bricks == nullptr) {
      // No stored brick section (a procedural source, or a direct
      // render() call): one extra volume pass.
      bricks = std::make_shared<const BrickIndex>(BrickIndex::build(volume));
    }
    IFET_REQUIRE(bricks->volume_dims() == d,
                 "Raycaster: brick index dimension mismatch");
    plan.bricks = std::move(bricks);
    // Fold the frame's TF into per-brick activity once; render_rows then
    // clips inactive bricks out of every ray analytically.
    if (highlight != nullptr) {
      plan.bricks->classify_with_highlight(tf, *highlight->mask,
                                           *highlight->tf, plan.brick_active);
    } else {
      plan.bricks->classify(tf, plan.brick_active);
    }
  }
  return plan;
}

IFET_HOT IFET_DETERMINISTIC void Raycaster::render_rows(const Plan& plan, int row0, int row1,
                                     ImageRgb8& image,
                                     RenderRowCounters& counters) const {
  const VolumeF& volume = *plan.volume;
  const TransferFunction1D& tf = *plan.tf;
  const ColorMap& colors = *plan.colors;
  const Camera& camera = *plan.camera;
  const HighlightLayer* highlight = plan.highlight;
  const VolumeF* certainty = plan.certainty;
  const double dt = plan.dt;
  const double value_span = plan.value_span;
  const Vec3 light_dir = plan.light_dir;

  // Brick skipping engages when the plan carries classified metadata; a
  // plan built with empty_space_skipping = false marches every sample.
  const bool skipping = plan.bricks != nullptr && !plan.brick_active.empty();
  RayPacket packet;  // caller-owned SoA scratch: fixed-size, stack-local

  std::size_t local_samples = 0;
  std::size_t local_early = 0;
  std::size_t local_skipped = 0;
  for (int y = row0; y < row1; ++y) {
    for (int x = 0; x < settings_.width; ++x) {
      Ray ray = camera.pixel_ray(x, y, settings_.width, settings_.height);
      double t0, t1;
      Rgb accum = {0, 0, 0};
      double alpha = 0.0;
      if (intersect_box(ray, plan.box_lo, plan.box_hi, t0, t1)) {
        const long n = march_last_index(t0, t1, dt);
        if (skipping) {
          // Brick path: clip inactive bricks analytically, composite the
          // surviving runs through the SoA packet kernel. Bitwise
          // identical to the scalar march below (see ray_packet.hpp).
          const BrickWalk walk(plan, ray);
          long i = 0;
          bool terminated = false;
          while (i <= n && !terminated) {
            const double t = t0 + static_cast<double>(i) * dt;
            int bx, by, bz;
            if (!walk.is_active(t, &bx, &by, &bz)) {
              const long j =
                  std::min(walk.jump_index(t0, dt, i, t, bx, by, bz), n + 1);
              local_skipped += static_cast<std::size_t>(j - i);
              i = j;
              continue;
            }
            // Extend the run while samples stay in active bricks.
            int count = 1;
            while (count < RayPacket::kLanes && i + count <= n &&
                   walk.is_active(t0 + static_cast<double>(i + count) * dt,
                                  &bx, &by, &bz)) {
              ++count;
            }
            local_samples += static_cast<std::size_t>(
                composite_packet(plan, settings_, ray, t0, i, count, packet,
                                 alpha, accum, terminated));
            i += count;
          }
          if (terminated) ++local_early;
        } else {
          for (long i = 0; i <= n; ++i) {
            const double t = t0 + static_cast<double>(i) * dt;
            Vec3 world = ray.origin + ray.direction * t;
            Vec3 vox = plan.to_voxel(world);
            double value = volume.sample_inline(vox.x, vox.y, vox.z);
            ++local_samples;

            double a;
            Rgb color;
            bool highlighted = false;
            if (highlight != nullptr) {
              // Nearest-voxel lookup in the region-growing texture.
              int hi_i = static_cast<int>(std::lround(vox.x));
              int hi_j = static_cast<int>(std::lround(vox.y));
              int hi_k = static_cast<int>(std::lround(vox.z));
              highlighted = highlight->mask->clamped(hi_i, hi_j, hi_k) != 0;
            }
            if (highlighted) {
              a = highlight->tf->opacity(value);
              color = highlight->color;
            } else {
              a = tf.opacity(value);
              if (certainty != nullptr) {
                // Pre-classified pass: the network's certainty gates
                // the opacity, color stays tied to the data value.
                a *= certainty->sample_inline(vox.x, vox.y, vox.z);
              }
              double norm =
                  value_span > 0.0
                      ? clamp((value - tf.value_lo()) / value_span, 0.0, 1.0)
                      : 0.0;
              color = colors.at(norm);
            }
            if (a <= 0.0) continue;
            a = 1.0 - std::pow(1.0 - a, settings_.step_voxels);

            if (settings_.shading) {
              int gi = static_cast<int>(std::lround(vox.x));
              int gj = static_cast<int>(std::lround(vox.y));
              int gk = static_cast<int>(std::lround(vox.z));
              Vec3 g = gradient_at(volume, gi, gj, gk);
              double gn = g.norm();
              double shade = kPhongAmbient;
              if (gn > 1e-9) {
                Vec3 normal = g / gn;
                double ndotl = std::fabs(normal.dot(light_dir));
                shade += kPhongDiffuse * ndotl;
                // Headlight specular (view == light direction).
                double spec = std::pow(ndotl, kPhongSpecularPower);
                shade += kPhongSpecular * spec;
              } else {
                shade += kPhongDiffuse * 0.5;
              }
              color.r *= shade;
              color.g *= shade;
              color.b *= shade;
            }

            const double w = (1.0 - alpha) * a;
            accum.r += w * color.r;
            accum.g += w * color.g;
            accum.b += w * color.b;
            alpha += w;
            if (alpha >= kEarlyTerminationAlpha) {
              ++local_early;
              break;
            }
          }
        }
      }
      image.set(x, y, to_byte(accum.r), to_byte(accum.g), to_byte(accum.b));
    }
  }
  counters.samples += local_samples;
  counters.terminated_early += local_early;
  counters.samples_skipped += local_skipped;
}

ImageRgb8 Raycaster::render_impl(const VolumeF& volume,
                                 const TransferFunction1D& tf,
                                 const ColorMap& colors, const Camera& camera,
                                 const HighlightLayer* highlight,
                                 const VolumeF* certainty, RenderStats* stats,
                                 std::shared_ptr<const BrickIndex> bricks)
    const {
  Stopwatch watch;
  const Plan plan = prepare_plan(volume, tf, colors, camera, highlight,
                                 certainty, std::move(bricks));
  ImageRgb8 image(settings_.width, settings_.height);

  std::atomic<std::size_t> total_samples{0};
  std::atomic<std::size_t> early{0};
  std::atomic<std::size_t> skipped{0};

  // Dynamic row chunks: a row's cost follows the volume's footprint, which
  // the middle rows hold, so equal static bands would idle the workers
  // that drew the edge bands.
  ThreadPool::global().parallel_for_dynamic(
      0, static_cast<std::size_t>(settings_.height), kRenderChunkRows,
      [&](std::size_t row0, std::size_t row1) {
        RenderRowCounters counters;
        render_rows(plan, static_cast<int>(row0), static_cast<int>(row1),
                    image, counters);
        total_samples += counters.samples;
        early += counters.terminated_early;
        skipped += counters.samples_skipped;
      });

  if (stats != nullptr) {
    stats->rays = static_cast<std::size_t>(settings_.width) *
                  static_cast<std::size_t>(settings_.height);
    stats->samples = total_samples.load();
    stats->terminated_early = early.load();
    stats->seconds = watch.seconds();
    stats->samples_skipped = skipped.load();
    stats->bricks_total = plan.bricks ? plan.bricks->num_bricks() : 0;
    stats->bricks_active = 0;
    for (std::uint8_t flag : plan.brick_active) {
      stats->bricks_active += flag != 0 ? 1 : 0;
    }
  }
  return image;
}

ImageRgb8 render_slice(const VolumeF& volume, int axis, int slice,
                       const TransferFunction1D& tf, const ColorMap& colors) {
  IFET_REQUIRE(axis >= 0 && axis <= 2, "render_slice: axis must be 0..2");
  const Dims d = volume.dims();
  int width = 0, height = 0, extent = 0;
  switch (axis) {
    case 0: width = d.y; height = d.z; extent = d.x; break;
    case 1: width = d.x; height = d.z; extent = d.y; break;
    default: width = d.x; height = d.y; extent = d.z; break;
  }
  // Validate once up front: every (i,j,k) below is then in bounds by
  // construction, so the pixel loop uses the unchecked accessor instead of
  // re-proving the same containment width*height times.
  IFET_REQUIRE(slice >= 0 && slice < extent,
               "render_slice: slice out of range");
  ImageRgb8 image(width, height);
  const double span = tf.value_hi() - tf.value_lo();
  for (int row = 0; row < height; ++row) {
    for (int col = 0; col < width; ++col) {
      int i = 0, j = 0, k = 0;
      switch (axis) {
        case 0: i = slice; j = col; k = row; break;
        case 1: i = col; j = slice; k = row; break;
        default: i = col; j = row; k = slice; break;
      }
      double value = volume[volume.linear_index(i, j, k)];
      double a = tf.opacity(value);
      double norm = span > 0.0
                        ? clamp((value - tf.value_lo()) / span, 0.0, 1.0)
                        : 0.0;
      Rgb c = colors.at(norm);
      image.set(col, row, to_byte(c.r * a), to_byte(c.g * a),
                to_byte(c.b * a));
    }
  }
  return image;
}

}  // namespace ifet
