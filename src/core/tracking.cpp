#include "core/tracking.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace ifet {

AdaptiveTfCriterion::AdaptiveTfCriterion(const Iatf& iatf, double opacity_cut,
                                         DerivedCache* derived)
    : iatf_(iatf), opacity_cut_(opacity_cut), derived_(derived) {}

const TransferFunction1D& AdaptiveTfCriterion::tf_for(int step) const {
  auto it = tf_cache_.find(step);
  if (it == tf_cache_.end()) {
    std::shared_ptr<const TransferFunction1D> tf;
    if (derived_ != nullptr) {
      tf = derived_->transfer_function(step, iatf_.params_hash(),
                                       [&] { return iatf_.evaluate(step); });
    } else {
      tf = std::make_shared<const TransferFunction1D>(iatf_.evaluate(step));
    }
    it = tf_cache_.emplace(step, std::move(tf)).first;
  }
  return *it->second;
}

StepCriterion AdaptiveTfCriterion::at_step(int step) const {
  return StepCriterion::opacity_at_least(tf_for(step), opacity_cut_);
}

std::size_t TrackResult::voxels_at(int step) const {
  auto it = masks.find(step);
  return it == masks.end() ? 0 : mask_count(it->second);
}

int TrackResult::first_step() const {
  IFET_REQUIRE(!masks.empty(), "TrackResult: empty track");
  return masks.begin()->first;
}

int TrackResult::last_step() const {
  IFET_REQUIRE(!masks.empty(), "TrackResult: empty track");
  return masks.rbegin()->first;
}

Tracker::Tracker(const VolumeSequence& sequence,
                 const TrackingCriterion& criterion,
                 const TrackerConfig& config)
    : sequence_(sequence), criterion_(criterion), config_(config) {
  IFET_REQUIRE(config_.min_step < 0 || config_.max_step < 0 ||
                   config_.min_step <= config_.max_step,
               "Tracker: min_step must not exceed max_step");
}

TrackResult Tracker::track(Index3 seed, int seed_step) const {
  IFET_REQUIRE(sequence_.dims().contains(seed), "Tracker: seed out of range");
  return grow_track(seed_step, nullptr, seed);
}

TrackResult Tracker::track_from_mask(const Mask& seeds, int seed_step) const {
  IFET_REQUIRE(seeds.dims() == sequence_.dims(),
               "Tracker: seed mask dimension mismatch");
  return grow_track(seed_step, &seeds, Index3{});
}

namespace {

constexpr int kWordBits = 64;
/// Floats per cache line; rows shorter than a word are tested in blocks
/// of this many.
constexpr int kCacheLineFloats = 16;

/// The voxels of word `w` of a row of `nx`: 64, or fewer in the last word.
int word_voxels(int nx, std::uint32_t w) {
  return std::min(kWordBits, nx - static_cast<int>(w) * kWordBits);
}

/// kSpread[b] has byte j equal to bit j of b.
constexpr std::array<std::uint64_t, 256> kSpread = [] {
  std::array<std::uint64_t, 256> table{};
  for (std::size_t b = 0; b < table.size(); ++b) {
    for (int j = 0; j < 8; ++j) {
      table[b] |= static_cast<std::uint64_t>((b >> j) & 1u) << (8 * j);
    }
  }
  return table;
}();

/// Sets bytes[i] to 1 for every set bit i of `bits`, whose bits n and up
/// are 0; those bytes are 0 before.
void write_mask_bits(std::uint8_t* bytes, std::uint64_t bits, int n) {
  for (int i = 0; bits != 0; i += 8, bits >>= 8) {
    const std::uint64_t byte = bits & 0xFFu;
    if (byte == 0) continue;
    if (i + 8 <= n) {
      std::uint64_t word;
      std::memcpy(&word, bytes + i, sizeof(word));
      word |= kSpread[byte];
      std::memcpy(bytes + i, &word, sizeof(word));
    } else {
      for (int j = 0; j < 8; ++j) {
        if ((byte >> j) & 1u) bytes[i + j] = 1;
      }
    }
  }
}

/// Set bits of `x`, counted in registers: std::popcount is a library call
/// on targets without a popcount instruction.
std::size_t count_bits(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<std::size_t>((x * 0x0101010101010101ull) >> 56);
}

/// The bits of `open` reached from `seeds` (a subset of `open`) by moving
/// toward higher bits through open bits: an occluded Kogge-Stone fill.
std::uint64_t fill_up(std::uint64_t seeds, std::uint64_t open) {
  seeds |= open & (seeds << 1);
  open &= open << 1;
  seeds |= open & (seeds << 2);
  open &= open << 2;
  seeds |= open & (seeds << 4);
  open &= open << 4;
  seeds |= open & (seeds << 8);
  open &= open << 8;
  seeds |= open & (seeds << 16);
  open &= open << 16;
  return seeds | (open & (seeds << 32));
}

/// fill_up toward lower bits.
std::uint64_t fill_down(std::uint64_t seeds, std::uint64_t open) {
  seeds |= open & (seeds >> 1);
  open &= open >> 1;
  seeds |= open & (seeds >> 2);
  open &= open >> 2;
  seeds |= open & (seeds >> 4);
  open &= open >> 4;
  seeds |= open & (seeds >> 8);
  open &= open >> 8;
  seeds |= open & (seeds >> 16);
  open &= open >> 16;
  return seeds | (open & (seeds >> 32));
}

/// Calls `f(i)` for every set bit i of the bitmap `words`, in increasing
/// order, after calling `prefetch(i)` for the bits of the same word.
template <typename P, typename F>
void for_each_bit(const std::vector<std::uint64_t>& words, const P& prefetch,
                  const F& f) {
  for (std::size_t w = 0; w < words.size(); ++w) {
    const auto bit = [w](std::uint64_t bits) {
      return static_cast<std::uint32_t>(
          w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits)));
    };
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      prefetch(bit(bits));
    }
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      f(bit(bits));
    }
  }
}

/// for_each_bit without a prefetch.
template <typename F>
void for_each_bit(const std::vector<std::uint64_t>& words, const F& f) {
  for_each_bit(words, [](std::uint32_t) {}, f);
}

/// Words of a bitmap with one bit per row.
std::size_t row_bitmap_words(std::size_t rows) {
  return (rows + kWordBits - 1) / kWordBits;
}

/// The pinned window leans ahead of the step in the sweep direction: one
/// step behind, kWindowAhead ahead, so the steps the sweep is about to
/// grow are already loading while it grows this one.
constexpr int kWindowAhead = 3;

}  // namespace

/// One step's rows as bit words during a visit. Row r = y + ny * z has
/// `words` words of each kind, side by side (open, seeds, added); bit i of
/// word w is voxel x = 64 * w + i, and bits at x >= nx are always 0. A row
/// is built on its first touch in a visit, so a visit costs the rows it
/// touches plus bitmaps of one bit per row; the buffers are sized once per
/// track.
struct Tracker::StepRows {
  int nx = 0;
  std::uint32_t ny = 0, nz = 0;
  std::uint32_t words = 0;  ///< Per row and kind.

  const VolumeF* volume = nullptr;
  Mask* mask = nullptr;
  StepCriterion::Rows accept;
  bool mask_empty = false;  ///< The mask held no voxel when the visit began.

  std::vector<std::uint64_t> state;  ///< Per row: open, seeds, added.
  std::vector<std::uint64_t> built;  ///< One bit per row built this visit.
  std::vector<std::uint64_t> grown;  ///< One bit per row filled this visit.
  std::vector<std::uint32_t> stack;  ///< Rows whose seeds are nonzero.
  std::vector<std::uint64_t> fill;   ///< One row's fill.
  std::size_t stack_count = 0;

  explicit StepRows(Dims d)
      : nx(d.x),
        ny(static_cast<std::uint32_t>(d.y)),
        nz(static_cast<std::uint32_t>(d.z)),
        words(static_cast<std::uint32_t>((d.x + kWordBits - 1) / kWordBits)),
        state(static_cast<std::size_t>(ny) * nz * 3 * words),
        built(row_bitmap_words(static_cast<std::size_t>(ny) * nz)),
        grown(built.size()),
        stack(static_cast<std::size_t>(ny) * nz),
        fill(words) {}

  /// Accepted voxels not in the mask.
  std::uint64_t* open(std::uint32_t r) {
    return state.data() + static_cast<std::size_t>(r) * 3 * words;
  }
  /// Queued bits, a subset of open.
  std::uint64_t* seeds(std::uint32_t r) { return open(r) + words; }
  /// Filled during this visit.
  std::uint64_t* added(std::uint32_t r) { return open(r) + 2 * words; }

  bool is_built(std::uint32_t r) const {
    return ((built[r / kWordBits] >> (r % kWordBits)) & 1u) != 0;
  }

  /// Starts a visit of a step whose mask is `m`; no row is built yet.
  void begin(const VolumeF& v, Mask& m, const StepCriterion& a,
             bool m_empty) {
    volume = &v;
    mask = &m;
    accept = a.rows();
    mask_empty = m_empty;
    std::fill(built.begin(), built.end(), std::uint64_t{0});
    std::fill(grown.begin(), grown.end(), std::uint64_t{0});
    stack_count = 0;
  }

  /// Starts loading row `r`'s voxels (and mask bytes, unless the mask is
  /// empty) when the row is not built yet, so that building several rows
  /// waits on their memory once rather than once per row.
  void prefetch(std::uint32_t r) const {
    if (is_built(r)) return;
    const std::size_t base =
        static_cast<std::size_t>(r) * static_cast<std::size_t>(nx);
    for (int x = 0; x < nx; x += kCacheLineFloats) {
      __builtin_prefetch(volume->data().data() + base +
                         static_cast<std::size_t>(x));
    }
    if (!mask_empty) __builtin_prefetch(mask->data().data() + base);
  }

  /// Builds row `r` on its first touch this visit: open bits are the
  /// accepted voxels not in the mask; no seeds, nothing added.
  void touch(std::uint32_t r) {
    if (is_built(r)) return;
    built[r / kWordBits] |= std::uint64_t{1} << (r % kWordBits);
    const std::size_t base =
        static_cast<std::size_t>(r) * static_cast<std::size_t>(nx);
    const float* values = volume->data().data() + base;
    const std::uint8_t* bytes = mask->data().data() + base;
    std::uint64_t* row = open(r);
    for (std::uint32_t w = 0; w < words; ++w) {
      const int n = word_voxels(nx, w);
      const std::size_t at = static_cast<std::size_t>(w) * kWordBits;
      std::uint64_t bits = accept.accept_bits(values + at, n);
      if (!mask_empty) bits &= ~mask_bits(bytes + at, n);
      row[w] = bits;              // open
      row[words + w] = 0;         // seeds
      row[2 * words + w] = 0;     // added
    }
  }

  /// Queues the open bits of `bits` at row `r`, pushing the row when it
  /// had no seeds.
  void seed(std::uint32_t r, const std::uint64_t* bits) {
    touch(r);
    const std::uint64_t* open_bits = open(r);
    std::uint64_t* seed_bits = seeds(r);
    std::uint64_t before = 0, after = 0;
    for (std::uint32_t w = 0; w < words; ++w) {
      before |= seed_bits[w];
      seed_bits[w] |= bits[w] & open_bits[w];
      after |= seed_bits[w];
    }
    if (before == 0 && after != 0) stack[stack_count++] = r;
  }
};

/// One step's candidate bits waiting for its visit (`words` per row) and
/// a bitmap of the rows holding any. Its buffers are taken when the step
/// is first seeded and handed back, cleared, when it is consumed.
struct Tracker::PendingRows {
  std::uint32_t words = 0;
  std::vector<std::uint64_t> bits;
  std::vector<std::uint64_t> rows;
  std::size_t count = 0;  ///< Rows holding bits.

  const std::uint64_t* row(std::uint32_t r) const {
    return bits.data() + static_cast<std::size_t>(r) * words;
  }

  /// ORs `add` into row `r`.
  void add(std::uint32_t r, const std::uint64_t* add) {
    std::uint64_t* out = bits.data() + static_cast<std::size_t>(r) * words;
    std::uint64_t before = 0, after = 0;
    for (std::uint32_t w = 0; w < words; ++w) {
      before |= out[w];
      out[w] |= add[w];
      after |= out[w];
    }
    if (before == 0 && after != 0) {
      rows[r / kWordBits] |= std::uint64_t{1} << (r % kWordBits);
      ++count;
    }
  }

  /// Clears the rows holding bits, leaving every word 0.
  void clear() {
    for_each_bit(rows, [&](std::uint32_t r) {
      std::fill_n(bits.begin() + static_cast<std::ptrdiff_t>(r) * words,
                  words, std::uint64_t{0});
    });
    std::fill(rows.begin(), rows.end(), std::uint64_t{0});
    count = 0;
  }
};

namespace {

/// The next step holding pending candidates in the sweep through `step`
/// along `dir`, turning `dir` around when none lies ahead; -1 when no step
/// is pending. `has_rows(i)` tells whether step lo + i is pending.
template <typename HasRows>
int next_pending_step(int n, int lo, int step, int& dir,
                      const HasRows& has_rows) {
  for (int turn = 0; turn < 2; ++turn) {
    for (int i = step - lo + dir; i >= 0 && i < n; i += dir) {
      if (has_rows(i)) return lo + i;
    }
    dir = -dir;
  }
  return -1;
}

}  // namespace

TrackResult Tracker::grow_track(int seed_step, const Mask* seeds,
                                Index3 seed) const {
  const Dims d = sequence_.dims();
  IFET_REQUIRE(d.count() <= UINT32_MAX,
               "Tracker: steps over 2^32 voxels are not supported");
  const int lo_step = config_.min_step >= 0 ? config_.min_step : 0;
  const int hi_step =
      config_.max_step >= 0 ? config_.max_step : sequence_.num_steps() - 1;
  IFET_REQUIRE(seed_step >= lo_step && seed_step <= hi_step,
               "Tracker: seed step outside tracking window");

  TrackResult result;
  // The rows of the step being grown, and of the step grown just before
  // (last_step). That step's volume stays pinned while the window holds
  // it, which it does whenever it neighbors the step being grown.
  StepRows cur(d), last(d);
  int last_step = -1;
  const std::uint32_t words = cur.words;
  const std::size_t rows = static_cast<std::size_t>(cur.ny) * cur.nz;

  // Per-step candidate bits, indexed by step - lo_step; a candidate costs
  // one criterion check, made when its step is grown or, for the step
  // grown last, when it is seeded. Consumed buffers wait in `spare`.
  std::vector<PendingRows> pending(
      static_cast<std::size_t>(hi_step - lo_step + 1));
  std::vector<PendingRows> spare;
  const auto pending_at = [&](int step) -> PendingRows& {
    PendingRows& p = pending[static_cast<std::size_t>(step - lo_step)];
    if (p.bits.empty()) {
      if (spare.empty()) {
        p.words = words;
        p.bits.assign(rows * words, 0);
        p.rows.assign(row_bitmap_words(rows), 0);
      } else {
        p = std::move(spare.back());
        spare.pop_back();
      }
    }
    return p;
  };
  const auto recycle = [&](PendingRows&& p) {
    p.clear();
    spare.push_back(std::move(p));
  };

  {
    PendingRows& first = pending_at(seed_step);
    std::vector<std::uint64_t> row(words);
    if (seeds == nullptr) {
      row[static_cast<std::size_t>(seed.x / kWordBits)] =
          std::uint64_t{1} << (seed.x % kWordBits);
      first.add(static_cast<std::uint32_t>(seed.y) +
                    cur.ny * static_cast<std::uint32_t>(seed.z),
                row.data());
    } else {
      const std::uint8_t* bytes = seeds->data().data();
      for (std::uint32_t r = 0; r < rows; ++r) {
        for (std::uint32_t w = 0; w < words; ++w) {
          row[w] = mask_bits(bytes + static_cast<std::size_t>(r) * d.x +
                                 static_cast<std::size_t>(w) * kWordBits,
                             word_voxels(d.x, w));
        }
        first.add(r, row.data());
      }
    }
  }

  // Adds the candidate bits `bits_of(r)` of the rows r set in `source_rows`
  // to step `next`'s candidates, minus the voxels `next` already holds.
  // When `next` is the step grown last, its criterion checks them now and
  // only accepted ones wait for a revisit: the revisit would reject the
  // others the same way, so the fixpoint is unchanged and most revisits
  // behind the sweep never happen.
  std::vector<std::uint64_t> kept(words);
  const auto seed_step_with = [&](int next,
                                  const std::vector<std::uint64_t>& source_rows,
                                  const auto& bits_of) {
    if (next < lo_step || next > hi_step) return;
    auto visited = result.masks.find(next);
    const Mask* mask =
        visited == result.masks.end() ? nullptr : &visited->second;
    const bool check = next == last_step;
    PendingRows* out = nullptr;
    const auto prefetch = [&](std::uint32_t r) {
      if (check) last.prefetch(r);
    };
    for_each_bit(source_rows, prefetch, [&](std::uint32_t r) {
      const std::uint64_t* bits = bits_of(r);
      std::uint64_t any = 0;
      for (std::uint32_t w = 0; w < words; ++w) any |= bits[w];
      if (any == 0) return;
      if (check) last.touch(r);
      any = 0;
      for (std::uint32_t w = 0; w < words; ++w) {
        std::uint64_t keep = bits[w];
        if (check) {
          keep &= last.open(r)[w];
        } else if (mask != nullptr && keep != 0) {
          keep &= ~mask_bits(mask->data().data() +
                                 static_cast<std::size_t>(r) * d.x +
                                 static_cast<std::size_t>(w) * kWordBits,
                             word_voxels(d.x, w));
        }
        kept[w] = keep;
        any |= keep;
      }
      if (any == 0) return;
      if (out == nullptr) out = &pending_at(next);
      out->add(r, kept.data());
    });
  };

  // Voxels added per step (indexed by step - lo_step): a step's mask is
  // non-empty exactly when this is.
  std::vector<std::size_t> voxels_added(pending.size(), 0);
  const auto has_rows = [&](int i) {
    return pending[static_cast<std::size_t>(i)].count != 0;
  };
  // Monotone sweeps from the seed step: forward while pending steps lie
  // ahead, then back. Growing reaches the same 4D fixpoint in any step
  // order; a sweep keeps the stream's lookahead pointing one way instead
  // of flipping on every step. The seed step is processed first even
  // without seeds.
  int dir = 1;
  for (int step = seed_step; step >= 0;
       step = next_pending_step(static_cast<int>(pending.size()), lo_step,
                                step, dir, has_rows)) {
    PendingRows candidates =
        std::exchange(pending[static_cast<std::size_t>(step - lo_step)], {});

    // Out-of-core: pin the window around the step, leaning ahead in the
    // sweep direction, so the reference below stays valid and the next
    // steps of the sweep are already loading while we grow within this one.
    const int behind = dir > 0 ? 1 : kWindowAhead;
    const int ahead = dir > 0 ? kWindowAhead : 1;
    sequence_.hint_window(std::max(lo_step, step - behind),
                          std::min(hi_step, step + ahead));
    const VolumeF* volume_ptr = sequence_.try_step(step);
    if (volume_ptr == nullptr) {
      // Quarantined data under FailPolicy::kSkipStep: the step contributes
      // zero overlap and no mask. Forward the candidates one step further
      // from the seed so the region re-seeds on the far side of the gap
      // (consecutive bad steps keep forwarding; docs/ROBUSTNESS.md).
      IFET_REQUIRE(step != seed_step,
                   "Tracker: seed step " + std::to_string(step) +
                       " is unavailable");
      last_step = -1;
      seed_step_with(
          step >= seed_step ? step + 1 : step - 1, candidates.rows,
          [&](std::uint32_t r) { return candidates.row(r); });
      recycle(std::move(candidates));
      continue;
    }
    Mask& mask = result.masks.try_emplace(step, d).first->second;
    std::size_t& step_voxels =
        voxels_added[static_cast<std::size_t>(step - lo_step)];

    // Fill within this step from every open candidate, row by row in
    // increasing order, with the criterion resolved once for the step.
    cur.begin(*volume_ptr, mask, criterion_.at_step(step), step_voxels == 0);
    for_each_bit(
        candidates.rows, [&](std::uint32_t r) { cur.prefetch(r); },
        [&](std::uint32_t r) { cur.seed(r, candidates.row(r)); });
    recycle(std::move(candidates));
    const std::size_t added = grow_step(cur);
    step_voxels += added;

    // Temporal propagation: every voxel added at this step seeds the same
    // position at t-1 and t+1 (the 4D connectivity).
    if (added != 0) {
      const auto added_bits = [&](std::uint32_t r) { return cur.added(r); };
      seed_step_with(step - 1, cur.grown, added_bits);
      seed_step_with(step + 1, cur.grown, added_bits);
    }
    std::swap(cur, last);
    last_step = step;
  }

  // Drop steps the region never actually reached.
  for (auto it = result.masks.begin(); it != result.masks.end();) {
    if (voxels_added[static_cast<std::size_t>(it->first - lo_step)] == 0) {
      it = result.masks.erase(it);
    } else {
      ++it;
    }
  }
  return result;
}

namespace {

/// The smallest float f with f >= x (x not NaN).
float float_at_least(double x) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kMax = std::numeric_limits<float>::max();
  if (x > kMax) return kInf;
  if (x < -kMax) return x == -kInf ? -kInf : -kMax;
  float f = static_cast<float>(x);
  if (static_cast<double>(f) < x) f = std::nextafter(f, kInf);
  return f;
}

/// The largest float f with f <= x (x not NaN).
float float_at_most(double x) {
  return -float_at_least(-x);
}

/// Every float but NaN in increasing order, from -inf through -0 and +0 to
/// +inf: index k < kNegativeFloats is a negative float (or -0).
constexpr std::uint32_t kNegativeFloats = 0x7F800001u;
constexpr std::uint32_t kOrderedFloats = 2 * kNegativeFloats;

float ordered_float(std::uint32_t k) {
  return std::bit_cast<float>(k < kNegativeFloats ? 0xFF800000u - k
                                                  : k - kNegativeFloats);
}

/// The index of the first float whose entry in `tf` is at least `e`, or
/// kOrderedFloats when none is. entry_of is monotone in the value: each of
/// its steps (subtract lo, divide by hi - lo > 0, scale, floor, clamp) is.
std::uint32_t first_at_entry(const TransferFunction1D& tf, int e) {
  std::uint32_t lo = 0, hi = kOrderedFloats;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (tf.entry_of(ordered_float(mid)) >= e) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// `StepCriterion::Rows` spans as a test on blocks of kBlock floats: byte
/// flags first, in loops a compiler vectorizes, then packed 8 at a time.
template <int kBlock>
std::uint64_t span_block_bits(const float* values,
                              const std::array<float, 2>* spans, int count,
                              bool nan) {
  std::array<std::uint8_t, kBlock> flags{};
  for (int s = 0; s < count; ++s) {
    const float lo = spans[s][0];
    const float hi = spans[s][1];
    for (int i = 0; i < kBlock; ++i) {
      flags[static_cast<std::size_t>(i)] |=
          static_cast<std::uint8_t>((values[i] >= lo) & (values[i] <= hi));
    }
  }
  if (nan) {
    for (int i = 0; i < kBlock; ++i) {
      flags[static_cast<std::size_t>(i)] |=
          static_cast<std::uint8_t>(values[i] != values[i]);
    }
  }
  return pack_flags(flags.data(), kBlock);
}

}  // namespace

StepCriterion::Rows StepCriterion::rows() const {
  Rows rows;
  if (tf_ == nullptr) {
    if (lo_ <= hi_) {  // false for a NaN bound, which accepts nothing
      const float lo = float_at_least(lo_);
      const float hi = float_at_most(hi_);
      if (lo <= hi) {
        rows.spans_[static_cast<std::size_t>(rows.count_++)] = {lo, hi};
      }
    }
    return rows;
  }
  const auto accepted = [&](int e) { return tf_->opacity_entry(e) >= lo_; };
  rows.nan_ = accepted(0);  // entry_of reads NaN as entry 0
  constexpr int kEntries = TransferFunction1D::kEntries;
  for (int e = 0; e < kEntries; ++e) {
    if (!accepted(e)) continue;
    int end = e;
    while (end + 1 < kEntries && accepted(end + 1)) ++end;
    const std::uint32_t first = e == 0 ? 0 : first_at_entry(*tf_, e);
    const std::uint32_t past =
        end + 1 == kEntries ? kOrderedFloats : first_at_entry(*tf_, end + 1);
    if (first < past) {
      rows.spans_[static_cast<std::size_t>(rows.count_++)] = {
          ordered_float(first), ordered_float(past - 1)};
    }
    e = end;
  }
  return rows;
}

std::uint64_t StepCriterion::Rows::accept_bits(const float* values,
                                               int n) const {
  const std::array<float, 2>* spans = spans_.data();
  if (n == kWordBits) {
    return span_block_bits<kWordBits>(values, spans, count_, nan_);
  }
  std::uint64_t bits = 0;
  int i = 0;
  for (; i + kCacheLineFloats <= n; i += kCacheLineFloats) {
    bits |= span_block_bits<kCacheLineFloats>(values + i, spans, count_, nan_)
            << i;
  }
  for (; i < n; ++i) {
    const float v = values[i];
    bool in = nan_ && v != v;
    for (int s = 0; s < count_ && !in; ++s) {
      in = v >= spans[s][0] && v <= spans[s][1];
    }
    bits |= static_cast<std::uint64_t>(in) << i;
  }
  return bits;
}

IFET_HOT IFET_DETERMINISTIC std::size_t Tracker::grow_step(
    StepRows& rows) const {
  const std::uint32_t words = rows.words;
  std::uint64_t* fill = rows.fill.data();
  std::size_t added = 0;
  while (rows.stack_count > 0) {
    const std::uint32_t r = rows.stack[--rows.stack_count];
    std::uint64_t* open = rows.open(r);
    std::uint64_t* seeds = rows.seeds(r);
    // The runs of open bits holding a seed: fill up through the row with
    // the top bit of each word carried into the next, then down with the
    // bottom bit carried into the one before.
    std::uint64_t carry = 0;
    for (std::uint32_t w = 0; w < words; ++w) {
      fill[w] = fill_up((seeds[w] | carry) & open[w], open[w]);
      seeds[w] = 0;
      carry = fill[w] >> 63;
    }
    carry = 0;
    std::size_t count = 0;
    for (std::uint32_t w = words; w-- > 0;) {
      fill[w] = fill_down(fill[w] | ((carry << 63) & open[w]), open[w]);
      carry = fill[w] & 1u;
      count += count_bits(fill[w]);
    }
    if (count == 0) continue;

    std::uint8_t* bytes =
        rows.mask->data().data() + static_cast<std::size_t>(r) * rows.nx;
    std::uint64_t* filled = rows.added(r);
    rows.grown[r / kWordBits] |= std::uint64_t{1} << (r % kWordBits);
    for (std::uint32_t w = 0; w < words; ++w) {
      if (fill[w] == 0) continue;
      open[w] &= ~fill[w];
      filled[w] |= fill[w];
      write_mask_bits(bytes + static_cast<std::size_t>(w) * kWordBits,
                      fill[w], word_voxels(rows.nx, w));
    }
    added += count;

    // The filled runs seed the same bits of the four neighbouring rows.
    const std::uint32_t y = r % rows.ny;
    const std::uint32_t z = r / rows.ny;
    const bool down = y > 0, up = y + 1 < rows.ny;
    const bool back = z > 0, front = z + 1 < rows.nz;
    if (down) rows.prefetch(r - 1);
    if (up) rows.prefetch(r + 1);
    if (back) rows.prefetch(r - rows.ny);
    if (front) rows.prefetch(r + rows.ny);
    if (down) rows.seed(r - 1, fill);
    if (up) rows.seed(r + 1, fill);
    if (back) rows.seed(r - rows.ny, fill);
    if (front) rows.seed(r + rows.ny, fill);
  }
  return added;
}

}  // namespace ifet
