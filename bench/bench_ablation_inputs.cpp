// Ablation: why the IATF input vector needs BOTH the raw value and the
// cumulative histogram (plus time). Paper Sec 4.2.1:
//  * value-only TFs fail under global value drift (the Fig 3/4 regime);
//  * cumulative-histogram-only TFs fail for "features that have constant
//    value, but vary in size. Such features could dramatically shift with
//    respect to the cumulative histogram".
//
// Regime A: a feature band drifting *nonlinearly* in time, plus a confuser
// structure in a higher band. Time-based interpolation of the band (what a
// value+time network can do) lands on the confuser at intermediate steps;
// only the cumulative-histogram coordinate tracks the feature exactly
// (global monotone drift).
// Regime B: a feature at a constant value band whose size grows 64x,
// shifting the cumulative histogram around it (nonlinearly in time, since
// volume grows with the cube of the edge) while the raw value stays put.
//
// Each regime trains IATF variants from the same two key frames — full
// inputs, no-cumulative-histogram, no-value — and scores extraction F1 at
// an unseen intermediate step.
#include <cmath>
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "core/iatf.hpp"
#include "core/keyframe_advisor.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace ifet;

constexpr int kSteps = 21;
constexpr Dims kDims{32, 32, 32};

/// Deterministic per-voxel jitter in [0, 1): gives features a value
/// *spread*, so the cumulative histogram is strictly increasing through
/// their band (as in real data) instead of a step function.
double voxel_jitter(int i, int j, int k) {
  std::uint32_t h = static_cast<std::uint32_t>(i * 73856093 ^ j * 19349663 ^
                                               k * 83492791);
  h ^= h >> 13;
  h *= 0x85ebca6bu;
  h ^= h >> 16;
  return static_cast<double>(h) / 4294967296.0;
}

bool in_cube(int i, int j, int k, int lo, int hi) {
  return i >= lo && i < hi && j >= lo && j < hi && k >= lo && k < hi;
}

// --- Regime A: nonlinear global drift -------------------------------------

double drift_offset(int step) {
  double u = static_cast<double>(step) / (kSteps - 1);
  return 0.4 * u * u * u;  // monotone, strongly nonlinear in t
}

std::shared_ptr<CallbackSource> regime_a_source() {
  return std::make_shared<CallbackSource>(
      kDims, kSteps, std::pair<double, double>{0.0, 1.6}, [](int step) {
        VolumeF v(kDims);
        const double off = drift_offset(step);
        for (int k = 0; k < kDims.z; ++k) {
          for (int j = 0; j < kDims.y; ++j) {
            for (int i = 0; i < kDims.x; ++i) {
              double base;
              if (in_cube(i, j, k, 2, 18)) {
                // Feature: ~12.5% of the volume, so its cumulative-
                // histogram interval is wide enough (~0.13) for the
                // network to key on it.
                base = 0.38 + 0.08 * voxel_jitter(i, j, k);
              } else if (in_cube(i, j, k, 19, 31)) {
                base = 0.60 + 0.08 * voxel_jitter(i, j, k);  // confuser
              } else {
                base = 0.30 * (i + j + k) / (3.0 * (kDims.x - 1));
              }
              v.at(i, j, k) = static_cast<float>(base + off);
            }
          }
        }
        return v;
      });
}

Mask regime_a_truth() {
  Mask m(kDims);
  for (int k = 2; k < 18; ++k) {
    for (int j = 2; j < 18; ++j) {
      for (int i = 2; i < 18; ++i) m.at(i, j, k) = 1;
    }
  }
  return m;
}

TransferFunction1D regime_a_key_tf(int step) {
  TransferFunction1D tf(0.0, 1.6);
  const double off = drift_offset(step);
  tf.add_band(0.37 + off, 0.47 + off, 1.0, 0.015);
  return tf;
}

// --- Regime B: constant value, growing size --------------------------------

int regime_b_edge(int step) { return 4 + (12 * step) / (kSteps - 1); }

std::shared_ptr<CallbackSource> regime_b_source() {
  return std::make_shared<CallbackSource>(
      kDims, kSteps, std::pair<double, double>{0.0, 1.0}, [](int step) {
        VolumeF v(kDims);
        const int edge = regime_b_edge(step);
        const int lo = (kDims.x - edge) / 2;
        for (int k = 0; k < kDims.z; ++k) {
          for (int j = 0; j < kDims.y; ++j) {
            for (int i = 0; i < kDims.x; ++i) {
              double value;
              if (i >= lo && i < lo + edge && j >= lo && j < lo + edge &&
                  k >= lo && k < lo + edge) {
                value = 0.70 + 0.08 * voxel_jitter(i, j, k);
              } else {
                value = 0.55 * (i + j + k) / (3.0 * (kDims.x - 1));
              }
              v.at(i, j, k) = static_cast<float>(value);
            }
          }
        }
        return v;
      });
}

Mask regime_b_truth(int step) {
  Mask m(kDims);
  const int edge = regime_b_edge(step);
  const int lo = (kDims.x - edge) / 2;
  for (int k = lo; k < lo + edge; ++k) {
    for (int j = lo; j < lo + edge; ++j) {
      for (int i = lo; i < lo + edge; ++i) m.at(i, j, k) = 1;
    }
  }
  return m;
}

TransferFunction1D regime_b_key_tf(int) {
  TransferFunction1D tf(0.0, 1.0);
  tf.add_band(0.69, 0.81, 1.0, 0.015);
  return tf;
}

// --- Harness ----------------------------------------------------------------

struct Variant {
  const char* name;
  IatfConfig config;
};

std::vector<Variant> variants() {
  IatfConfig full;
  full.hidden_units = 12;
  IatfConfig no_cumhist = full;
  no_cumhist.use_cumulative_histogram = false;
  IatfConfig no_value = full;
  no_value.use_value = false;
  return {{"value+cumhist+time", full},
          {"no-cumhist", no_cumhist},
          {"no-value", no_value}};
}

double run_variant(const VolumeSequence& seq, const IatfConfig& config,
                   const TransferFunction1D& key0,
                   const TransferFunction1D& key1, const Mask& truth,
                   int eval_step) {
  Iatf iatf(seq, config);
  iatf.add_key_frame(0, key0);
  iatf.add_key_frame(kSteps - 1, key1);
  iatf.train(3000);
  if (std::getenv("IFET_DEBUG") != nullptr) {
    auto bands = iatf.evaluate(eval_step).opaque_intervals(0.25);
    std::cout << "    [debug] mse=" << iatf.last_mse() << " bands@mid:";
    for (auto [lo, hi] : bands) std::cout << " [" << lo << "," << hi << "]";
    std::cout << "\n";
  }
  return score_mask(
             bench::tf_extract(seq.step(eval_step), iatf.evaluate(eval_step)),
             truth)
      .f1();
}

}  // namespace

int main() {
  using namespace ifet;
  std::cout << "=== Ablation: IATF input vector (Sec 4.2.1) ===\n"
            << "regime A = nonlinear global drift; regime B = constant "
               "value, growing size; F1 at the unseen middle step\n\n";
  const int eval_step = kSteps / 2;

  Table table({"inputs", "regimeA_drift_f1", "regimeB_size_f1"});
  CsvWriter csv(bench::output_dir() + "/ablation_inputs.csv",
                {"inputs", "regimeA", "regimeB"});

  StreamedSequence seq_a(regime_a_source(), bench::step_budget(kDims, 6, 512));
  StreamedSequence seq_b(regime_b_source(), bench::step_budget(kDims, 6, 512));
  Mask truth_a = regime_a_truth();
  Mask truth_b = regime_b_truth(eval_step);

  std::vector<double> a_scores, b_scores;
  for (const Variant& v : variants()) {
    double fa = run_variant(seq_a, v.config, regime_a_key_tf(0),
                            regime_a_key_tf(kSteps - 1), truth_a, eval_step);
    double fb = run_variant(seq_b, v.config, regime_b_key_tf(0),
                            regime_b_key_tf(kSteps - 1), truth_b, eval_step);
    a_scores.push_back(fa);
    b_scores.push_back(fb);
    table.add_row({v.name, Table::num(fa), Table::num(fb)});
    csv.row(v.name, fa, fb);
  }
  // The remedy the paper's workflow implies, automated: iterate the
  // key-frame advisor — each round adds a key frame at the step whose
  // value distribution is farthest from every existing key — until the
  // sequence is covered, then check the IATF at every *non-key* step
  // (the user-relevant guarantee: it works everywhere, not just at keys).
  {
    std::vector<int> keys{0, kSteps - 1};
    for (int round = 0; round < 5; ++round) {
      KeyFrameSuggestion advice =
          suggest_key_frame(seq_a, keys, 0, kSteps - 1, 1, 0.04, 0.15);
      if (advice.step < 0) break;
      keys.push_back(advice.step);
    }
    IatfConfig full;
    full.hidden_units = 12;
    Iatf advised(seq_a, full);
    for (int key : keys) advised.add_key_frame(key, regime_a_key_tf(key));
    advised.train(3000);
    double worst = 1.0;
    for (int step = 0; step < kSteps; ++step) {
      if (std::find(keys.begin(), keys.end(), step) != keys.end()) continue;
      double f1 = score_mask(bench::tf_extract(seq_a.step(step),
                                               advised.evaluate(step)),
                             truth_a)
                      .f1();
      if (std::getenv("IFET_DEBUG") != nullptr) {
        std::cout << "    [debug] advised step " << step << " f1=" << f1
                  << "\n";
      }
      worst = std::min(worst, f1);
    }
    if (std::getenv("IFET_DEBUG") != nullptr) {
      std::cout << "    [debug] keys:";
      for (int key : keys) std::cout << ' ' << key;
      std::cout << " mse=" << advised.last_mse() << "\n";
    }
    a_scores.push_back(worst);
    std::string label =
        "full + " + std::to_string(keys.size() - 2) + " advised keys";
    table.add_row({label, Table::num(worst), "-"});
    csv.row(label, worst, -1.0);
  }

  table.print(std::cout);
  std::cout
      << "\nNote: with key frames only at the two sequence ends, the "
         "full-input network can fit them through the (value, time) pair "
         "alone — that shortcut interpolates the band linearly in time and "
         "misses a *nonlinear* drift at unseen steps, just like the "
         "no-cumhist variant. The cumulative-histogram pathway (no-value "
         "row) is what tracks the drift exactly; in the paper's workflow "
         "the user notices a failing step and adds a key frame there.\n\n";

  bench::ShapeCheck check;
  check.expect(a_scores[2] > 0.8,
               "cumulative-histogram-keyed inputs follow the nonlinear "
               "drift exactly (Sec 4.2.1 claim 1)");
  check.expect(a_scores[1] < 0.3,
               "value-keyed inputs cannot follow the drift (claim 1)");
  check.expect(b_scores[0] > 0.8 && b_scores[1] > 0.8,
               "value-keyed inputs handle constant-value size change "
               "(claim 2)");
  check.expect(b_scores[2] < b_scores[0] - 0.1,
               "cumhist-keyed inputs degrade under size change (claim 2)");
  check.expect(a_scores[3] > 0.6,
               "advisor-placed key frames recover the full configuration "
               "at every step under nonlinear drift");
  return check.exit_code();
}
