// Sec 3 / Sec 8 evaluation: "the cost and performance tradeoffs for each of
// these methods remain to be evaluated". We run the three engines (the
// paper's MLP, the "promising" RBF SVM, and a Gaussian naive-Bayes
// baseline) on the identical data-space extraction task — reionization
// small-feature suppression with shell feature vectors — and report
// training time, per-voxel prediction time, and extraction quality.
#include <iostream>

#include "bench_util.hpp"
#include "core/feature_vector.hpp"
#include "flowsim/datasets.hpp"
#include "ml/classifier.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace ifet;

std::vector<Index3> sample_mask(const Mask& mask, std::size_t count,
                                Rng& rng) {
  std::vector<Index3> candidates;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) candidates.push_back(mask.coord_of(i));
  }
  std::vector<Index3> out;
  for (std::size_t s = 0; s < count && !candidates.empty(); ++s) {
    out.push_back(candidates[rng.uniform_index(candidates.size())]);
  }
  return out;
}

}  // namespace

int main() {
  using namespace ifet;
  std::cout << "=== ML-engine tradeoffs on data-space extraction (Sec 3 / "
               "Sec 8) ===\n";

  ReionizationConfig cfg;
  cfg.dims = Dims{40, 40, 40};
  cfg.num_steps = 400;
  auto source = std::make_shared<ReionizationSource>(cfg);
  const int t = 310;
  VolumeF volume = source->generate(t);
  Mask large = source->large_mask(t);
  Mask small = source->small_mask(t);
  Mask background(volume.dims());
  for (std::size_t i = 0; i < background.size(); ++i) {
    background[i] = (!large[i] && !small[i]) ? 1 : 0;
  }

  FeatureVectorSpec spec;
  spec.use_time = false;
  FeatureContext ctx{volume, {{0.0, 1.0}}, t, cfg.num_steps};

  // The shared painted training set.
  TrainingSet train;
  Rng rng(4242);
  for (const Index3& p : sample_mask(large, 400, rng)) {
    train.add(assemble_feature_vector(spec, ctx, p.x, p.y, p.z), {1.0});
  }
  for (const Index3& p : sample_mask(small, 280, rng)) {
    train.add(assemble_feature_vector(spec, ctx, p.x, p.y, p.z), {0.0});
  }
  for (const Index3& p : sample_mask(background, 280, rng)) {
    train.add(assemble_feature_vector(spec, ctx, p.x, p.y, p.z), {0.0});
  }
  std::cout << train.size() << " painted samples, feature width "
            << spec.width() << "\n\n";

  Table table({"engine", "train_s", "classify_s", "us_per_voxel", "large_f1",
               "small_leakage"});
  CsvWriter csv(bench::output_dir() + "/ml_engines.csv",
                {"engine", "train_s", "classify_s", "f1", "leakage"});

  struct Result {
    double f1;
    double leakage;
    double train_s;
    double classify_s;
  };
  std::vector<Result> results;
  for (EngineKind kind :
       {EngineKind::kMlp, EngineKind::kSvm, EngineKind::kNaiveBayes}) {
    auto clf = make_classifier(kind, spec.width(), 777);
    Stopwatch train_watch;
    clf->fit(train, 400);
    double train_s = train_watch.seconds();

    Stopwatch classify_watch;
    Mask extracted(volume.dims());
    const Dims d = volume.dims();
    for (int k = 0; k < d.z; ++k) {
      for (int j = 0; j < d.y; ++j) {
        for (int i = 0; i < d.x; ++i) {
          double p = clf->predict(
              assemble_feature_vector(spec, ctx, i, j, k));
          extracted[extracted.linear_index(i, j, k)] = p >= 0.5 ? 1 : 0;
        }
      }
    }
    double classify_s = classify_watch.seconds();

    double f1 = score_mask(extracted, large).f1();
    double leak = coverage(extracted, small);
    results.push_back({f1, leak, train_s, classify_s});
    table.add_row({clf->name(), Table::num(train_s, 3),
                   Table::num(classify_s, 3),
                   Table::num(1e6 * classify_s /
                                  static_cast<double>(volume.size()),
                              2),
                   Table::num(f1), Table::num(leak)});
    csv.row(clf->name(), train_s, classify_s, f1, leak);
  }
  table.print(std::cout);
  std::cout << '\n';

  bench::ShapeCheck check;
  check.expect(results[0].f1 > 0.85,
               "the paper's MLP engine extracts the large structures well");
  check.expect(results[1].f1 > 0.85,
               "the SVM engine is a viable alternative (Sec 8: 'promising "
               "results')");
  check.expect(results[0].leakage < 0.2 && results[1].leakage < 0.2,
               "both discriminative engines suppress the tiny features");
  check.expect(results[2].train_s < results[0].train_s,
               "naive Bayes trains fastest (single pass)");
  return check.exit_code();
}
