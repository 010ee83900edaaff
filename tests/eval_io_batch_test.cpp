#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "core/batch.hpp"
#include "eval/metrics.hpp"
#include "io/image_io.hpp"
#include "io/volume_io.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "volume/ops.hpp"

namespace ifet {
namespace {

using testing::box_mask;
using testing::random_volume;

TEST(Metrics, PerfectPrediction) {
  Dims d{8, 8, 8};
  Mask gt = box_mask(d, {1, 1, 1}, {4, 4, 4});
  MaskScore s = score_mask(gt, gt);
  EXPECT_DOUBLE_EQ(s.precision(), 1.0);
  EXPECT_DOUBLE_EQ(s.recall(), 1.0);
  EXPECT_DOUBLE_EQ(s.f1(), 1.0);
  EXPECT_DOUBLE_EQ(s.jaccard(), 1.0);
}

TEST(Metrics, EmptyPredictionScoresZero) {
  Dims d{8, 8, 8};
  Mask gt = box_mask(d, {1, 1, 1}, {4, 4, 4});
  Mask empty(d);
  MaskScore s = score_mask(empty, gt);
  EXPECT_DOUBLE_EQ(s.precision(), 0.0);
  EXPECT_DOUBLE_EQ(s.recall(), 0.0);
  EXPECT_DOUBLE_EQ(s.f1(), 0.0);
  EXPECT_EQ(s.true_negative, d.count() - 64);
}

TEST(Metrics, HalfOverlapArithmetic) {
  Dims d{8, 8, 8};
  // GT: x in [0,3]; prediction: x in [2,5] of the same y/z rows.
  Mask gt = box_mask(d, {0, 0, 0}, {3, 0, 0});
  Mask pred = box_mask(d, {2, 0, 0}, {5, 0, 0});
  MaskScore s = score_mask(pred, gt);
  EXPECT_EQ(s.true_positive, 2u);
  EXPECT_EQ(s.false_positive, 2u);
  EXPECT_EQ(s.false_negative, 2u);
  EXPECT_DOUBLE_EQ(s.precision(), 0.5);
  EXPECT_DOUBLE_EQ(s.recall(), 0.5);
  EXPECT_DOUBLE_EQ(s.jaccard(), 2.0 / 6.0);
}

TEST(Metrics, DimensionMismatchThrows) {
  EXPECT_THROW(score_mask(Mask(Dims{4, 4, 4}), Mask(Dims{5, 4, 4})), Error);
}

TEST(Metrics, CoverageFractions) {
  Dims d{8, 8, 8};
  Mask region = box_mask(d, {0, 0, 0}, {3, 3, 3});  // 64 voxels
  Mask half = box_mask(d, {0, 0, 0}, {3, 3, 1});    // 32 inside region
  EXPECT_DOUBLE_EQ(coverage(half, region), 0.5);
  EXPECT_DOUBLE_EQ(coverage(Mask(d), region), 0.0);
  EXPECT_DOUBLE_EQ(coverage(half, Mask(d)), 0.0);  // empty region
}

TEST(Metrics, MaskedMeanAbsDifference) {
  Dims d{4, 4, 4};
  VolumeF a(d, 1.0f);
  VolumeF b(d, 1.0f);
  b.at(0, 0, 0) = 3.0f;  // only difference, inside region
  Mask region = box_mask(d, {0, 0, 0}, {1, 1, 1});
  EXPECT_NEAR(masked_mean_abs_difference(a, b, region), 2.0 / 8.0, 1e-9);
  EXPECT_DOUBLE_EQ(masked_mean_abs_difference(a, b, Mask(d)), 0.0);
}

TEST(VolumeIo, VolRoundTripSelfDescribing) {
  VolumeF v = random_volume(Dims{7, 3, 9}, 9);
  const std::string path = "/tmp/ifet_test_vol.vol";
  write_vol(v, path);
  VolumeF r = read_vol(path);
  EXPECT_EQ(r.dims(), v.dims());
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FLOAT_EQ(r[i], v[i]);
  std::remove(path.c_str());
}

TEST(VolumeIo, VolRejectsBadHeader) {
  const std::string path = "/tmp/ifet_bad.vol";
  {
    std::ofstream out(path);
    out << "not-a-vol 1 2 3\n";
  }
  EXPECT_THROW(read_vol(path), Error);
  std::remove(path.c_str());
}

TEST(VolumeIo, MissingFileThrows) {
  EXPECT_THROW(read_vol("/tmp/ifet_does_not_exist.vol"), Error);
}

TEST(ImageIo, WritesValidPpm) {
  ImageRgb8 img(4, 3);
  img.set(0, 0, 255, 0, 0);
  img.set(3, 2, 0, 255, 0);
  const std::string path = "/tmp/ifet_test.ppm";
  write_ppm(img, path);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  int w, h, maxval;
  in >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, 4);
  EXPECT_EQ(h, 3);
  EXPECT_EQ(maxval, 255);
  in.get();  // single whitespace after header
  std::vector<char> payload(4 * 3 * 3);
  in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  EXPECT_EQ(in.gcount(), static_cast<std::streamsize>(payload.size()));
  EXPECT_EQ(static_cast<unsigned char>(payload[0]), 255);
  std::remove(path.c_str());
}

TEST(ImageIo, PgmSizeValidation) {
  std::vector<std::uint8_t> gray(12, 128);
  EXPECT_NO_THROW(write_pgm(gray, 4, 3, "/tmp/ifet_test.pgm"));
  EXPECT_THROW(write_pgm(gray, 5, 3, "/tmp/ifet_test.pgm"), Error);
  std::remove("/tmp/ifet_test.pgm");
}

TEST(Batch, ProcessesEveryStepOnce) {
  Dims d{8, 8, 8};
  CallbackSource source(
      d, 6, {0.0, 1.0}, [d](int step) {
        return VolumeF(d, static_cast<float>(step) * 0.1f);
      });
  BatchReport report = run_batch_extraction(
      source, 0, 5, [](const VolumeF& v, int) {
        return threshold_mask(v, 0.25f, 1.0f);
      });
  ASSERT_EQ(report.steps.size(), 6u);
  for (int s = 0; s < 6; ++s) {
    EXPECT_EQ(report.steps[static_cast<std::size_t>(s)].step, s);
    // Steps 3,4,5 have values >= 0.3 > 0.25 -> whole volume extracted.
    std::size_t expected = s >= 3 ? d.count() : 0;
    EXPECT_EQ(report.steps[static_cast<std::size_t>(s)].feature_voxels,
              expected)
        << "step " << s;
  }
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GE(report.cpu_step_seconds, 0.0);
}

TEST(Batch, SubrangeOnly) {
  Dims d{4, 4, 4};
  CallbackSource source(d, 10, {0.0, 1.0},
                        [d](int) { return VolumeF(d, 0.5f); });
  BatchReport report = run_batch_extraction(
      source, 3, 5, [](const VolumeF& v, int) {
        return threshold_mask(v, 0.0f, 1.0f);
      });
  ASSERT_EQ(report.steps.size(), 3u);
  EXPECT_EQ(report.steps.front().step, 3);
  EXPECT_EQ(report.steps.back().step, 5);
}

TEST(Batch, ValidatesRange) {
  Dims d{4, 4, 4};
  CallbackSource source(d, 5, {0.0, 1.0},
                        [d](int) { return VolumeF(d); });
  auto extract = [](const VolumeF& v, int) { return Mask(v.dims()); };
  EXPECT_THROW(run_batch_extraction(source, -1, 3, extract), Error);
  EXPECT_THROW(run_batch_extraction(source, 0, 5, extract), Error);
  EXPECT_THROW(run_batch_extraction(source, 3, 2, extract), Error);
}

}  // namespace
}  // namespace ifet
