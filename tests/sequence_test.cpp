#include <gtest/gtest.h>

#include <memory>

#include "stream/streamed_sequence.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace ifet {
namespace {

std::shared_ptr<CallbackSource> counter_source(Dims d, int steps) {
  return std::make_shared<CallbackSource>(
      d, steps, std::pair<double, double>{0.0, 1.0}, [d](int step) {
        VolumeF v(d);
        v.fill(static_cast<float>(step) /
               100.0f);  // distinct content per step
        return v;
      });
}

TEST(VolumeSequence, GeneratesRequestedStep) {
  StreamedSequence seq(counter_source(Dims{4, 4, 4}, 10));
  EXPECT_FLOAT_EQ(seq.step(3).at(0, 0, 0), 0.03f);
  EXPECT_FLOAT_EQ(seq.step(7).at(1, 2, 3), 0.07f);
  EXPECT_EQ(seq.num_steps(), 10);
}

TEST(VolumeSequence, StepOutOfRangeThrows) {
  StreamedSequence seq(counter_source(Dims{4, 4, 4}, 5));
  EXPECT_THROW(seq.step(-1), Error);
  EXPECT_THROW(seq.step(5), Error);
}

TEST(VolumeSequence, CacheHitAvoidsRegeneration) {
  StreamedSequence seq(counter_source(Dims{4, 4, 4}, 10),
                       testing::load_counting_config(Dims{4, 4, 4}, 3));
  seq.step(0);
  seq.step(1);
  EXPECT_EQ(seq.generation_count(), 2u);
  seq.step(0);
  seq.step(1);
  EXPECT_EQ(seq.generation_count(), 2u);
}

TEST(VolumeSequence, LruEvictsLeastRecentlyUsed) {
  StreamedSequence seq(counter_source(Dims{4, 4, 4}, 10),
                       testing::load_counting_config(Dims{4, 4, 4}, 2));
  seq.step(0);
  seq.step(1);
  seq.step(0);  // 0 is now most recent
  seq.step(2);  // evicts 1
  EXPECT_EQ(seq.generation_count(), 3u);
  seq.step(0);  // still cached
  EXPECT_EQ(seq.generation_count(), 3u);
  seq.step(1);  // was evicted -> regenerated
  EXPECT_EQ(seq.generation_count(), 4u);
}

TEST(VolumeSequence, CapacityOfOneStillWorks) {
  StreamedSequence seq(counter_source(Dims{4, 4, 4}, 4),
                       testing::load_counting_config(Dims{4, 4, 4}, 1));
  for (int s = 0; s < 4; ++s) {
    EXPECT_FLOAT_EQ(seq.step(s).at(0, 0, 0), 0.01f * s);
  }
  EXPECT_EQ(seq.generation_count(), 4u);
}

TEST(VolumeSequence, CumulativeHistogramPerStep) {
  auto source = std::make_shared<CallbackSource>(
      Dims{8, 8, 8}, 2, std::pair<double, double>{0.0, 1.0}, [](int step) {
        // Step 0: all 0.25; step 1: all 0.75.
        return VolumeF(Dims{8, 8, 8}, step == 0 ? 0.25f : 0.75f);
      });
  StreamedSequence seq(source, testing::bins_config(64));
  EXPECT_NEAR(seq.cumulative_histogram(0).fraction_at(0.5), 1.0, 1e-12);
  EXPECT_NEAR(seq.cumulative_histogram(1).fraction_at(0.5), 0.0, 1e-12);
}

TEST(VolumeSequence, HistogramUsesGlobalRange) {
  StreamedSequence seq(counter_source(Dims{4, 4, 4}, 3),
                       testing::bins_config(32));
  Histogram h = seq.histogram(1);
  EXPECT_EQ(h.total(), 64u);
  EXPECT_DOUBLE_EQ(h.lo(), 0.0);
  EXPECT_DOUBLE_EQ(h.hi(), 1.0);
}

TEST(VolumeSequence, RejectsNullAndEmptySources) {
  EXPECT_THROW(StreamedSequence(nullptr), Error);
  auto empty = std::make_shared<CallbackSource>(
      Dims{4, 4, 4}, 0, std::pair<double, double>{0.0, 1.0},
      [](int) { return VolumeF(Dims{4, 4, 4}); });
  EXPECT_THROW(StreamedSequence{empty}, Error);
}

TEST(VolumeSequence, DetectsWrongSourceDims) {
  auto liar = std::make_shared<CallbackSource>(
      Dims{4, 4, 4}, 3, std::pair<double, double>{0.0, 1.0},
      [](int) { return VolumeF(Dims{5, 5, 5}); });
  StreamedSequence seq(liar);
  EXPECT_THROW(seq.step(0), Error);
}

}  // namespace
}  // namespace ifet
