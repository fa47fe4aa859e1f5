// Tests for the adaptive findK() controller (Algorithm 1): K grows
// with cheap matchers / slow streams and shrinks with expensive
// matchers / fast streams, within configured bounds.

#include <gtest/gtest.h>

#include "core/find_k.h"

namespace pier {
namespace {

TEST(AdaptiveKTest, InitialKBeforeMeasurements) {
  AdaptiveKOptions options;
  options.initial_k = 77;
  AdaptiveK k(options);
  EXPECT_EQ(k.FindK(), 77u);
}

TEST(AdaptiveKTest, StaysInitialWithoutArrivals) {
  AdaptiveKOptions options;
  options.initial_k = 50;
  AdaptiveK k(options);
  k.OnBatchProcessed(100, 0.01);
  EXPECT_EQ(k.FindK(), 50u);  // no interarrival signal yet
}

TEST(AdaptiveKTest, FastMatcherGrowsK) {
  AdaptiveKOptions options;
  options.initial_k = 10;
  options.max_k = 100000;
  AdaptiveK k(options);
  // Interarrival 1 s; matcher processes a comparison in 1 us.
  for (int i = 0; i < 10; ++i) k.OnArrival(static_cast<double>(i));
  for (int i = 0; i < 10; ++i) k.OnBatchProcessed(1000, 0.001);
  size_t prev = k.FindK();
  for (int i = 0; i < 50; ++i) {
    const size_t now = k.FindK();
    EXPECT_GE(now, prev);
    prev = now;
  }
  // Converges toward 0.5 s / 1 us = 500k, clamped to max.
  EXPECT_EQ(prev, options.max_k);
}

TEST(AdaptiveKTest, SlowMatcherShrinksK) {
  AdaptiveKOptions options;
  options.initial_k = 1000;
  options.min_k = 4;
  AdaptiveK k(options);
  // Interarrival 10 ms; each comparison costs 1 ms.
  for (int i = 0; i < 10; ++i) k.OnArrival(0.01 * i);
  for (int i = 0; i < 10; ++i) k.OnBatchProcessed(10, 0.01);
  for (int i = 0; i < 100; ++i) k.FindK();
  // Target = 0.01 * 0.5 / 0.001 = 5 comparisons.
  const size_t final_k = k.FindK();
  EXPECT_LE(final_k, 8u);
  EXPECT_GE(final_k, options.min_k);
}

TEST(AdaptiveKTest, TracksTargetProportionally) {
  AdaptiveKOptions options;
  options.initial_k = 64;
  options.min_k = 1;
  options.max_k = 1u << 20;
  AdaptiveK k(options);
  for (int i = 0; i < 8; ++i) k.OnArrival(0.1 * i);       // 100 ms
  for (int i = 0; i < 8; ++i) k.OnBatchProcessed(1000, 0.01);  // 10 us/cmp
  for (int i = 0; i < 200; ++i) k.FindK();
  // Target = 0.1 * 0.5 / 1e-5 = 5000.
  EXPECT_NEAR(static_cast<double>(k.FindK()), 5000.0, 500.0);
}

TEST(AdaptiveKTest, ZeroInterarrivalIgnored) {
  AdaptiveK k;
  k.OnArrival(1.0);
  k.OnArrival(1.0);  // same instant: no interarrival recorded
  EXPECT_DOUBLE_EQ(k.MeanInterarrival(), 0.0);
}

TEST(AdaptiveKTest, EmptyBatchIgnored) {
  AdaptiveK k;
  k.OnBatchProcessed(0, 1.0);
  EXPECT_DOUBLE_EQ(k.MeanCostPerComparison(), 0.0);
}

TEST(AdaptiveKTest, WindowForgetsOldMeasurements) {
  AdaptiveK k;
  k.OnArrival(0.0);
  k.OnArrival(10.0);  // one slow gap
  for (size_t i = 1; i < AdaptiveK::kWindow; ++i) {
    k.OnArrival(10.0 + 0.1 * static_cast<double>(i));
  }
  // The window is full and still holds the 10 s gap.
  EXPECT_GT(k.MeanInterarrival(), 1.0);
  k.OnArrival(10.0 + 0.1 * static_cast<double>(AdaptiveK::kWindow));
  // The 10 s gap has been evicted from the window.
  EXPECT_NEAR(k.MeanInterarrival(), 0.1, 1e-9);
}

TEST(AdaptiveKTest, RejectsInvalidOptions) {
  AdaptiveKOptions options;
  options.min_k = 0;
  EXPECT_DEATH(AdaptiveK{options}, "PIER_CHECK");
}

TEST(AdaptiveKTest, AdaptsWhenRateChanges) {
  AdaptiveKOptions options;
  options.initial_k = 100;
  AdaptiveK k(options);
  // Phase 1: slow stream (1 s interarrival), cheap matcher.
  double t = 0.0;
  for (int i = 0; i < 8; ++i) k.OnArrival(t += 1.0);
  for (int i = 0; i < 8; ++i) k.OnBatchProcessed(1000, 0.001);
  for (int i = 0; i < 100; ++i) k.FindK();
  const size_t k_slow = k.FindK();
  // Phase 2: stream speeds up 100x.
  for (int i = 0; i < 8; ++i) k.OnArrival(t += 0.01);
  for (int i = 0; i < 100; ++i) k.FindK();
  const size_t k_fast = k.FindK();
  EXPECT_LT(k_fast, k_slow);
}

}  // namespace
}  // namespace pier
