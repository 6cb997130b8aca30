#include "ingest/delta_builder.h"

#include <gtest/gtest.h>

#include <limits>

#include "stream/snapshot.h"

namespace dismastd {
namespace ingest {
namespace {

void Push(DeltaBuilder* builder, int64_t ts, std::vector<uint64_t> index,
          double value, std::vector<MicroBatchDelta>* out) {
  builder->PushEvent(ts, index.data(), value, out);
}

TEST(DeltaBuilderTest, EventCountTriggerClosesBatch) {
  DeltaBuilderOptions options;
  options.max_batch_events = 2;
  DeltaBuilder builder(2, options);
  std::vector<MicroBatchDelta> out;

  Push(&builder, 0, {0, 0}, 1.0, &out);
  EXPECT_TRUE(out.empty());
  Push(&builder, 1, {1, 1}, 2.0, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].reason, BatchCloseReason::kEventCount);
  EXPECT_EQ(out[0].num_events, 2u);
  EXPECT_EQ(out[0].old_dims, (std::vector<uint64_t>{0, 0}));
  EXPECT_EQ(out[0].new_dims, (std::vector<uint64_t>{2, 2}));
  EXPECT_EQ(out[0].delta.nnz(), 2u);
  EXPECT_EQ(builder.current_dims(), (std::vector<uint64_t>{2, 2}));
}

TEST(DeltaBuilderTest, ModeGrowthTriggerClosesBatch) {
  DeltaBuilderOptions options;
  options.max_batch_events = 0;  // disabled
  options.max_mode_growth = 3;
  DeltaBuilder builder(2, options);
  std::vector<MicroBatchDelta> out;

  Push(&builder, 0, {1, 0}, 1.0, &out);  // growth 2 in mode 0
  EXPECT_TRUE(out.empty());
  Push(&builder, 1, {2, 0}, 1.0, &out);  // growth 3 in mode 0: trigger
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].reason, BatchCloseReason::kModeGrowth);
  EXPECT_EQ(out[0].new_dims, (std::vector<uint64_t>{3, 1}));
}

TEST(DeltaBuilderTest, HorizonCloseExcludesTriggeringEvent) {
  DeltaBuilderOptions options;
  options.max_batch_events = 0;
  options.horizon_ticks = 10;
  DeltaBuilder builder(2, options);
  std::vector<MicroBatchDelta> out;

  Push(&builder, 0, {0, 0}, 1.0, &out);
  Push(&builder, 5, {1, 1}, 2.0, &out);
  EXPECT_TRUE(out.empty());
  Push(&builder, 20, {2, 2}, 3.0, &out);  // span 20 > 10: close first
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].reason, BatchCloseReason::kHorizon);
  EXPECT_EQ(out[0].num_events, 2u);
  EXPECT_EQ(out[0].max_ts, 5);

  // The triggering event opened the next batch.
  builder.Flush(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].reason, BatchCloseReason::kEndOfStream);
  EXPECT_EQ(out[1].num_events, 1u);
  EXPECT_EQ(out[1].min_ts, 20);
}

TEST(DeltaBuilderTest, HorizonThenGrowthCanEmitTwoBatchesFromOnePush) {
  DeltaBuilderOptions options;
  options.max_batch_events = 0;
  options.max_mode_growth = 5;
  options.horizon_ticks = 10;
  DeltaBuilder builder(1, options);
  std::vector<MicroBatchDelta> out;

  Push(&builder, 0, {0}, 1.0, &out);  // growth 1: stays open
  EXPECT_TRUE(out.empty());
  // ts 100 breaches the horizon (close #1, excluding this event), and the
  // event alone then grows mode 0 by 5 (close #2, including it).
  Push(&builder, 100, {5}, 2.0, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].reason, BatchCloseReason::kHorizon);
  EXPECT_EQ(out[0].num_events, 1u);
  EXPECT_EQ(out[0].new_dims, (std::vector<uint64_t>{1}));
  EXPECT_EQ(out[1].reason, BatchCloseReason::kModeGrowth);
  EXPECT_EQ(out[1].num_events, 1u);
  EXPECT_EQ(out[1].new_dims, (std::vector<uint64_t>{6}));
}

TEST(DeltaBuilderTest, BarrierAlwaysClosesEvenEmpty) {
  DeltaBuilder builder(2, {});
  std::vector<MicroBatchDelta> out;

  builder.PushBarrier(7, {3, 4}, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].reason, BatchCloseReason::kBarrier);
  EXPECT_EQ(out[0].num_events, 0u);
  EXPECT_EQ(out[0].min_ts, 7);
  EXPECT_EQ(out[0].new_dims, (std::vector<uint64_t>{3, 4}));
  EXPECT_EQ(builder.current_dims(), (std::vector<uint64_t>{3, 4}));

  // A second identical barrier still publishes (mirrors a schedule step
  // with an empty delta).
  builder.PushBarrier(8, {3, 4}, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].delta.nnz(), 0u);
}

TEST(DeltaBuilderTest, HorizonCloseThenImmediateBarrierClose) {
  DeltaBuilderOptions options;
  options.max_batch_events = 0;
  options.horizon_ticks = 10;
  DeltaBuilder builder(2, options);
  std::vector<MicroBatchDelta> out;

  Push(&builder, 0, {0, 0}, 1.0, &out);
  EXPECT_TRUE(out.empty());
  // ts 50 breaches the horizon: close #1 excludes the triggering event,
  // which re-opens the batch holding only that event.
  Push(&builder, 50, {1, 1}, 2.0, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].reason, BatchCloseReason::kHorizon);
  EXPECT_EQ(out[0].num_events, 1u);

  // A barrier lands before anything else: it must close the re-opened
  // batch unconditionally, carrying exactly the horizon-excluded event
  // and the barrier's dims.
  builder.PushBarrier(51, {4, 4}, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].reason, BatchCloseReason::kBarrier);
  EXPECT_EQ(out[1].num_events, 1u);
  EXPECT_EQ(out[1].delta.nnz(), 1u);
  EXPECT_EQ(out[1].new_dims, (std::vector<uint64_t>{4, 4}));

  // And a barrier immediately after that closes a genuinely empty batch.
  builder.PushBarrier(52, {4, 4}, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].reason, BatchCloseReason::kBarrier);
  EXPECT_EQ(out[2].num_events, 0u);
  EXPECT_EQ(out[2].delta.nnz(), 0u);
}

TEST(DeltaBuilderTest, InteriorUpdatesAreExcluded) {
  DeltaBuilder builder(2, {});
  std::vector<MicroBatchDelta> out;
  builder.PushBarrier(0, {2, 2}, &out);
  out.clear();

  Push(&builder, 1, {0, 0}, 5.0, &out);  // inside the committed box
  Push(&builder, 2, {2, 0}, 6.0, &out);  // genuinely new
  builder.Flush(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].num_events, 1u);
  EXPECT_EQ(out[0].delta.Value(0), 6.0);
  EXPECT_EQ(builder.interior_updates(), 1u);
  EXPECT_EQ(builder.accepted_events(), 1u);
}

TEST(DeltaBuilderTest, LateEventsQuarantinedBeyondAllowedLateness) {
  DeltaBuilderOptions options;
  options.allowed_lateness_ticks = 5;
  DeltaBuilder builder(1, options);
  std::vector<MicroBatchDelta> out;

  Push(&builder, 100, {0}, 1.0, &out);
  EXPECT_EQ(builder.watermark(), 100);
  Push(&builder, 96, {1}, 2.0, &out);  // 4 late: folded in
  Push(&builder, 90, {2}, 3.0, &out);  // 10 late: quarantined
  EXPECT_EQ(builder.late_events(), 1u);
  builder.Flush(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].num_events, 2u);
}

TEST(DeltaBuilderTest, LatenessIsExactAtTheEdgesOfTheTimestampRange) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  // watermark - ts exceeds int64 here; the event is as late as it gets.
  EXPECT_TRUE(IsLateEvent(kMin, kMax, 5));
  EXPECT_TRUE(IsLateEvent(kMin, kMax, kMax - 1));
  EXPECT_FALSE(IsLateEvent(kMin, kMax, -1));
  EXPECT_FALSE(IsLateEvent(kMax, kMin, 0));
  EXPECT_FALSE(IsLateEvent(-5, 0, 5));
  EXPECT_TRUE(IsLateEvent(-6, 0, 5));
  // watermark - lateness would overflow below int64's minimum.
  EXPECT_FALSE(IsLateEvent(kMin, kMin + 3, kMax));

  DeltaBuilderOptions options;
  options.allowed_lateness_ticks = 5;
  DeltaBuilder builder(1, options);
  std::vector<MicroBatchDelta> out;
  Push(&builder, kMax / 2 + 1, {0}, 1.0, &out);
  Push(&builder, kMin / 2 - 1, {1}, 2.0, &out);
  EXPECT_EQ(builder.late_events(), 1u);
}

TEST(DeltaBuilderTest, UnboundedLatenessNeverQuarantines) {
  DeltaBuilder builder(1, {});  // allowed_lateness_ticks = -1
  std::vector<MicroBatchDelta> out;
  Push(&builder, 1000000, {0}, 1.0, &out);
  Push(&builder, 0, {1}, 2.0, &out);
  EXPECT_EQ(builder.late_events(), 0u);
  EXPECT_EQ(builder.accepted_events(), 2u);
}

TEST(DeltaBuilderTest, BatchDeltaIsCoalesced) {
  DeltaBuilder builder(2, {});
  std::vector<MicroBatchDelta> out;
  Push(&builder, 0, {1, 1}, 2.0, &out);
  Push(&builder, 1, {0, 1}, 1.0, &out);
  Push(&builder, 2, {1, 1}, 3.0, &out);  // duplicate coordinate
  builder.Flush(&out);
  ASSERT_EQ(out.size(), 1u);
  const SparseTensor& delta = out[0].delta;
  ASSERT_EQ(delta.nnz(), 2u);
  // Lexicographic order with the duplicate summed.
  EXPECT_EQ(delta.Index(0, 0), 0u);
  EXPECT_DOUBLE_EQ(delta.Value(0), 1.0);
  EXPECT_EQ(delta.Index(1, 0), 1u);
  EXPECT_DOUBLE_EQ(delta.Value(1), 5.0);
}

TEST(DeltaBuilderTest, BatchSequenceMatchesRelativeComplement) {
  // Events of one "step" arriving in any order produce exactly the
  // schedule-driven delta: RelativeComplement over the coalesced snapshot.
  SparseTensor full({4, 4});
  full.Add({0, 0}, 1.0);
  full.Add({3, 1}, 2.0);
  full.Add({1, 3}, 3.0);
  full.Add({3, 3}, 4.0);
  SparseTensor expected = RelativeComplement(full, {2, 2});
  expected.Coalesce();

  DeltaBuilder builder(2, {});
  std::vector<MicroBatchDelta> out;
  builder.PushBarrier(0, {2, 2}, &out);
  out.clear();
  // The three outside-the-box entries, deliberately out of order.
  Push(&builder, 3, {3, 3}, 4.0, &out);
  Push(&builder, 1, {3, 1}, 2.0, &out);
  Push(&builder, 2, {1, 3}, 3.0, &out);
  builder.PushBarrier(4, {4, 4}, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].delta == expected);
}

TEST(DeltaBuilderTest, FlushEmitsPendingGrowthWithoutEvents) {
  DeltaBuilder builder(2, {});
  std::vector<MicroBatchDelta> out;
  builder.Flush(&out);
  EXPECT_TRUE(out.empty());  // nothing pending at all
}

}  // namespace
}  // namespace ingest
}  // namespace dismastd
