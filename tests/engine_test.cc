#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/stats.h"
#include "video/stream_source.h"
#include "workloads/ev_counting.h"

namespace sky::core {
namespace {

/// Forwards to `base` and records what the engine materializes and reads:
/// a read at an instant outside every range materialized before it is one
/// that builds content on first use.
class RecordingContent : public video::ContentProcess {
 public:
  explicit RecordingContent(const video::ContentProcess* base) : base_(base) {}

  video::ContentState At(SimTime t) const override {
    bool built = false;
    for (const auto& [begin, end] : ranges_) {
      built = built || (begin <= t && t <= end);
    }
    if (!built) ++reads_not_built_;
    return base_->At(t);
  }
  SimTime horizon() const override { return base_->horizon(); }
  void Materialize(SimTime begin, SimTime end) const override {
    ranges_.emplace_back(begin, end);
    base_->Materialize(begin, end);
  }

  /// The last instant any Materialize call reaches.
  SimTime materialized_end() const {
    SimTime end = -1.0;
    for (const auto& range : ranges_) end = std::max(end, range.second);
    return end;
  }
  size_t reads_not_built() const { return reads_not_built_; }

 private:
  const video::ContentProcess* base_;
  mutable std::vector<std::pair<SimTime, SimTime>> ranges_;
  mutable size_t reads_not_built_ = 0;
};

/// A fresh EV camera whose content the engine reads through a recorder.
class RecordedCamera : public workloads::EvCountingWorkload {
 public:
  const video::ContentProcess& content_process() const override {
    return recorder_;
  }
  const RecordingContent& recorder() const { return recorder_; }
  /// Event day-blocks the camera's content has built.
  size_t built_event_days() const {
    return static_cast<const video::DiurnalContentProcess&>(
               workloads::EvCountingWorkload::content_process())
        .built_event_days();
  }

 private:
  RecordingContent recorder_{&workloads::EvCountingWorkload::content_process()};
};

/// Shared fixture: one offline fit on the EV workload (small but real), a
/// 4-core server. Reused across tests to keep the suite fast.
class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new workloads::EvCountingWorkload();
    cluster_.cores = 4;
    cost_model_ = new sim::CostModel(1.8);
    OfflineOptions opts;
    opts.segment_seconds = 4.0;
    opts.train_horizon = Days(6);
    opts.num_categories = 3;
    opts.forecaster.input_span = Days(1);
    opts.forecaster.planned_interval = Days(1);
    auto model = RunOfflinePhase(*workload_, cluster_, *cost_model_, opts);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = new OfflineModel(std::move(*model));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete cost_model_;
    delete workload_;
  }

  static EngineOptions BaseOptions() {
    EngineOptions opts;
    opts.duration = Days(1);
    opts.plan_interval = Days(1);
    opts.cloud_budget_usd_per_interval = 2.0;
    opts.buffer_bytes = 4ull << 30;
    return opts;
  }

  /// The history ring of a run of `model` just started at day 6.
  static CategorySequence RingAfterStart(const OfflineModel& model,
                                         SimTime duration, SimTime interval) {
    EngineOptions opts = BaseOptions();
    opts.duration = duration;
    opts.plan_interval = interval;
    IngestionEngine engine(workload_, &model, cluster_, cost_model_, opts);
    EXPECT_TRUE(engine.Start(Days(6)).ok());
    auto snapshot = engine.Checkpoint();
    return snapshot.ok() ? snapshot->history : CategorySequence();
  }

  /// The fixture's model at the fleet workloads' geometry: 2-s segments
  /// under a 2-day forecaster span, W = 86,400.
  static OfflineModel FleetGeometryModel() {
    OfflineModel fleet = *model_;
    fleet.segment_seconds = 2.0;
    ForecasterOptions fopts = model_->forecaster->options();
    fopts.input_span = Days(2);
    auto two_day =
        Forecaster::FromParts(model_->forecaster->SnapshotNet(), fopts,
                              model_->categories.NumCategories(), {});
    EXPECT_TRUE(two_day.ok()) << two_day.status().ToString();
    if (two_day.ok()) fleet.forecaster = std::move(*two_day);
    return fleet;
  }

  static workloads::EvCountingWorkload* workload_;
  static sim::ClusterSpec cluster_;
  static sim::CostModel* cost_model_;
  static OfflineModel* model_;
};

workloads::EvCountingWorkload* EngineTest::workload_ = nullptr;
sim::ClusterSpec EngineTest::cluster_;
sim::CostModel* EngineTest::cost_model_ = nullptr;
OfflineModel* EngineTest::model_ = nullptr;

TEST_F(EngineTest, OfflineModelIsComplete) {
  EXPECT_GE(model_->configs.size(), 3u);
  EXPECT_EQ(model_->profiles.size(), model_->configs.size());
  EXPECT_EQ(model_->categories.NumCategories(), 3u);
  EXPECT_TRUE(model_->forecaster.has_value());
  EXPECT_FALSE(model_->train_category_sequence.empty());
  for (const ConfigProfile& p : model_->profiles) {
    EXPECT_FALSE(p.placements.empty());
    EXPECT_GT(p.work_core_s_per_video_s, 0.0);
  }
}

TEST_F(EngineTest, RunsWithoutOverflowAndProducesQuality) {
  IngestionEngine engine(workload_, model_, cluster_, cost_model_,
                         BaseOptions());
  auto result = engine.Run(Days(6));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->overflow_events, 0u);
  EXPECT_GT(result->segments, 20000u);
  EXPECT_GT(result->mean_quality, 0.5);
  EXPECT_LE(result->mean_quality, 1.0);
  EXPECT_GT(result->switch_count, 10u);
  EXPECT_LE(result->buffer_high_water_bytes, *BaseOptions().buffer_bytes);
}

TEST_F(EngineTest, AdaptiveBeatsBestRealTimeStaticOnQualityPerWork) {
  IngestionEngine engine(workload_, model_, cluster_, cost_model_,
                         BaseOptions());
  auto result = engine.Run(Days(6));
  ASSERT_TRUE(result.ok());
  // Best static config that fits 4 cores in real time.
  double best_static_quality = 0.0;
  video::StreamSource source(&workload_->content_process(), 4.0);
  for (const ConfigProfile& p : model_->profiles) {
    if (p.OnPremRuntime() > 4.0) continue;
    double q = 0.0;
    for (int64_t i = 0; i < static_cast<int64_t>(result->segments); ++i) {
      q += workload_->TrueQuality(
          p.config, source.Segment(static_cast<int64_t>(Days(6) / 4.0) + i)
                        .content);
    }
    best_static_quality = std::max(best_static_quality, q);
  }
  EXPECT_GT(result->total_quality, best_static_quality);
}

TEST_F(EngineTest, BufferDisabledNeverLags) {
  EngineOptions opts = BaseOptions();
  opts.enable_buffer = false;
  opts.enable_cloud = false;
  IngestionEngine engine(workload_, model_, cluster_, cost_model_, opts);
  auto result = engine.Run(Days(6));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->buffer_high_water_bytes, 0u);
  EXPECT_DOUBLE_EQ(result->cloud_usd, 0.0);
}

TEST_F(EngineTest, CloudSpendRespectsBudget) {
  EngineOptions opts = BaseOptions();
  opts.cloud_budget_usd_per_interval = 0.5;
  opts.buffer_bytes = 64ull << 20;  // small buffer forces cloud usage
  IngestionEngine engine(workload_, model_, cluster_, cost_model_, opts);
  auto result = engine.Run(Days(6));
  ASSERT_TRUE(result.ok());
  // One planned interval in this run: spend bounded by the budget.
  EXPECT_LE(result->cloud_usd, 0.5 + 1e-9);
}

TEST_F(EngineTest, GroundTruthTogglesImproveAccuracy) {
  EngineOptions standard = BaseOptions();
  EngineOptions truth = BaseOptions();
  truth.use_ground_truth_categories = true;
  IngestionEngine e1(workload_, model_, cluster_, cost_model_, standard);
  IngestionEngine e2(workload_, model_, cluster_, cost_model_, truth);
  auto r1 = e1.Run(Days(6));
  auto r2 = e2.Run(Days(6));
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_GT(r1->misclassified, 0u);
  EXPECT_EQ(r2->misclassified, 0u);
  EXPECT_GE(r2->total_quality, r1->total_quality * 0.98);
}

TEST_F(EngineTest, GroundTruthForecastIsTheNextIntervalsTrueHistogram) {
  // With ground-truth categories every segment's decision category is its
  // true category, so a per-segment trace records the true sequence. Each
  // boundary's ground-truth forecast must then be exactly the normalized
  // histogram of the interval it plans.
  EngineOptions opts = BaseOptions();
  opts.plan_interval = Hours(6);
  opts.use_ground_truth_forecast = true;
  opts.use_ground_truth_categories = true;
  opts.record_trace = true;
  opts.trace_resolution_s = model_->segment_seconds;
  IngestionEngine engine(workload_, model_, cluster_, cost_model_, opts);
  ASSERT_TRUE(engine.Start(Days(6)).ok());
  std::vector<std::vector<double>> forecasts;
  while (!engine.Done()) {
    if (engine.AtPlanBoundary()) {
      ASSERT_TRUE(engine.PrepareBoundary().ok());
      forecasts.push_back(engine.boundary_forecast());
    }
    ASSERT_TRUE(engine.Step().ok());
  }

  const EngineResult& result = engine.partial_result();
  ASSERT_EQ(result.trace.size(), result.segments);
  const size_t per_interval =
      static_cast<size_t>(engine.segments_per_interval());
  ASSERT_EQ(forecasts.size(), 4u);
  ASSERT_EQ(result.segments, forecasts.size() * per_interval);
  for (size_t b = 0; b < forecasts.size(); ++b) {
    std::vector<double> realized(model_->categories.NumCategories(), 0.0);
    for (size_t i = b * per_interval; i < (b + 1) * per_interval; ++i) {
      realized[result.trace[i].category] += 1.0;
    }
    EXPECT_EQ(forecasts[b], NormalizeHistogram(realized)) << "boundary " << b;
  }
}

TEST_F(EngineTest, SimplexBackendMatchesStructuredEndToEnd) {
  // The two planner backends return the same optimum, so a full ingestion
  // run must be identical on both (same plans -> same switch decisions).
  EngineOptions simplex_opts = BaseOptions();
  simplex_opts.planner_backend = PlannerBackend::kSimplex;
  IngestionEngine structured(workload_, model_, cluster_, cost_model_,
                             BaseOptions());
  IngestionEngine simplex(workload_, model_, cluster_, cost_model_,
                          simplex_opts);
  auto rs = structured.Run(Days(6));
  auto rx = simplex.Run(Days(6));
  ASSERT_TRUE(rs.ok() && rx.ok());
  EXPECT_NEAR(rs->total_quality, rx->total_quality,
              1e-6 * rs->total_quality);
  EXPECT_EQ(rs->switch_count, rx->switch_count);
  EXPECT_EQ(rs->misclassified, rx->misclassified);
}

TEST_F(EngineTest, NoTypeBLeavesOnlyTypeAErrors) {
  EngineOptions opts = BaseOptions();
  opts.eliminate_type_b_errors = true;
  IngestionEngine engine(workload_, model_, cluster_, cost_model_, opts);
  auto result = engine.Run(Days(6));
  ASSERT_TRUE(result.ok());
  // Misclassification should drop well below the standard switcher's.
  EngineOptions std_opts = BaseOptions();
  IngestionEngine std_engine(workload_, model_, cluster_, cost_model_,
                             std_opts);
  auto std_result = std_engine.Run(Days(6));
  ASSERT_TRUE(std_result.ok());
  EXPECT_LT(result->MisclassificationRate(),
            std_result->MisclassificationRate());
}

TEST_F(EngineTest, ErrorTaxonomySumsToMisclassified) {
  IngestionEngine engine(workload_, model_, cluster_, cost_model_,
                         BaseOptions());
  auto result = engine.Run(Days(6));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->type_a_errors + result->type_b_errors,
            result->misclassified);
}

TEST_F(EngineTest, TraceRecordsFig3Series) {
  EngineOptions opts = BaseOptions();
  opts.record_trace = true;
  opts.trace_resolution_s = 600.0;
  IngestionEngine engine(workload_, model_, cluster_, cost_model_, opts);
  auto result = engine.Run(Days(6));
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->trace.size(), 100u);
  for (const TracePoint& p : result->trace) {
    EXPECT_GE(p.quality, 0.0);
    EXPECT_LE(p.quality, 1.0);
    EXPECT_GE(p.work_core_s_per_s, 0.0);
    EXPECT_GE(p.buffer_bytes, 0.0);
  }
  // Cumulative cloud spend is monotone.
  for (size_t i = 1; i < result->trace.size(); ++i) {
    EXPECT_GE(result->trace[i].cloud_usd_cumulative,
              result->trace[i - 1].cloud_usd_cumulative);
  }
}

TEST_F(EngineTest, WorkBudgetOverrideCapsPlannedWork) {
  EngineOptions opts = BaseOptions();
  opts.work_budget_override = 1.0;  // far below 4 cores
  IngestionEngine tight(workload_, model_, cluster_, cost_model_, opts);
  opts.work_budget_override = 100.0;
  IngestionEngine loose(workload_, model_, cluster_, cost_model_, opts);
  auto r_tight = tight.Run(Days(6));
  auto r_loose = loose.Run(Days(6));
  ASSERT_TRUE(r_tight.ok() && r_loose.ok());
  EXPECT_LT(r_tight->work_core_seconds, r_loose->work_core_seconds);
  EXPECT_LE(r_tight->total_quality, r_loose->total_quality + 1e-9);
}

TEST_F(EngineTest, DeterministicGivenSeed) {
  IngestionEngine a(workload_, model_, cluster_, cost_model_, BaseOptions());
  IngestionEngine b(workload_, model_, cluster_, cost_model_, BaseOptions());
  auto ra = a.Run(Days(6));
  auto rb = b.Run(Days(6));
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_DOUBLE_EQ(ra->total_quality, rb->total_quality);
  EXPECT_EQ(ra->switch_count, rb->switch_count);
  EXPECT_DOUBLE_EQ(ra->cloud_usd, rb->cloud_usd);
}

TEST_F(EngineTest, StartRefusesABootstrapOutsideTheModelsCategories) {
  // The history sizes its split counts by |C|, so a bootstrap naming a
  // category the model lacks (code 3 fits the 2 bits of 3 categories) is
  // refused before any state exists.
  OfflineModel model = *model_;
  model.train_category_sequence.Set(
      model.train_category_sequence.size() - 1,
      static_cast<uint8_t>(model.categories.NumCategories()));
  IngestionEngine engine(workload_, &model, cluster_, cost_model_,
                         BaseOptions());
  Status started = engine.Start(Days(6));
  EXPECT_EQ(started.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.started());

  // A restored run reads that tail in place as its oldest history, so
  // Restore refuses the model too, even for a state a sound model wrote.
  IngestionEngine sound(workload_, model_, cluster_, cost_model_,
                        BaseOptions());
  ASSERT_TRUE(sound.Start(Days(6)).ok());
  auto snapshot = sound.Checkpoint();
  ASSERT_TRUE(snapshot.ok());
  Status restored = engine.Restore(*snapshot);
  EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.started());
}

TEST_F(EngineTest, HistoryRingHoldsOnlyWhatTheRunReadsBack) {
  // The engine keeps the categories it decides as far back as its last
  // plan boundary reads: the window W plus one plan interval with a
  // forecaster, 2W without one, or only the categories decided before
  // that boundary, ((n - 1) / interval) * interval, when those are fewer.
  // A run with no second boundary reads none back and keeps one category.
  // The fixture's 1-day span is 21,600 segments of 4 s.
  auto ring_after_start = [&](const OfflineModel& model, SimTime duration,
                              SimTime interval) -> size_t {
    return RingAfterStart(model, duration, interval).size();
  };
  // W = 21,600 and 225-segment plans: a 5,400-segment run ends on a
  // boundary, so its last one opens at 5,175; then 8 days.
  EXPECT_EQ(ring_after_start(*model_, Hours(6), Minutes(15)), 5175u);
  EXPECT_EQ(ring_after_start(*model_, Days(8), Minutes(15)), 21825u);
  // 2-day plans widen W to one plan interval, 43,200 segments: an 8-day
  // run (`single-covid`'s geometry) keeps the reach, 86,400.
  EXPECT_EQ(ring_after_start(*model_, Days(8), Days(2)), 86400u);
  // One interval, or less, has no second boundary.
  EXPECT_EQ(ring_after_start(*model_, Days(1), Days(1)), 1u);
  EXPECT_EQ(ring_after_start(*model_, Hours(6), Days(1)), 1u);
  // Two 1-day intervals end on a boundary: the second reads back the
  // first's 21,600. A partial third interval opens at 43,200, under the
  // reach of W + 21,600 = 43,200, and a partial second one at 21,600.
  EXPECT_EQ(ring_after_start(*model_, Days(2), Days(1)), 21600u);
  EXPECT_EQ(ring_after_start(*model_, Days(2.5), Days(1)), 43200u);
  EXPECT_EQ(ring_after_start(*model_, Days(1.5), Days(1)), 21600u);
  // Without a forecaster W is one plan interval.
  OfflineModel plain = *model_;
  plain.forecaster.reset();
  EXPECT_EQ(ring_after_start(plain, Hours(6), Hours(1)), 1800u);
  // A partial second interval: its boundary at 3,600 reads back 3,600.
  EXPECT_EQ(ring_after_start(plain, Hours(6), Hours(4)), 3600u);
  // 2-s segments under a 2-day span (W = 86,400): a 6-h run in 15-minute
  // plans (`fleet-replan`'s geometry) holds the 10,350 categories before
  // its last boundary, not 2W = 172,800, and in 1-hour plans
  // (`serve-churn`'s) 9,000; a 2-day run in 1-day plans (`fleet-steady`'s)
  // holds its first day, 43,200, not W + 43,200 = 129,600.
  const OfflineModel fleet = FleetGeometryModel();
  EXPECT_EQ(ring_after_start(fleet, Hours(6), Minutes(15)), 10350u);
  EXPECT_EQ(ring_after_start(fleet, Hours(6), Hours(1)), 9000u);
  EXPECT_EQ(ring_after_start(fleet, Days(2), Days(1)), 43200u);
}

TEST_F(EngineTest, HistoryRingStoresTwoBitsPerCategoryOfThree) {
  // Three categories take 2-bit codes, 32 to a word: a `fleet-steady` run
  // (2 days of 2-s segments in 1-day plans) keeps its 43,200 categories in
  // 1,350 words, 10,800 bytes, where one byte each took 43,200; so does
  // the model's training sequence.
  ASSERT_EQ(model_->categories.NumCategories(), 3u);
  const CategorySequence ring =
      RingAfterStart(FleetGeometryModel(), Days(2), Days(1));
  EXPECT_EQ(ring.size(), 43200u);
  EXPECT_EQ(ring.width(), 2u);
  EXPECT_EQ(ring.words().size() * sizeof(uint64_t), 10800u);
  const CategorySequence& train = model_->train_category_sequence;
  EXPECT_EQ(train.width(), 2u);
  EXPECT_EQ(train.words().size(), (train.size() + 31) / 32);
}

TEST_F(EngineTest, ContentIsBuiltThroughTheLastInstantTheRunReads) {
  // Start and Restore build content through the midpoint of the run's last
  // segment and no further, and no Step() reads content they did not
  // build. A 2-day run from day 16 in 1-day plans builds event days 16 and
  // 17; one plan interval more would reach day 19.
  const double seg = model_->segment_seconds;
  auto midpoint = [seg](int64_t segment) {
    return static_cast<double>(segment) * seg + 0.5 * seg;
  };
  const int64_t first = static_cast<int64_t>(Days(16) / seg);
  EngineOptions opts = BaseOptions();
  opts.duration = Days(2);
  const int64_t n = static_cast<int64_t>(opts.duration / seg);

  RecordedCamera camera;
  IngestionEngine engine(&camera, model_, cluster_, cost_model_, opts);
  ASSERT_TRUE(engine.Start(Days(16)).ok());
  EXPECT_EQ(camera.recorder().materialized_end(), midpoint(first + n - 1));
  EXPECT_EQ(camera.built_event_days(), 2u);
  ASSERT_TRUE(engine.RunUntil(Days(17) + Hours(3)).ok());
  auto snapshot = engine.Checkpoint();
  ASSERT_TRUE(snapshot.ok());
  while (!engine.Done()) ASSERT_TRUE(engine.Step().ok());
  EXPECT_EQ(camera.recorder().reads_not_built(), 0u);
  EXPECT_EQ(camera.built_event_days(), 2u);

  // Restored on a fresh camera, the rest of the run reads day 17 alone.
  RecordedCamera fresh;
  IngestionEngine restored(&fresh, model_, cluster_, cost_model_, opts);
  ASSERT_TRUE(restored.Restore(*snapshot).ok());
  EXPECT_EQ(fresh.recorder().materialized_end(), midpoint(first + n - 1));
  EXPECT_EQ(fresh.built_event_days(), 1u);
  while (!restored.Done()) ASSERT_TRUE(restored.Step().ok());
  EXPECT_EQ(fresh.recorder().reads_not_built(), 0u);
  EXPECT_EQ(fresh.built_event_days(), 1u);
  EXPECT_TRUE(EngineResultsIdentical(restored.partial_result(),
                                     engine.partial_result()));
}

TEST_F(EngineTest, GroundTruthLookAheadIsBuiltBeforeItIsRead) {
  // Forecasting from ground truth, the boundary at day 17 opening the last,
  // partial interval of a 1.5-day run reads the whole day ahead: Start
  // builds through the midpoint of that look-ahead's last segment, past
  // the run's own end, and no read of the run or of a look-ahead builds on
  // first use.
  const double seg = model_->segment_seconds;
  const int64_t first = static_cast<int64_t>(Days(16) / seg);
  const int64_t per_day = static_cast<int64_t>(Days(1) / seg);
  EngineOptions opts = BaseOptions();
  opts.duration = Days(1.5);
  opts.use_ground_truth_forecast = true;

  RecordedCamera camera;
  IngestionEngine engine(&camera, model_, cluster_, cost_model_, opts);
  ASSERT_TRUE(engine.Start(Days(16)).ok());
  EXPECT_EQ(camera.recorder().materialized_end(),
            static_cast<double>(first + 2 * per_day - 1) * seg + 0.5 * seg);
  size_t boundaries = 0;
  while (!engine.Done()) {
    if (engine.AtPlanBoundary()) ++boundaries;
    ASSERT_TRUE(engine.Step().ok());
  }
  EXPECT_EQ(boundaries, 2u);
  EXPECT_EQ(camera.recorder().reads_not_built(), 0u);
  EXPECT_EQ(camera.built_event_days(), 2u);
}

TEST_F(EngineTest, RestoreRefusesAHistoryTheModelWouldNotGiveTheRun) {
  // The ring is sized from the run's length, so a snapshot whose run was
  // lengthened holds too short a ring: past its end, the features would
  // read further back than the ring reaches. A window the model does not
  // derive is refused too, and nothing of the session is kept.
  EngineOptions opts = BaseOptions();
  opts.duration = Hours(6);
  opts.plan_interval = Minutes(15);
  IngestionEngine engine(workload_, model_, cluster_, cost_model_, opts);
  ASSERT_TRUE(engine.Start(Days(6)).ok());
  auto snapshot = engine.Checkpoint();
  ASSERT_TRUE(snapshot.ok());
  IngestState longer = *snapshot;
  longer.n_segments *= 8;
  IngestState wider = *snapshot;
  wider.history_window += 1;
  for (const IngestState* edited : {&longer, &wider}) {
    IngestionEngine restored(workload_, model_, cluster_, cost_model_, opts);
    EXPECT_EQ(restored.Restore(*edited).code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(restored.started());
  }
  IngestionEngine restored(workload_, model_, cluster_, cost_model_, opts);
  EXPECT_TRUE(restored.Restore(*snapshot).ok());
}

TEST_F(EngineTest, StartRefusesANegativeDurationOrARunPastInt64) {
  // The checkpoint reader accepts the segment window of every run Start
  // makes: no negative length, and a last segment index within int64.
  auto refused = [&](SimTime duration, SimTime start) {
    EngineOptions opts = BaseOptions();
    opts.duration = duration;
    IngestionEngine engine(workload_, model_, cluster_, cost_model_, opts);
    Status started = engine.Start(start);
    EXPECT_EQ(started.code(), StatusCode::kInvalidArgument)
        << "duration " << duration << ", start " << start;
    EXPECT_FALSE(engine.started());
  };
  refused(-Days(1), Days(6));
  refused(-1.0, Days(6));  // under one segment: zero segments, still negative
  // 2^62 + 1024 segments from segment 2^62 end past INT64_MAX.
  refused((0x1p62 + 1024.0) * 4.0, 0x1p62 * 4.0);
}

TEST_F(EngineTest, GroundTruthLookAheadPastInt64IsRefused) {
  // In the ground-truth-forecast mode the boundary that opens the last,
  // partial interval reads a whole plan interval ahead: 1000 segments from
  // 2^63 - 1024 in intervals of 600 read up to index 2^63 + 175. Start and
  // Restore refuse such a run; were it accepted, that boundary would
  // overflow the segment index (the sanitizer build fails on it).
  const double seg = model_->segment_seconds;
  EngineOptions opts = BaseOptions();
  opts.duration = 1000.0 * seg;
  opts.plan_interval = 600.0 * seg;
  opts.use_ground_truth_forecast = true;
  IngestionEngine engine(workload_, model_, cluster_, cost_model_, opts);
  Status started = engine.Start((0x1p63 - 1024.0) * seg);
  if (started.ok()) {
    while (!engine.Done()) ASSERT_TRUE(engine.Step().ok());
  }
  EXPECT_EQ(started.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.started());

  // From 2^63 - 2048 the same run reads up to 2^63 - 849 and starts.
  IngestionEngine fits(workload_, model_, cluster_, cost_model_, opts);
  ASSERT_TRUE(fits.Start((0x1p63 - 2048.0) * seg).ok());
  auto snapshot = fits.Checkpoint();
  ASSERT_TRUE(snapshot.ok());
  // Restored from INT64_MAX - 1199 its look-ahead ends on INT64_MAX itself;
  // one segment later it passes it, which only the ground-truth mode reads.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  snapshot->first_segment = kMax - 1199;
  IngestionEngine at_limit(workload_, model_, cluster_, cost_model_, opts);
  EXPECT_TRUE(at_limit.Restore(*snapshot).ok());
  snapshot->first_segment = kMax - 1198;
  IngestionEngine past(workload_, model_, cluster_, cost_model_, opts);
  EXPECT_EQ(past.Restore(*snapshot).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(past.started());
  opts.use_ground_truth_forecast = false;
  IngestionEngine normal(workload_, model_, cluster_, cost_model_, opts);
  EXPECT_TRUE(normal.Restore(*snapshot).ok());
}

TEST_F(EngineTest, ContentWindowNearTheInt64SegmentLimitDoesNotOverflow) {
  // Start accepts a start and a duration that each fit in int64 segments,
  // and Restore a checkpoint's counts as read; the content window both
  // build passes the int64 range, which must not overflow (the
  // sanitizer build fails on signed overflow).
  EngineOptions opts = BaseOptions();
  opts.duration = 0x1p62 * 4.0;  // 2^62 segments of 4 s
  IngestionEngine engine(workload_, model_, cluster_, cost_model_, opts);
  ASSERT_TRUE(engine.Start(0x1p62 * 4.0).ok());
  auto snapshot = engine.Checkpoint();
  ASSERT_TRUE(snapshot.ok());
  snapshot->first_segment = std::numeric_limits<int64_t>::max();
  snapshot->next_index = std::numeric_limits<int64_t>::max();
  IngestionEngine restored(workload_, model_, cluster_, cost_model_, opts);
  EXPECT_TRUE(restored.Restore(*snapshot).ok());
}

}  // namespace
}  // namespace sky::core
