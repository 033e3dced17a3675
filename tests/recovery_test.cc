// Crash-consistent recovery and self-healing supervision. Gates:
//  - engine level: a run interrupted by a throwing workload UDF, restored
//    from its last plan-boundary Checkpoint() and driven to completion, is
//    BITWISE identical (full trace included) to the run that never faulted;
//  - checkpoint wire format: serialize -> deserialize -> re-serialize is
//    byte-stable, a restored fresh engine finishes bitwise identical to the
//    original (also from between PrepareBoundary and InstallPlan),
//    corrupt/truncated/missing checkpoint files error cleanly, and
//    checksum-valid states a restored engine would crash on are refused;
//  - fleet level: StreamSet supervision restarts a failed stream from its
//    boundary snapshot — results bitwise identical to the never-faulted
//    fleet at worker counts {1, 2, 8} — and a stream that keeps failing
//    burns its restart budget and quarantines without deadlocking anyone;
//  - fleet checkpoints: SaveCheckpoint -> RecoverFromCheckpoint -> complete
//    reproduces the uninterrupted fleet bitwise, also under a shared budget
//    that binds, and saving leaves the saving fleet's own run unperturbed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/multi_stream.h"
#include "core/offline.h"
#include "dag/thread_pool.h"
#include "io/checkpoint_io.h"
#include "ml/nn.h"
#include "sim/faults.h"
#include "support/oracles.h"
#include "workloads/ev_counting.h"

namespace sky {
namespace {

using core::EngineOptions;
using core::EngineResult;
using core::EngineResultsIdentical;
using core::IngestionEngine;
using core::IngestState;
using core::OfflineModel;
using core::StreamEngineJob;
using core::StreamSet;
using core::StreamSetOptions;

/// EvCountingWorkload that throws from MeasuredQuality once armed, then
/// disarms — the transient "UDF crashed once" failure a supervised restart
/// must absorb.
class ThrowingWorkload : public workloads::EvCountingWorkload {
 public:
  explicit ThrowingWorkload(uint64_t seed)
      : workloads::EvCountingWorkload(seed) {}

  void ArmAfter(long n) { remaining_ = n; }

  double MeasuredQuality(const core::KnobConfig& config,
                         const video::ContentState& content,
                         Rng* rng) const override {
    if (remaining_ >= 0 && remaining_-- == 0) {
      throw std::runtime_error("injected workload failure");
    }
    return workloads::EvCountingWorkload::MeasuredQuality(config, content,
                                                          rng);
  }

 private:
  mutable long remaining_ = -1;
};

/// Throws on EVERY MeasuredQuality call past the arming point — the
/// persistent failure that must exhaust the restart budget.
class PersistentlyThrowingWorkload : public workloads::EvCountingWorkload {
 public:
  PersistentlyThrowingWorkload(uint64_t seed, long after)
      : workloads::EvCountingWorkload(seed), after_(after) {}

  double MeasuredQuality(const core::KnobConfig& config,
                         const video::ContentState& content,
                         Rng* rng) const override {
    if (calls_++ >= after_) {
      throw std::runtime_error("persistent workload failure");
    }
    return workloads::EvCountingWorkload::MeasuredQuality(config, content,
                                                          rng);
  }

 private:
  long after_;
  mutable long calls_ = 0;
};

class RecoveryTest : public ::testing::Test {
 protected:
  static constexpr size_t kStreams = 5;

  static void SetUpTestSuite() {
    cluster_.cores = 4;
    cost_model_ = new sim::CostModel(1.8);
    core::OfflineOptions opts;
    opts.segment_seconds = 4.0;
    opts.train_horizon = Days(3);
    opts.num_categories = 3;
    opts.train_forecaster = false;  // keep the fixture fast
    for (size_t s = 0; s < kStreams; ++s) {
      workloads_[s] =
          new workloads::EvCountingWorkload(static_cast<uint64_t>(8400 + s));
      auto model =
          core::RunOfflinePhase(*workloads_[s], cluster_, *cost_model_, opts);
      ASSERT_TRUE(model.ok()) << model.status().ToString();
      models_[s] = new OfflineModel(std::move(*model));
    }
    // engine_test's fit, for the states only a forecaster makes: six
    // training days and a forecaster for 1-day plans.
    forecast_workload_ = new workloads::EvCountingWorkload();
    opts.train_horizon = Days(6);
    opts.train_forecaster = true;
    opts.forecaster.input_span = Days(1);
    opts.forecaster.planned_interval = Days(1);
    auto model = core::RunOfflinePhase(*forecast_workload_, cluster_,
                                       *cost_model_, opts);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    forecast_model_ = new OfflineModel(std::move(*model));
  }
  static void TearDownTestSuite() {
    for (size_t s = 0; s < kStreams; ++s) {
      delete models_[s];
      delete workloads_[s];
    }
    delete forecast_model_;
    delete forecast_workload_;
    delete cost_model_;
  }

  static EngineOptions BaseOptions() {
    EngineOptions opts;
    opts.duration = Hours(6);
    opts.plan_interval = Hours(2);
    opts.cloud_budget_usd_per_interval = 1.0;
    // Traces make the bitwise comparisons maximally sensitive.
    opts.record_trace = true;
    opts.trace_resolution_s = 300.0;
    return opts;
  }

  static std::vector<StreamEngineJob> MakeJobs() {
    std::vector<StreamEngineJob> jobs;
    for (size_t s = 0; s < kStreams; ++s) {
      StreamEngineJob job;
      job.workload = workloads_[s];
      job.model = models_[s];
      job.cluster = cluster_;
      job.cost_model = cost_model_;
      job.options = BaseOptions();
      job.start_time = Days(3);
      jobs.push_back(job);
    }
    return jobs;
  }

  /// Runs a joint fleet to its k-th lockstep boundary past the start (2 h
  /// apart) and ends the run there, before that boundary's joint solve.
  static void RunToBoundary(StreamSet* set, size_t k) {
    size_t seen = 0;
    ASSERT_TRUE(
        set->RunToCompletion(nullptr, [&] { return seen++ < k; }).ok());
  }

  static std::vector<Result<EngineResult>> ReferenceResults(
      StreamSetOptions options = {}) {
    auto set = StreamSet::Create(MakeJobs(), options);
    EXPECT_TRUE(set.ok());
    while (!set->Done()) EXPECT_TRUE(set->Step().ok());
    return set->Results();
  }

  /// A shared joint budget a quarter of the way from the fleet's
  /// all-cheapest joint cost to its all-dearest one, so it binds at every
  /// boundary.
  static double BindingSharedBudget() {
    auto set = StreamSet::Create(MakeJobs(), StreamSetOptions{});
    EXPECT_TRUE(set.ok());
    double cheapest = 0.0;
    double dearest = 0.0;
    for (size_t v = 0; v < set->num_streams(); ++v) {
      const std::vector<double>& costs = set->engine(v)->config_costs();
      cheapest += *std::min_element(costs.begin(), costs.end());
      dearest += *std::max_element(costs.begin(), costs.end());
    }
    return cheapest + 0.25 * (dearest - cheapest);
  }

  /// 1-day plans over two days on the forecasting fit.
  static EngineOptions ForecastOptions() {
    EngineOptions opts;
    opts.duration = Days(2);
    opts.plan_interval = Days(1);
    opts.cloud_budget_usd_per_interval = 2.0;
    opts.buffer_bytes = 4ull << 30;
    return opts;
  }

  /// A Checkpoint() of the forecasting fit's engine half a day into its
  /// first plan interval, holding the features its first boundary stored
  /// for the next one's fine-tune. The reader accepts it as taken, so each
  /// refusal of an edited copy is the edit's.
  static IngestState MidIntervalForecastState() {
    IngestionEngine engine(forecast_workload_, forecast_model_, cluster_,
                           cost_model_, ForecastOptions());
    EXPECT_TRUE(engine.Start(Days(6)).ok());
    EXPECT_TRUE(engine.RunUntil(Days(6) + Hours(12)).ok());
    auto snap = engine.Checkpoint();
    EXPECT_TRUE(snap.ok());
    EXPECT_TRUE(snap->forecaster.has_value());
    EXPECT_FALSE(snap->plan_features.empty());
    std::string bytes;
    EXPECT_TRUE(io::SerializeIngestState(*snap, &bytes).ok());
    EXPECT_TRUE(io::DeserializeIngestState(bytes, *forecast_model_).ok());
    return std::move(*snap);
  }

  /// Serializes `state` and expects the reader to refuse it: each state
  /// handed here is one a restored engine would crash on, or one no engine
  /// writes.
  static void ExpectReaderRefuses(const IngestState& state,
                                  const std::string& label) {
    std::string bytes;
    ASSERT_TRUE(io::SerializeIngestState(state, &bytes).ok()) << label;
    auto parsed = io::DeserializeIngestState(bytes, *forecast_model_);
    ASSERT_FALSE(parsed.ok()) << label << ": the reader accepted the state";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << label;
  }

  static workloads::EvCountingWorkload* workloads_[kStreams];
  static OfflineModel* models_[kStreams];
  static workloads::EvCountingWorkload* forecast_workload_;
  static OfflineModel* forecast_model_;
  static sim::ClusterSpec cluster_;
  static sim::CostModel* cost_model_;
};

workloads::EvCountingWorkload* RecoveryTest::workloads_[kStreams] = {};
OfflineModel* RecoveryTest::models_[kStreams] = {};
workloads::EvCountingWorkload* RecoveryTest::forecast_workload_ = nullptr;
OfflineModel* RecoveryTest::forecast_model_ = nullptr;
sim::ClusterSpec RecoveryTest::cluster_;
sim::CostModel* RecoveryTest::cost_model_ = nullptr;

TEST_F(RecoveryTest, EngineRestoredFromBoundaryCheckpointMatchesFaultFree) {
  IngestionEngine clean(workloads_[0], models_[0], cluster_, cost_model_,
                        BaseOptions());
  auto fault_free = clean.Run(Days(3));
  ASSERT_TRUE(fault_free.ok());

  // The same run under an injected UDF throw mid-interval, driven by a
  // manual supervisor: snapshot every boundary, restore + replay on failure.
  sim::FaultPlan plan;
  plan.AddUdfThrow(Days(3) + Hours(3));
  sim::FaultInjector injector(plan, 11u);
  EngineOptions opts = BaseOptions();
  opts.fault_injector = &injector;
  IngestionEngine engine(workloads_[0], models_[0], cluster_, cost_model_,
                         opts);
  ASSERT_TRUE(engine.Start(Days(3)).ok());
  std::optional<IngestState> boundary_ckpt;
  size_t restarts = 0;
  while (!engine.Done()) {
    if (engine.AtPlanBoundary()) {
      auto snap = engine.Checkpoint();
      ASSERT_TRUE(snap.ok());
      boundary_ckpt.emplace(std::move(*snap));
    }
    try {
      Status stepped = engine.Step();
      ASSERT_TRUE(stepped.ok()) << stepped.ToString();
    } catch (const std::runtime_error&) {
      ASSERT_TRUE(boundary_ckpt.has_value());
      ASSERT_TRUE(engine.Restore(*boundary_ckpt).ok());
      ++restarts;
    }
  }
  EXPECT_EQ(restarts, 1u);  // the one-shot fired exactly once
  EXPECT_TRUE(EngineResultsIdentical(*fault_free, engine.partial_result()));
}

TEST_F(RecoveryTest, SerializedCheckpointRestoresBitwiseIntoFreshEngine) {
  IngestionEngine original(workloads_[0], models_[0], cluster_, cost_model_,
                           BaseOptions());
  ASSERT_TRUE(original.Start(Days(3)).ok());
  // Deliberately mid-interval: the snapshot must carry partial-interval
  // state (lag, histograms, RNG position), not just boundary state.
  ASSERT_TRUE(original.RunUntil(Days(3) + Hours(3)).ok());

  auto snap = original.Checkpoint();
  ASSERT_TRUE(snap.ok());
  std::string bytes;
  ASSERT_TRUE(io::SerializeIngestState(*snap, &bytes).ok());

  auto parsed = io::DeserializeIngestState(bytes, *models_[0]);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::string bytes_again;
  ASSERT_TRUE(io::SerializeIngestState(*parsed, &bytes_again).ok());
  EXPECT_EQ(bytes, bytes_again);  // byte-stable round trip

  IngestionEngine resumed(workloads_[0], models_[0], cluster_, cost_model_,
                          BaseOptions());
  ASSERT_TRUE(resumed.Restore(*parsed).ok());
  while (!original.Done()) ASSERT_TRUE(original.Step().ok());
  while (!resumed.Done()) ASSERT_TRUE(resumed.Step().ok());
  EXPECT_TRUE(EngineResultsIdentical(original.partial_result(),
                                     resumed.partial_result()));

  // And both match the uninterrupted batch run.
  IngestionEngine clean(workloads_[0], models_[0], cluster_, cost_model_,
                        BaseOptions());
  auto fault_free = clean.Run(Days(3));
  ASSERT_TRUE(fault_free.ok());
  EXPECT_TRUE(
      EngineResultsIdentical(*fault_free, resumed.partial_result()));
}

TEST_F(RecoveryTest, CheckpointBetweenPrepareAndInstallCarriesPlanFeatures) {
  // The fixture trains no forecaster; this case needs one, because the
  // features PrepareBoundary computes feed the NEXT boundary's fine-tune and
  // must travel in the checkpoint.
  OfflineModel model = *models_[0];
  core::ForecasterOptions fopts;
  fopts.input_span = Hours(12);
  fopts.planned_interval = BaseOptions().plan_interval;
  fopts.training_stride = Minutes(30);
  fopts.train_options.epochs = 10;
  auto forecaster = core::Forecaster::Train(
      model.train_category_sequence, model.segment_seconds,
      model.categories.NumCategories(), fopts);
  ASSERT_TRUE(forecaster.ok()) << forecaster.status().ToString();
  model.forecaster = std::move(*forecaster);

  IngestionEngine clean(workloads_[0], &model, cluster_, cost_model_,
                        BaseOptions());
  auto uninterrupted = clean.Run(Days(3));
  ASSERT_TRUE(uninterrupted.ok());

  // Stop at the second boundary, after its fine-tune and forecast but
  // before its plan is installed.
  IngestionEngine original(workloads_[0], &model, cluster_, cost_model_,
                           BaseOptions());
  ASSERT_TRUE(original.Start(Days(3)).ok());
  do {
    ASSERT_TRUE(original.Step().ok());
  } while (!original.AtPlanBoundary());
  ASSERT_TRUE(original.PrepareBoundary().ok());
  auto snap = original.Checkpoint();
  ASSERT_TRUE(snap.ok());
  ASSERT_FALSE(snap->plan_features.empty());
  std::string bytes;
  ASSERT_TRUE(io::SerializeIngestState(*snap, &bytes).ok());
  auto parsed = io::DeserializeIngestState(bytes, model);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // A fresh engine installs the plan a self-planning Step() would have.
  IngestionEngine resumed(workloads_[0], &model, cluster_, cost_model_,
                          BaseOptions());
  ASSERT_TRUE(resumed.Restore(*parsed).ok());
  auto plan = core::ComputeKnobPlan(model.categories,
                                    resumed.boundary_forecast(),
                                    resumed.config_costs(),
                                    resumed.PlanBudgetCoreSPerVideoS());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(resumed.InstallPlan(std::move(*plan)).ok());
  while (!resumed.Done()) ASSERT_TRUE(resumed.Step().ok());
  EXPECT_TRUE(EngineResultsIdentical(*uninterrupted, resumed.partial_result()));

  // The last boundary fine-tuned on the features that travelled in the
  // checkpoint, so the final states, forecaster weights included, match
  // byte for byte.
  auto final_bytes = [](const IngestionEngine& engine) {
    std::string out;
    auto state = engine.Checkpoint();
    EXPECT_TRUE(state.ok() && io::SerializeIngestState(*state, &out).ok());
    return out;
  };
  EXPECT_TRUE(final_bytes(clean) == final_bytes(resumed))
      << "final engine states differ";
}

TEST_F(RecoveryTest, CorruptCheckpointBytesAreRefused) {
  IngestionEngine engine(workloads_[0], models_[0], cluster_, cost_model_,
                         BaseOptions());
  ASSERT_TRUE(engine.Start(Days(3)).ok());
  ASSERT_TRUE(engine.RunUntil(Days(3) + Hours(1)).ok());
  auto snap = engine.Checkpoint();
  ASSERT_TRUE(snap.ok());
  std::string bytes;
  ASSERT_TRUE(io::SerializeIngestState(*snap, &bytes).ok());

  // Truncation and bit flips at several offsets: always a clean error.
  for (size_t cut : {size_t{0}, size_t{3}, bytes.size() / 2,
                     bytes.size() - 1}) {
    auto parsed =
        io::DeserializeIngestState(bytes.substr(0, cut), *models_[0]);
    EXPECT_FALSE(parsed.ok()) << "truncated at " << cut;
  }
  for (size_t flip : {size_t{0}, bytes.size() / 3, bytes.size() / 2}) {
    std::string mangled = bytes;
    mangled[flip] ^= 0x20;
    auto parsed = io::DeserializeIngestState(mangled, *models_[0]);
    EXPECT_FALSE(parsed.ok()) << "flipped at " << flip;
  }
}

TEST_F(RecoveryTest, CraftedPlanWidthIsRefusedWithValidChecksum) {
  IngestionEngine engine(workloads_[0], models_[0], cluster_, cost_model_,
                         BaseOptions());
  ASSERT_TRUE(engine.Start(Days(3)).ok());
  auto snap = engine.Checkpoint();
  ASSERT_TRUE(snap.ok());
  std::string bytes;
  ASSERT_TRUE(io::SerializeIngestState(*snap, &bytes).ok());

  // Layout up to the plan matrix: u32 version, u64 buffer capacity, seven
  // 8-byte fields, the RNG state string (u64 length at 68, bytes from 76),
  // the forecaster payload (one absent-flag byte: the fixture trains none),
  // u8 has_plan, u64 rows, u64 cols.
  uint64_t rng_bytes = 0;
  std::memcpy(&rng_bytes, &bytes[68], sizeof(rng_bytes));
  const size_t forecaster_at = 76 + rng_bytes;
  ASSERT_EQ(bytes[forecaster_at], 0);
  const size_t cols_at = forecaster_at + 1 + 1 + 8;
  uint64_t cols = 0;
  std::memcpy(&cols, &bytes[cols_at], sizeof(cols));
  // At Start no plan is installed, and the writer puts an empty one.
  ASSERT_EQ(snap->switcher.plan(), nullptr);
  ASSERT_EQ(cols, 0u);

  // 2^61 columns make cols * 8 wrap to 0, 2^61 + 1 to 8: a guard that
  // multiplies first divides by zero or lets a 2^64-byte matrix through.
  for (uint64_t crafted_cols : {uint64_t{1} << 61, (uint64_t{1} << 61) + 1}) {
    std::string crafted = bytes;
    std::memcpy(&crafted[cols_at], &crafted_cols, sizeof(crafted_cols));
    const size_t body = crafted.size() - sizeof(uint64_t);
    uint64_t sum = io::wire::Fnv1a64(crafted.data(), body);
    std::memcpy(&crafted[body], &sum, sizeof(sum));
    auto parsed = io::DeserializeIngestState(crafted, *models_[0]);
    ASSERT_FALSE(parsed.ok()) << "cols=" << crafted_cols;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

// The history ring of a serialized mid-run state. SerializeIngestState
// writes history_window at byte 44 (after the u32 version and six 8-byte
// fields); the run's own ring sits after the plan features as a u64 code
// count, a u64 word count and the words its codes are packed in.
constexpr size_t kHistoryWindowAt = 44;

struct SerializedRing {
  std::string bytes;   ///< SerializeIngestState of a mid-run state
  size_t count_at = 0; ///< offset of the ring's u64 code count
  uint64_t ring = 0;   ///< ring size: HistoryRingSize of the run
  uint64_t words = 0;  ///< words the ring's codes take
};

uint64_t U64At(const std::string& bytes, size_t at) {
  uint64_t v = 0;
  std::memcpy(&v, &bytes[at], sizeof(v));
  return v;
}

void SetU64At(std::string* bytes, size_t at, uint64_t v) {
  std::memcpy(&(*bytes)[at], &v, sizeof(v));
}

/// Re-seals the trailing FNV-1a, so the checksum passes and only the
/// parser's own checks stand between crafted bytes and a restore.
std::string Resealed(std::string bytes) {
  const size_t body = bytes.size() - sizeof(uint64_t);
  SetU64At(&bytes, body, io::wire::Fnv1a64(bytes.data(), body));
  return bytes;
}

TEST_F(RecoveryTest, CraftedHistoryRingIsRefusedWithValidChecksum) {
  IngestionEngine engine(workloads_[0], models_[0], cluster_, cost_model_,
                         BaseOptions());
  ASSERT_TRUE(engine.Start(Days(3)).ok());
  ASSERT_TRUE(engine.RunUntil(Days(3) + Hours(3)).ok());
  auto snap = engine.Checkpoint();
  ASSERT_TRUE(snap.ok());
  SerializedRing t;
  ASSERT_TRUE(io::SerializeIngestState(*snap, &t.bytes).ok());
  t.ring = snap->history.size();
  // No forecaster: the ring reaches back twice the window, or the run.
  ASSERT_EQ(t.ring, std::min<uint64_t>(static_cast<uint64_t>(snap->n_segments),
                                       2 * snap->history_window));
  ASSERT_EQ(U64At(t.bytes, kHistoryWindowAt), snap->history_window);

  // Walk the layout from the RNG state (u64 length at 68) on: the absent
  // forecaster's flag byte, has_plan, the plan shape and matrix, its
  // forecast and two doubles, the two boundary flags, the boundary
  // forecast and the (empty: no forecaster) plan features.
  const core::KnobPlan* plan = snap->switcher.plan();
  ASSERT_NE(plan, nullptr);
  size_t at = 76 + U64At(t.bytes, 68) + 1 + 1 + 16 +
              plan->alpha.data().size() * sizeof(double) + 8 +
              plan->forecast.size() * sizeof(double) + 16 + 2 + 8 +
              snap->boundary_forecast.size() * sizeof(double) + 8 +
              snap->plan_features.size() * sizeof(double);
  t.count_at = at;
  t.words = snap->history.words().size();
  const std::vector<uint64_t>& words = snap->history.words();
  ASSERT_EQ(U64At(t.bytes, at), t.ring);
  ASSERT_EQ(U64At(t.bytes, at + 8), t.words);
  ASSERT_EQ(std::memcmp(&t.bytes[at + 16], words.data(), 8 * t.words), 0);
  // The current configuration follows the ring: no position or length.
  ASSERT_EQ(U64At(t.bytes, at + 16 + 8 * t.words), snap->current_config);
  ASSERT_TRUE(io::DeserializeIngestState(Resealed(t.bytes), *models_[0]).ok());

  const uint64_t num_c = models_[0]->categories.NumCategories();
  const unsigned width = snap->history.width();
  ASSERT_EQ(width, 2u);
  const std::vector<uint8_t> codes = oracle::Unpacked(snap->history);
  struct Craft {
    std::string label;
    std::string bytes;
  };
  std::vector<Craft> crafts;
  auto craft = [&](std::string label, auto edit) {
    std::string bytes = t.bytes;
    edit(&bytes);
    crafts.push_back({std::move(label), Resealed(std::move(bytes))});
  };
  // Puts `count` codes in `ring_words` in place of the ring.
  auto replace_ring = [&](std::string* b, uint64_t count,
                          const std::vector<uint64_t>& ring_words) {
    std::string block;
    io::wire::Writer w(&block);
    w.U64(count);
    w.U64(ring_words.size());
    w.Raw(ring_words.data(), 8 * ring_words.size());
    b->replace(t.count_at, 16 + 8 * t.words, block);
  };
  // The ring is not the size the run keeps: one code short with consistent
  // framing, and a count its words do not hold.
  craft("ring one code short", [&](std::string* b) {
    std::vector<uint8_t> shorter(codes.begin(), codes.end() - 1);
    replace_ring(b, shorter.size(),
                 oracle::Packed(num_c, shorter).words());
  });
  craft("ring of 2^62 codes", [&](std::string* b) {
    SetU64At(b, t.count_at, uint64_t{1} << 62);
  });
  // The word count disagrees with the code count: one word more (framed
  // to match), and a count no payload holds (refused before allocating).
  craft("one word more than the codes take", [&](std::string* b) {
    std::vector<uint64_t> more = words;
    more.push_back(0);
    replace_ring(b, t.ring, more);
  });
  craft("2^61 words", [&](std::string* b) {
    SetU64At(b, t.count_at + 8, uint64_t{1} << 61);
  });
  // A bit past the last code: the 3,600-code ring leaves 16 codes of its
  // last word unused.
  ASSERT_NE(t.ring % (64 / width), 0u);
  craft("padding bit", [&](std::string* b) {
    const size_t last = t.count_at + 16 + 8 * (t.words - 1);
    SetU64At(b, last, U64At(*b, last) | (uint64_t{1} << 63));
  });
  // A category the model does not have, on the newest decided code: with
  // three categories, code 3 still fits the two bits.
  const size_t newest = static_cast<size_t>(snap->next_index - 1) % t.ring;
  for (uint64_t category = num_c; category < (uint64_t{1} << width);
       ++category) {
    craft("category " + std::to_string(category), [&](std::string* b) {
      std::vector<uint8_t> edited = codes;
      edited[newest] = static_cast<uint8_t>(category);
      replace_ring(b, t.ring,
                   oracle::Packed(num_c, edited).words());
    });
  }
  // A window other than the one Start derives, with a ring grown to match
  // it, so the bytes agree with each other and only the model disagrees;
  // then a window whose ring no payload holds.
  const uint64_t wider_ring =
      std::min<uint64_t>(static_cast<uint64_t>(snap->n_segments),
                         2 * (snap->history_window + 1));
  ASSERT_GT(wider_ring, t.ring);
  craft("window one wider", [&](std::string* b) {
    SetU64At(b, kHistoryWindowAt, snap->history_window + 1);
    std::vector<uint8_t> wider = codes;
    wider.resize(wider_ring, 0);
    replace_ring(b, wider_ring,
                 oracle::Packed(num_c, wider).words());
  });
  craft("window 2^61", [&](std::string* b) {
    SetU64At(b, kHistoryWindowAt, uint64_t{1} << 61);
  });

  for (const Craft& c : crafts) {
    auto parsed = io::DeserializeIngestState(c.bytes, *models_[0]);
    ASSERT_FALSE(parsed.ok()) << c.label;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << c.label;
  }
}

TEST_F(RecoveryTest, EngineStateOfAnotherVersionIsRefusedByName) {
  // A version-3 state stored the ring at twice the window with its write
  // position and length. Versions 4 and 5 stored it one byte per code, and
  // a version-4 ring holds the whole run when the run is shorter than the
  // reach, where this build keeps only what the last boundary reads back;
  // a 2-day run in 1-day plans is such a run. This build reads only the
  // version it writes, and names the version it refuses.
  IngestionEngine engine(forecast_workload_, forecast_model_, cluster_,
                         cost_model_, ForecastOptions());
  ASSERT_TRUE(engine.Start(Days(6)).ok());
  ASSERT_TRUE(engine.RunUntil(Days(6) + Hours(1)).ok());
  auto snap = engine.Checkpoint();
  ASSERT_TRUE(snap.ok());
  std::string bytes;
  ASSERT_TRUE(io::SerializeIngestState(*snap, &bytes).ok());
  for (uint32_t version : {3u, 4u, 5u}) {
    std::memcpy(&bytes[0], &version, sizeof(version));
    auto parsed =
        io::DeserializeIngestState(Resealed(bytes), *forecast_model_);
    ASSERT_FALSE(parsed.ok()) << "version " << version;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().ToString().find(
                  "unsupported checkpoint format version " +
                  std::to_string(version) + " (this build reads version 6)"),
              std::string::npos)
        << parsed.status().ToString();
  }
}

TEST_F(RecoveryTest, PlanFeaturesThatDoNotFitTheForecasterAreRefused) {
  // The next boundary fine-tunes the forecaster on the stored features,
  // which must be exactly its input width; a state without a forecaster
  // has none.
  IngestState snap = MidIntervalForecastState();
  const size_t width = snap.plan_features.size();
  ASSERT_EQ(width, snap.forecaster->options().input_splits *
                       forecast_model_->categories.NumCategories());
  for (size_t length : {size_t{1}, width - 1, width + 1}) {
    IngestState edited = snap;
    edited.plan_features.resize(length, 0.0);
    ExpectReaderRefuses(edited, "features of length " + std::to_string(length));
  }
  IngestState no_forecaster = snap;
  no_forecaster.forecaster.reset();
  ExpectReaderRefuses(no_forecaster, "features without a forecaster");
}

TEST_F(RecoveryTest, ForecasterWithAnotherCategoryCountIsRefused) {
  // The fine-tune's target is the model's |C|-wide histogram, so a
  // forecaster over |C| + 1 categories is refused, even with features that
  // fit it.
  IngestState snap = MidIntervalForecastState();
  const size_t wide = forecast_model_->categories.NumCategories() + 1;
  const core::ForecasterOptions fopts = snap.forecaster->options();
  Rng rng(7);
  ml::FeedForwardNet net(fopts.input_splits * wide, {16, 8}, wide, &rng);
  auto wider = core::Forecaster::FromParts(net.Snapshot(), fopts, wide, {});
  ASSERT_TRUE(wider.ok()) << wider.status().ToString();
  snap.forecaster = std::move(*wider);
  snap.plan_features.assign(fopts.input_splits * wide,
                            1.0 / static_cast<double>(wide));
  ExpectReaderRefuses(snap, "forecaster over |C| + 1 categories");
}

TEST_F(RecoveryTest, ForecasterOtherThanTheModelsIsRefused) {
  // The ring reaches back as far as the model's forecaster reads. A state
  // without that forecaster would forecast from the whole history, and one
  // whose forecaster spans more segments would read its features from
  // further back, both possibly past the ring.
  IngestState snap = MidIntervalForecastState();
  IngestState none = snap;
  none.forecaster.reset();
  none.plan_features.clear();
  ExpectReaderRefuses(none, "no forecaster under a model with one");

  core::ForecasterOptions fopts = snap.forecaster->options();
  fopts.input_span += 2 * forecast_model_->segment_seconds;
  auto longer = core::Forecaster::FromParts(
      snap.forecaster->SnapshotNet(), fopts,
      forecast_model_->categories.NumCategories(), {});
  ASSERT_TRUE(longer.ok()) << longer.status().ToString();
  snap.forecaster = std::move(*longer);
  ExpectReaderRefuses(snap, "a forecaster over a longer span");
}

TEST_F(RecoveryTest, SegmentWindowPastInt64IsRefused) {
  // Step() reads segment first_segment + next_index: a window whose last
  // index passes INT64_MAX, a negative length or a position outside the run
  // is refused, compared without overflowing.
  IngestState snap = MidIntervalForecastState();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  auto edited = [&](int64_t first, int64_t n, int64_t next) {
    IngestState e = snap;
    e.first_segment = first;
    e.n_segments = n;
    e.next_index = next;
    return e;
  };
  const int64_t n = snap.n_segments;
  const int64_t next = snap.next_index;
  ExpectReaderRefuses(edited(kMax - 2, n, next), "first INT64_MAX - 2");
  ExpectReaderRefuses(edited(kMax - n + 2, n, next), "last INT64_MAX + 1");
  ExpectReaderRefuses(edited(snap.first_segment, -1, 0), "negative length");
  ExpectReaderRefuses(edited(snap.first_segment, n, -1), "negative position");
  ExpectReaderRefuses(edited(snap.first_segment, n, n + 1), "past the run");

  // The last index may be INT64_MAX itself, and a finished run's position
  // its length.
  for (const IngestState& fits :
       {edited(kMax - n + 1, n, next), edited(snap.first_segment, n, n)}) {
    std::string bytes;
    ASSERT_TRUE(io::SerializeIngestState(fits, &bytes).ok());
    auto parsed = io::DeserializeIngestState(bytes, *forecast_model_);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  }
}

TEST_F(RecoveryTest, BoundaryForecastOfAnotherLengthIsRefusedAtRecovery) {
  // A prepared boundary is not prepared again, and the joint solve reads
  // one forecast entry per category: a fleet recovered with a stream whose
  // forecast has another length would fail that solve on every stream it
  // plans. The reader refuses the state instead, and an empty forecast at a
  // prepared boundary too; |C| entries restore and the fleet finishes.
  const std::string path = testing::TempDir() + "fleet_forecast.ckpt";
  {
    auto set = StreamSet::Create(MakeJobs(), StreamSetOptions{});
    ASSERT_TRUE(set.ok());
    RunToBoundary(&*set, 2);  // 4 h
    ASSERT_TRUE(set->SaveCheckpoint(path).ok());
  }
  auto saved = io::LoadFleetCheckpoint(path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  const size_t num_c = models_[1]->categories.NumCategories();
  ASSERT_EQ(num_c, 3u);
  for (size_t length : {size_t{1}, size_t{4}, size_t{0}, num_c}) {
    const std::string label = std::to_string(length) + "-entry forecast";
    auto state =
        io::DeserializeIngestState(saved->streams[1].state, *models_[1]);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    state->boundary_prepared = true;
    state->boundary_forecast.assign(length, 0.25);
    io::FleetCheckpoint crafted = *saved;
    ASSERT_TRUE(
        io::SerializeIngestState(*state, &crafted.streams[1].state).ok());
    ASSERT_TRUE(io::SaveFleetCheckpoint(crafted, path).ok());
    auto recovered = StreamSet::RecoverFromCheckpoint(MakeJobs(), path);
    if (length == num_c) {
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      ASSERT_TRUE(recovered->RunToCompletion(nullptr).ok());
      for (const Result<EngineResult>& r : recovered->Results()) {
        EXPECT_TRUE(r.ok()) << label << ": " << r.status().ToString();
      }
      continue;
    }
    ASSERT_FALSE(recovered.ok()) << label;
    EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument)
        << label;
    EXPECT_NE(recovered.status().message().find("boundary forecast"),
              std::string::npos)
        << label << ": " << recovered.status().ToString();
  }
  std::remove(path.c_str());
}

TEST_F(RecoveryTest, FleetSupervisionHealsBitwiseAcrossWorkerCounts) {
  auto reference = ReferenceResults();

  dag::ThreadPool pool_of_1(1);
  dag::ThreadPool pool_of_7(7);
  struct Case {
    const char* label;
    dag::ThreadPool* pool;
  } cases[] = {{"1 worker", nullptr},
               {"2 workers", &pool_of_1},
               {"8 workers", &pool_of_7}};
  for (const Case& c : cases) {
    // Stream 2's workload throws once mid-run; with a restart budget the
    // supervisor must absorb it and reproduce the fault-free fleet exactly.
    ThrowingWorkload bad(8402);
    std::vector<StreamEngineJob> jobs = MakeJobs();
    jobs[2].workload = &bad;
    StreamSetOptions options;
    options.max_stream_restarts = 2;
    auto set = StreamSet::Create(jobs, options);
    ASSERT_TRUE(set.ok());
    bad.ArmAfter(40);
    ASSERT_TRUE(set->RunToCompletion(c.pool).ok()) << c.label;
    ASSERT_TRUE(set->Done()) << c.label;
    EXPECT_EQ(set->total_restarts(), 1u) << c.label;
    EXPECT_EQ(set->stream_restarts(2), 1u) << c.label;

    auto results = set->Results();
    ASSERT_EQ(results.size(), kStreams);
    for (size_t v = 0; v < kStreams; ++v) {
      ASSERT_TRUE(reference[v].ok() && results[v].ok())
          << c.label << ", stream " << v;
      EXPECT_TRUE(EngineResultsIdentical(*reference[v], *results[v]))
          << c.label << ", stream " << v;
    }
  }
}

TEST_F(RecoveryTest, PersistentFailureExhaustsRestartBudgetWithoutDeadlock) {
  dag::ThreadPool pool_of_1(1);
  dag::ThreadPool pool_of_7(7);
  struct Case {
    const char* label;
    dag::ThreadPool* pool;
  } cases[] = {{"1 worker", nullptr},
               {"2 workers", &pool_of_1},
               {"8 workers", &pool_of_7}};
  for (const Case& c : cases) {
    PersistentlyThrowingWorkload bad(8401, 40);
    std::vector<StreamEngineJob> jobs = MakeJobs();
    jobs[1].workload = &bad;
    StreamSetOptions options;
    options.max_stream_restarts = 2;
    auto set = StreamSet::Create(jobs, options);
    ASSERT_TRUE(set.ok());
    ASSERT_TRUE(set->RunToCompletion(c.pool).ok()) << c.label;
    ASSERT_TRUE(set->Done()) << c.label;

    // The budget was spent, then the stream was declared dead; everyone
    // else finished every segment.
    EXPECT_EQ(set->stream_restarts(1), 2u) << c.label;
    auto results = set->Results();
    EXPECT_FALSE(results[1].ok()) << c.label;
    EXPECT_EQ(results[1].status().code(), StatusCode::kInternal) << c.label;
    size_t expected_segments = static_cast<size_t>(Hours(6) / 4.0);
    for (size_t v = 0; v < kStreams; ++v) {
      if (v == 1) continue;
      ASSERT_TRUE(results[v].ok()) << c.label << ", stream " << v;
      EXPECT_EQ(results[v]->segments, expected_segments) << c.label;
    }
  }
}

TEST_F(RecoveryTest, FleetCheckpointRecoversBitwiseMidRun) {
  const std::string path = testing::TempDir() + "fleet_mid_run.ckpt";
  // The derived shared budget (the streams' own budgets pooled), and one
  // that binds at every boundary, so the joint plans depend on the solve.
  StreamSetOptions binding;
  binding.shared_budget_core_s_per_video_s = BindingSharedBudget();
  for (const StreamSetOptions& options : {StreamSetOptions{}, binding}) {
    const std::string label =
        "shared budget " +
        std::to_string(options.shared_budget_core_s_per_video_s);
    auto reference = ReferenceResults(options);

    // Run half the fleet's horizon, which ends mid-interval, and
    // checkpoint. Saving must not perturb the run that saves: the set
    // finishes bitwise equal to the reference, and is then dropped like a
    // process that died after the save.
    {
      auto set = StreamSet::Create(MakeJobs(), options);
      ASSERT_TRUE(set.ok()) << label;
      const int64_t half = static_cast<int64_t>(Hours(3) / 4.0);
      for (int64_t i = 0; i < half; ++i) {
        ASSERT_TRUE(set->Step().ok()) << label;
      }
      ASSERT_TRUE(set->SaveCheckpoint(path).ok()) << label;
      ASSERT_TRUE(set->RunToCompletion(nullptr).ok()) << label;
      auto own_results = set->Results();
      for (size_t v = 0; v < kStreams; ++v) {
        ASSERT_TRUE(reference[v].ok() && own_results[v].ok())
            << label << ", stream " << v;
        EXPECT_TRUE(EngineResultsIdentical(*reference[v], *own_results[v]))
            << label << ", saving stream " << v;
      }
    }

    // A fresh process: same jobs, recovered state, driven to completion at
    // several worker counts — all bitwise equal to the uninterrupted fleet.
    dag::ThreadPool pool_of_7(7);
    for (dag::ThreadPool* pool : {static_cast<dag::ThreadPool*>(nullptr),
                                  &pool_of_7}) {
      auto recovered =
          StreamSet::RecoverFromCheckpoint(MakeJobs(), path, options);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      ASSERT_TRUE(recovered->RunToCompletion(pool).ok()) << label;
      auto results = recovered->Results();
      ASSERT_EQ(results.size(), kStreams);
      for (size_t v = 0; v < kStreams; ++v) {
        ASSERT_TRUE(reference[v].ok() && results[v].ok())
            << label << ", stream " << v;
        EXPECT_TRUE(EngineResultsIdentical(*reference[v], *results[v]))
            << label << ", stream " << v;
      }
    }
    std::remove(path.c_str());
  }
}

TEST_F(RecoveryTest, FleetCheckpointFileErrorsAreClean) {
  auto missing = io::LoadFleetCheckpoint(testing::TempDir() +
                                         "no_such_fleet.ckpt");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  const std::string path = testing::TempDir() + "fleet_corrupt.ckpt";
  {
    auto set = StreamSet::Create(MakeJobs(), StreamSetOptions{});
    ASSERT_TRUE(set.ok());
    RunToBoundary(&*set, 1);
    ASSERT_TRUE(set->SaveCheckpoint(path).ok());
  }

  // Recovering into a fleet of the wrong size is refused (while the file is
  // still valid).
  std::vector<StreamEngineJob> too_few = MakeJobs();
  too_few.pop_back();
  auto mismatched = StreamSet::RecoverFromCheckpoint(too_few, path);
  EXPECT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);

  // Flip one byte mid-file: the checksum must catch it before any parsing.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 128, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 128, SEEK_SET);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  auto corrupt = io::LoadFleetCheckpoint(path);
  EXPECT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kInvalidArgument);
  auto recovered = StreamSet::RecoverFromCheckpoint(MakeJobs(), path);
  EXPECT_FALSE(recovered.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sky
