// Dynamic fleet membership. Gates (membership changes at lockstep
// boundaries are bitwise-equivalent to a fleet born with the final
// membership, at worker counts {1, 2, 8}, whether made after a pause or
// inside RunToCompletion's boundary callback, the path `sky serve` takes):
//  - AddStream at a boundary: a fleet that admits a third stream mid-run
//    finishes bitwise-identical (traces included) to the rolling-restart
//    reference — RecoverFromCheckpoint of that boundary's snapshot with the
//    newcomer appended as a fresh trailing job;
//  - RemoveStream at a boundary: the surviving streams finish bitwise-
//    identical to a fleet recovered from the same snapshot with the removed
//    stream's slot excised, i.e. one that never carried the stream past
//    that boundary;
//  - ReconfigureStream at a boundary: the fleet finishes bitwise-identical
//    to one recovered from that boundary's snapshot and reconfigured before
//    it runs on;
//  - boundary discipline: add/remove of a live stream anywhere else is
//    kFailedPrecondition and leaves the fleet undisturbed;
//  - a newcomer is held to the fleet's lockstep cadence exactly as a
//    stream of Create is;
//  - CheapestFleetCostCoreSPerVideoS tracks membership — the admission
//    threshold `sky serve` prices newcomers against.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/multi_stream.h"
#include "core/offline.h"
#include "dag/thread_pool.h"
#include "io/checkpoint_io.h"
#include "workloads/ev_counting.h"

namespace sky {
namespace {

using core::EngineOptions;
using core::EngineResult;
using core::EngineResultsIdentical;
using core::OfflineModel;
using core::StreamEngineJob;
using core::StreamSet;
using core::StreamSetOptions;

class MembershipTest : public ::testing::Test {
 protected:
  static constexpr size_t kStreams = 3;

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
          new workloads::EvCountingWorkload(static_cast<uint64_t>(6100 + s));
      auto model =
          core::RunOfflinePhase(*workloads_[s], cluster_, *cost_model_, opts);
      ASSERT_TRUE(model.ok()) << model.status().ToString();
      models_[s] = new OfflineModel(std::move(*model));
    }
  }
  static void TearDownTestSuite() {
    for (size_t s = 0; s < kStreams; ++s) {
      delete models_[s];
      delete workloads_[s];
    }
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

  static StreamEngineJob MakeJob(size_t s, SimTime start) {
    StreamEngineJob job;
    job.workload = workloads_[s];
    job.model = models_[s];
    job.cluster = cluster_;
    job.cost_model = cost_model_;
    job.options = BaseOptions();
    job.start_time = start;
    return job;
  }

  /// Runs a joint fleet to its first lockstep boundary past the start and
  /// ends the run there, in the single-threaded window where membership
  /// changes are legal.
  static void RunToFirstBoundary(StreamSet* set) {
    size_t seen = 0;
    ASSERT_TRUE(
        set->RunToCompletion(nullptr, [&] { return seen++ < 1; }).ok());
    ASSERT_TRUE(set->AtLockstepBoundary());
  }

  /// A boundary callback that runs `change` at the first lockstep boundary
  /// past the start and lets the run go on.
  template <class Change>
  static std::function<bool()> AtFirstBoundary(Change change) {
    return [change, seen = size_t{0}]() mutable {
      if (seen++ == 1) change();
      return true;
    };
  }

  /// Worker counts 1 (no pool), 2 (caller + 1 pool thread), 8 (caller + 7).
  struct Case {
    const char* label;
    dag::ThreadPool* pool;
    bool in_callback;  ///< change inside the run, or after a pause
  };
  static std::vector<Case> Cases(dag::ThreadPool* pool_of_1,
                                 dag::ThreadPool* pool_of_7) {
    std::vector<Case> cases;
    for (bool in_callback : {false, true}) {
      cases.push_back({in_callback ? "1 worker, callback" : "1 worker",
                       nullptr, in_callback});
      cases.push_back({in_callback ? "2 workers, callback" : "2 workers",
                       pool_of_1, in_callback});
      cases.push_back({in_callback ? "8 workers, callback" : "8 workers",
                       pool_of_7, in_callback});
    }
    return cases;
  }

  static workloads::EvCountingWorkload* workloads_[kStreams];
  static OfflineModel* models_[kStreams];
  static sim::ClusterSpec cluster_;
  static sim::CostModel* cost_model_;
};

workloads::EvCountingWorkload* MembershipTest::workloads_[kStreams] = {};
OfflineModel* MembershipTest::models_[kStreams] = {};
sim::ClusterSpec MembershipTest::cluster_;
sim::CostModel* MembershipTest::cost_model_ = nullptr;

TEST_F(MembershipTest, AddAtBoundaryMatchesFleetBornWithFinalMembership) {
  // Reference: snapshot a {0, 1} fleet at the 2 h boundary, then recover
  // with stream 2 appended as a fresh trailing job starting AT that
  // boundary — by the RecoverFromCheckpoint contract, that IS a fleet whose
  // final membership existed from the newcomer's first plan onward.
  const std::string ckpt_path = "/tmp/sky_membership_add_ckpt.bin";
  {
    auto seed = StreamSet::Create({MakeJob(0, Days(3)), MakeJob(1, Days(3))},
                                  StreamSetOptions{});
    ASSERT_TRUE(seed.ok()) << seed.status().ToString();
    RunToFirstBoundary(&*seed);
    ASSERT_TRUE(seed->SaveCheckpoint(ckpt_path).ok());
  }
  const StreamEngineJob newcomer = MakeJob(2, Days(3) + Hours(2));
  auto reference = StreamSet::RecoverFromCheckpoint(
      {MakeJob(0, Days(3)), MakeJob(1, Days(3)), newcomer}, ckpt_path,
      StreamSetOptions{});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference->RunToCompletion().ok());
  auto ref_results = reference->Results();
  ASSERT_EQ(ref_results.size(), kStreams);

  // Live path, at every worker count: run {0, 1}, admit stream 2 at the
  // boundary, finish.
  dag::ThreadPool pool_of_1(1);
  dag::ThreadPool pool_of_7(7);
  for (const Case& c : Cases(&pool_of_1, &pool_of_7)) {
    auto set = StreamSet::Create({MakeJob(0, Days(3)), MakeJob(1, Days(3))},
                                 StreamSetOptions{});
    ASSERT_TRUE(set.ok()) << c.label;
    Result<size_t> slot = Status::Internal("never admitted");
    auto admit = [&] { slot = set->AddStream(newcomer); };
    if (c.in_callback) {
      ASSERT_TRUE(set->RunToCompletion(c.pool, AtFirstBoundary(admit)).ok())
          << c.label;
    } else {
      RunToFirstBoundary(&*set);
      admit();
      ASSERT_TRUE(set->RunToCompletion(c.pool).ok()) << c.label;
    }
    ASSERT_TRUE(slot.ok()) << c.label << ": " << slot.status().ToString();
    EXPECT_EQ(*slot, 2u) << c.label;
    EXPECT_EQ(set->num_streams(), kStreams) << c.label;
    auto results = set->Results();
    ASSERT_EQ(results.size(), kStreams);
    for (size_t v = 0; v < kStreams; ++v) {
      ASSERT_TRUE(ref_results[v].ok()) << "stream " << v;
      ASSERT_TRUE(results[v].ok()) << c.label << ", stream " << v;
      EXPECT_TRUE(EngineResultsIdentical(*ref_results[v], *results[v]))
          << c.label << ", stream " << v;
    }
  }
  std::remove(ckpt_path.c_str());
}

TEST_F(MembershipTest, RemoveAtBoundaryMatchesFleetWithoutTheStream) {
  // Snapshot a full {0, 1, 2} fleet at the 2 h boundary; the reference
  // recovers that snapshot with stream 1's slot excised — a fleet that
  // simply does not carry stream 1 past the boundary.
  const std::string ckpt_path = "/tmp/sky_membership_rm_ckpt.bin";
  {
    auto seed = StreamSet::Create({MakeJob(0, Days(3)), MakeJob(1, Days(3)),
                                   MakeJob(2, Days(3))},
                                  StreamSetOptions{});
    ASSERT_TRUE(seed.ok()) << seed.status().ToString();
    RunToFirstBoundary(&*seed);
    ASSERT_TRUE(seed->SaveCheckpoint(ckpt_path).ok());
  }
  auto full = io::LoadFleetCheckpoint(ckpt_path);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full->streams.size(), kStreams);
  io::FleetCheckpoint doctored;
  doctored.streams.push_back(full->streams[0]);
  doctored.streams.push_back(full->streams[2]);
  auto reference = StreamSet::RecoverFromCheckpoint(
      {MakeJob(0, Days(3)), MakeJob(2, Days(3))}, doctored,
      StreamSetOptions{});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference->RunToCompletion().ok());
  auto ref_results = reference->Results();
  ASSERT_EQ(ref_results.size(), 2u);

  // Live path: a recovered fleet removes stream 1 before it runs on, or a
  // fresh one removes it inside the run at the same boundary.
  dag::ThreadPool pool_of_1(1);
  dag::ThreadPool pool_of_7(7);
  const std::vector<StreamEngineJob> jobs = {
      MakeJob(0, Days(3)), MakeJob(1, Days(3)), MakeJob(2, Days(3))};
  for (const Case& c : Cases(&pool_of_1, &pool_of_7)) {
    auto set = c.in_callback
                   ? StreamSet::Create(jobs, StreamSetOptions{})
                   : StreamSet::RecoverFromCheckpoint(jobs, ckpt_path,
                                                      StreamSetOptions{});
    ASSERT_TRUE(set.ok()) << c.label;
    Status removed = Status::Internal("never removed");
    auto remove = [&] { removed = set->RemoveStream(1); };
    if (c.in_callback) {
      ASSERT_TRUE(set->RunToCompletion(c.pool, AtFirstBoundary(remove)).ok())
          << c.label;
    } else {
      ASSERT_TRUE(set->AtLockstepBoundary()) << c.label;
      remove();
      ASSERT_TRUE(set->RunToCompletion(c.pool).ok()) << c.label;
    }
    ASSERT_TRUE(removed.ok()) << c.label << ": " << removed.ToString();
    // The slot stays occupied so indices remain stable; it just reports
    // the removal.
    EXPECT_EQ(set->num_streams(), kStreams) << c.label;
    auto results = set->Results();
    ASSERT_EQ(results.size(), kStreams);
    EXPECT_EQ(results[1].status().code(), StatusCode::kFailedPrecondition)
        << c.label;
    ASSERT_TRUE(results[0].ok() && results[2].ok()) << c.label;
    ASSERT_TRUE(ref_results[0].ok() && ref_results[1].ok()) << c.label;
    EXPECT_TRUE(EngineResultsIdentical(*ref_results[0], *results[0]))
        << c.label << ", stream 0";
    EXPECT_TRUE(EngineResultsIdentical(*ref_results[1], *results[2]))
        << c.label << ", stream 2";
  }
  std::remove(ckpt_path.c_str());
}

TEST_F(MembershipTest, ReconfigureAtBoundaryMatchesReconfiguredRecovery) {
  // Reference: snapshot a {0, 1} fleet at the 2 h boundary, recover it,
  // cut stream 0's cloud credits to zero and run on — a fleet that had the
  // new knobs from that boundary's plan onward.
  const std::string ckpt_path = "/tmp/sky_membership_reconfig_ckpt.bin";
  const std::vector<StreamEngineJob> jobs = {MakeJob(0, Days(3)),
                                             MakeJob(1, Days(3))};
  {
    auto seed = StreamSet::Create(jobs, StreamSetOptions{});
    ASSERT_TRUE(seed.ok()) << seed.status().ToString();
    RunToFirstBoundary(&*seed);
    ASSERT_TRUE(seed->SaveCheckpoint(ckpt_path).ok());
  }
  core::StreamReconfig change;
  change.cloud_budget_usd_per_interval = 0.0;
  auto reference =
      StreamSet::RecoverFromCheckpoint(jobs, ckpt_path, StreamSetOptions{});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference->ReconfigureStream(0, change).ok());
  ASSERT_TRUE(reference->RunToCompletion().ok());
  auto ref_results = reference->Results();

  dag::ThreadPool pool_of_1(1);
  dag::ThreadPool pool_of_7(7);
  for (const Case& c : Cases(&pool_of_1, &pool_of_7)) {
    auto set = StreamSet::Create(jobs, StreamSetOptions{});
    ASSERT_TRUE(set.ok()) << c.label;
    Status reconfigured = Status::Internal("never reconfigured");
    auto reconfigure = [&] {
      reconfigured = set->ReconfigureStream(0, change);
    };
    if (c.in_callback) {
      ASSERT_TRUE(
          set->RunToCompletion(c.pool, AtFirstBoundary(reconfigure)).ok())
          << c.label;
    } else {
      RunToFirstBoundary(&*set);
      reconfigure();
      ASSERT_TRUE(set->RunToCompletion(c.pool).ok()) << c.label;
    }
    ASSERT_TRUE(reconfigured.ok()) << c.label << ": "
                                   << reconfigured.ToString();
    auto results = set->Results();
    for (size_t v = 0; v < jobs.size(); ++v) {
      ASSERT_TRUE(ref_results[v].ok() && results[v].ok()) << c.label;
      EXPECT_TRUE(EngineResultsIdentical(*ref_results[v], *results[v]))
          << c.label << ", stream " << v;
    }
  }
  std::remove(ckpt_path.c_str());
}

TEST_F(MembershipTest, MembershipChangesRefusedOffBoundary) {
  auto set = StreamSet::Create({MakeJob(0, Days(3)), MakeJob(1, Days(3))},
                               StreamSetOptions{});
  ASSERT_TRUE(set.ok());
  // Step off the creation boundary into the first interval: the fleet now
  // has an installed plan and mid-interval state.
  ASSERT_TRUE(set->Step().ok());
  ASSERT_FALSE(set->AtLockstepBoundary());

  auto slot = set->AddStream(MakeJob(2, Days(3)));
  EXPECT_EQ(slot.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(set->num_streams(), 2u);
  EXPECT_EQ(set->RemoveStream(0).code(), StatusCode::kFailedPrecondition);

  // The refusals disturbed nothing: the fleet still finishes bitwise equal
  // to one that never saw them.
  ASSERT_TRUE(set->RunToCompletion().ok());
  auto reference = StreamSet::Create({MakeJob(0, Days(3)), MakeJob(1, Days(3))},
                                     StreamSetOptions{});
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->RunToCompletion().ok());
  auto results = set->Results();
  auto ref_results = reference->Results();
  for (size_t v = 0; v < 2; ++v) {
    ASSERT_TRUE(results[v].ok() && ref_results[v].ok());
    EXPECT_TRUE(EngineResultsIdentical(*ref_results[v], *results[v]))
        << "stream " << v;
  }
}

TEST_F(MembershipTest, NewcomerMustShareTheLockstepCadence) {
  StreamEngineJob misaligned = MakeJob(1, Days(3));
  misaligned.options.plan_interval = Hours(3);
  auto created = StreamSet::Create({MakeJob(0, Days(3)), misaligned},
                                   StreamSetOptions{});
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);

  auto set = StreamSet::Create({MakeJob(0, Days(3))}, StreamSetOptions{});
  ASSERT_TRUE(set.ok());
  auto slot = set->AddStream(misaligned);
  EXPECT_EQ(slot.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(slot.status().message(), created.status().message());
  EXPECT_EQ(set->num_streams(), 1u);
}

TEST_F(MembershipTest, CheapestFleetCostTracksMembership) {
  auto set = StreamSet::Create({MakeJob(0, Days(3))}, StreamSetOptions{});
  ASSERT_TRUE(set.ok());
  double one = set->CheapestFleetCostCoreSPerVideoS();
  EXPECT_GT(one, 0.0);

  auto slot = set->AddStream(MakeJob(1, Days(3)));
  ASSERT_TRUE(slot.ok());
  double two = set->CheapestFleetCostCoreSPerVideoS();
  EXPECT_GT(two, one);

  // Removing the newcomer at the (still boundary-0) fleet restores the
  // single-stream price exactly — the slot stays occupied but prices as
  // dead weight no longer.
  ASSERT_TRUE(set->RemoveStream(*slot).ok());
  EXPECT_DOUBLE_EQ(set->CheapestFleetCostCoreSPerVideoS(), one);
}

}  // namespace
}  // namespace sky
