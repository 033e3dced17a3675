// Parameterized property sweeps over system invariants: buffer safety,
// plan adherence, LP vs knapsack consistency, simulator sanity, placement
// determinism, the packed category sequence's word counts, the engine's
// sliding forecaster features and its forecaster-less fallback forecast
// across randomized inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/offline.h"
#include "core/placement_search.h"
#include "core/planner.h"
#include "io/checkpoint_io.h"
#include "lp/knapsack.h"
#include "lp/simplex.h"
#include "ml/nn.h"
#include "sim/cluster_sim.h"
#include "support/oracles.h"
#include "util/rng.h"
#include "workloads/ev_counting.h"

namespace sky {
namespace {

/// Base seed for the randomized property sweeps. `check.sh --props` (and the
/// CI props job) export SKY_PROP_SEED to randomize nightly runs; unset, the
/// suites run with a fixed seed so tier-1 stays reproducible.
uint64_t PropSeed() {
  if (const char* env = std::getenv("SKY_PROP_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0xC0FFEE;
}

std::string ReproduceLine(const ::testing::TestInfo* info) {
  return "reproduce: SKY_PROP_SEED=" + std::to_string(PropSeed()) +
         " ./property_test --gtest_filter=" + info->test_suite_name() + "." +
         info->name();
}

// ---------------------------------------------------------------------------
// Property: the engine never overflows the buffer, across provisionings.
// ---------------------------------------------------------------------------

struct ProvisioningCase {
  int cores;
  uint64_t buffer_bytes;
  double cloud_usd;
};

class BufferSafetySweep : public ::testing::TestWithParam<ProvisioningCase> {
 protected:
  static void SetUpTestSuite() {
    workload_ = new workloads::EvCountingWorkload();
  }
  static void TearDownTestSuite() { delete workload_; }
  static workloads::EvCountingWorkload* workload_;
};
workloads::EvCountingWorkload* BufferSafetySweep::workload_ = nullptr;

TEST_P(BufferSafetySweep, NoOverflowUnderAnyProvisioning) {
  ProvisioningCase c = GetParam();
  sim::ClusterSpec cluster;
  cluster.cores = c.cores;
  sim::CostModel cost_model(1.8);
  core::OfflineOptions offline;
  offline.segment_seconds = 4.0;
  offline.train_horizon = Days(3);
  offline.num_categories = 3;
  offline.train_forecaster = false;
  auto model = core::RunOfflinePhase(*workload_, cluster, cost_model, offline);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  core::EngineOptions opts;
  opts.duration = Hours(8);
  opts.plan_interval = Hours(8);
  opts.buffer_bytes = c.buffer_bytes;
  opts.cloud_budget_usd_per_interval = c.cloud_usd;
  opts.enable_cloud = c.cloud_usd > 0;
  core::IngestionEngine engine(workload_, &*model, cluster, &cost_model,
                               opts);
  auto result = engine.Run(Days(3));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->overflow_events, 0u);
  EXPECT_LE(result->buffer_high_water_bytes, c.buffer_bytes);
  EXPECT_LE(result->cloud_usd, c.cloud_usd + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Provisionings, BufferSafetySweep,
    ::testing::Values(ProvisioningCase{2, 64ull << 20, 0.0},
                      ProvisioningCase{2, 4ull << 30, 0.5},
                      ProvisioningCase{4, 16ull << 20, 0.0},
                      ProvisioningCase{4, 4ull << 30, 2.0},
                      ProvisioningCase{8, 512ull << 20, 1.0},
                      ProvisioningCase{16, 1ull << 30, 0.0}));

// ---------------------------------------------------------------------------
// Property: the LP-based plan never beats the knapsack upper bound but gets
// close for block-structured instances.
// ---------------------------------------------------------------------------

class PlannerBoundSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannerBoundSweep, LpPlanIsOptimalAmongHistogramPlans) {
  Rng rng(GetParam());
  size_t num_c = 2 + static_cast<size_t>(rng.UniformInt(0, 3));
  size_t num_k = 2 + static_cast<size_t>(rng.UniformInt(0, 4));
  ml::KMeansModel km;
  std::vector<double> costs;
  for (size_t k = 0; k < num_k; ++k) {
    costs.push_back(rng.Uniform(0.5, 10.0));
  }
  for (size_t c = 0; c < num_c; ++c) {
    std::vector<double> center;
    for (size_t k = 0; k < num_k; ++k) center.push_back(rng.Uniform(0.2, 1.0));
    km.centers.push_back(center);
  }
  core::ContentCategories cats =
      core::ContentCategories::FromKMeans(std::move(km));
  std::vector<double> forecast(num_c, 0.0);
  for (double& f : forecast) f = rng.Uniform(0.1, 1.0);
  double sum = 0;
  for (double f : forecast) sum += f;
  for (double& f : forecast) f /= sum;

  double min_cost = *std::min_element(costs.begin(), costs.end());
  double budget = min_cost * rng.Uniform(1.05, 3.0);
  auto plan = core::ComputeKnobPlan(cats, forecast, costs, budget);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // Compare against brute force over pure (one config per category)
  // assignments: the LP (which may mix) must be at least as good.
  double best_pure = 0.0;
  size_t assignments = 1;
  for (size_t c = 0; c < num_c; ++c) assignments *= num_k;
  for (size_t a = 0; a < assignments; ++a) {
    size_t x = a;
    double quality = 0.0, cost = 0.0;
    for (size_t c = 0; c < num_c; ++c) {
      size_t k = x % num_k;
      x /= num_k;
      quality += forecast[c] * cats.CenterQuality(c, k);
      cost += forecast[c] * costs[k];
    }
    if (cost <= budget + 1e-9) best_pure = std::max(best_pure, quality);
  }
  EXPECT_GE(plan->expected_quality, best_pure - 1e-6);
  EXPECT_LE(plan->expected_work, budget + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerBoundSweep,
                         ::testing::Range<uint64_t>(1, 16));

// ---------------------------------------------------------------------------
// Property: simulator makespan bounds — never below the critical path or
// total-work/cores; never above total work (plus transfers).
// ---------------------------------------------------------------------------

class SimBoundsSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimBoundsSweep, MakespanWithinTheoreticalBounds) {
  Rng rng(GetParam());
  dag::TaskGraph g;
  size_t n = 3 + static_cast<size_t>(rng.UniformInt(0, 9));
  for (size_t i = 0; i < n; ++i) {
    dag::TaskNode node;
    node.onprem_runtime_s = rng.Uniform(0.1, 3.0);
    g.AddNode(node);
  }
  // Random forward edges.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.25)) ASSERT_TRUE(g.AddEdge(i, j).ok());
    }
  }
  sim::ClusterSpec cluster;
  cluster.cores = 1 + static_cast<int>(rng.UniformInt(0, 7));
  auto result =
      sim::SimulateDag(g, dag::Placement::AllOnPrem(n), cluster);
  ASSERT_TRUE(result.ok());

  double total = g.TotalOnPremWork();
  // Critical path lower bound.
  std::vector<double> cp(n, 0.0);
  auto order = g.TopoOrder();
  ASSERT_TRUE(order.ok());
  double critical = 0.0;
  for (size_t u : *order) {
    cp[u] += g.node(u).onprem_runtime_s;
    for (size_t p : g.Parents(u)) {
      cp[u] = std::max(cp[u], cp[p] + g.node(u).onprem_runtime_s);
    }
    critical = std::max(critical, cp[u]);
  }
  EXPECT_GE(result->makespan_s,
            std::max(critical, total / cluster.cores) - 1e-9);
  EXPECT_LE(result->makespan_s, total + 1e-9);
  EXPECT_NEAR(result->onprem_core_seconds, total, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimBoundsSweep,
                         ::testing::Range<uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Property: greedy multiple-choice knapsack is within 1% of the LP
// relaxation bound on random instances (it is near-optimal for the
// segment-assignment instances Skyscraper produces).
// ---------------------------------------------------------------------------

class KnapsackVsLpSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KnapsackVsLpSweep, GreedyNearLpBound) {
  Rng rng(GetParam());
  size_t groups = 20 + static_cast<size_t>(rng.UniformInt(0, 30));
  size_t options = 3;
  std::vector<std::vector<double>> values(groups), weights(groups);
  for (size_t g = 0; g < groups; ++g) {
    double w = 1.0, v = rng.Uniform(0.2, 0.5);
    for (size_t o = 0; o < options; ++o) {
      values[g].push_back(std::min(1.0, v));
      weights[g].push_back(w);
      w *= rng.Uniform(1.5, 3.0);
      v += rng.Uniform(0.05, 0.3);
    }
  }
  double max_weight = 0;
  for (size_t g = 0; g < groups; ++g) max_weight += weights[g].back();
  double capacity = max_weight * rng.Uniform(0.2, 0.8);

  auto greedy = lp::MultipleChoiceKnapsackGreedy(values, weights, capacity);
  ASSERT_TRUE(greedy.ok());

  // LP relaxation upper bound.
  lp::LinearProgram relax;
  size_t nvars = groups * options;
  relax.objective.assign(nvars, 0.0);
  std::vector<double> budget_row(nvars, 0.0);
  for (size_t g = 0; g < groups; ++g) {
    std::vector<double> norm(nvars, 0.0);
    for (size_t o = 0; o < options; ++o) {
      relax.objective[g * options + o] = values[g][o];
      budget_row[g * options + o] = weights[g][o];
      norm[g * options + o] = 1.0;
    }
    relax.a_eq.push_back(norm);
    relax.b_eq.push_back(1.0);
  }
  relax.a_ub.push_back(budget_row);
  relax.b_ub.push_back(capacity);
  auto bound = lp::SolveLp(relax);
  ASSERT_TRUE(bound.ok());
  ASSERT_EQ(bound->status, lp::LpStatus::kOptimal);

  EXPECT_LE(greedy->total_value, bound->objective_value + 1e-6);
  EXPECT_GE(greedy->total_value, bound->objective_value * 0.99 - 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackVsLpSweep,
                         ::testing::Range<uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// Property: the placement search replays bitwise at any pool size, on
// randomized instances. The instance stream is derived from SKY_PROP_SEED.
// ---------------------------------------------------------------------------

/// A random graph of min_nodes to min_nodes + 8 nodes. At most 12 nodes give
/// at most 2^12 = 4096 candidate count vectors, which the search enumerates;
/// from 24 nodes on nearly every instance (3999 of 4000 seeds) has more, so
/// the search samples.
dag::TaskGraph RandomPlacementInstance(Rng* rng, sim::ClusterSpec* cluster,
                                       size_t min_nodes) {
  dag::TaskGraph g;
  size_t n = min_nodes + static_cast<size_t>(rng->UniformInt(0, 8));
  for (size_t i = 0; i < n; ++i) {
    dag::TaskNode node;
    node.name = "t" + std::to_string(i);
    node.onprem_runtime_s = rng->Uniform(0.1, 3.0);
    node.cloud_runtime_s = node.onprem_runtime_s * rng->Uniform(0.2, 1.5);
    node.input_bytes = rng->Uniform(0.0, 5e5);
    node.output_bytes = rng->Uniform(0.0, 1e5);
    node.cloud_cost_usd = rng->Uniform(0.0, 0.01);
    // ~Half the nodes land in interchangeability groups (chunked UDFs).
    if (rng->Bernoulli(0.5)) {
      node.group = static_cast<int>(rng->UniformInt(0, 2));
    }
    g.AddNode(node);
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng->Bernoulli(0.2)) EXPECT_TRUE(g.AddEdge(i, j).ok());
    }
  }
  cluster->cores = 1 + static_cast<int>(rng->UniformInt(0, 3));
  cluster->cloud_workers = 2 + static_cast<int>(rng->UniformInt(0, 6));
  return g;
}

class PlacementDeterminismSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlacementDeterminismSweep, SearchBitwiseAcrossPoolSizes) {
  SCOPED_TRACE(ReproduceLine(
      ::testing::UnitTest::GetInstance()->current_test_info()));
  Rng rng(Rng(PropSeed()).ForkIndex(1000 + GetParam()).UniformInt(0, 1 << 30));
  // One enumerated and one sampled instance per parameter.
  for (size_t min_nodes : {4u, 24u}) {
    sim::ClusterSpec cluster;
    dag::TaskGraph g = RandomPlacementInstance(&rng, &cluster, min_nodes);
    auto reference = core::SearchPlacements(g, cluster);
    ASSERT_TRUE(reference.ok());
    for (size_t threads : {1u, 2u, 8u}) {
      dag::ThreadPool pool(threads);
      auto got = core::SearchPlacements(g, cluster, &pool);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), reference->size())
          << g.NumNodes() << " nodes, " << threads << " threads";
      for (size_t i = 0; i < got->size(); ++i) {
        EXPECT_EQ((*got)[i].placement.node_loc,
                  (*reference)[i].placement.node_loc);
        EXPECT_EQ((*got)[i].runtime_s, (*reference)[i].runtime_s);
        EXPECT_EQ((*got)[i].cloud_usd, (*reference)[i].cloud_usd);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementDeterminismSweep,
                         ::testing::Range<uint64_t>(0, 5));

// ---------------------------------------------------------------------------
// Property: a packed category sequence holds what a byte per code holds,
// and its word-at-a-time count equals the byte scan of tests/support over
// any range — empty, inside one word, across word edges, from any code
// offset — at every code width, for random codes, including codes at or
// above the category count being counted, which count nowhere. The
// instance stream is derived from SKY_PROP_SEED.
// ---------------------------------------------------------------------------

class CategoryCountSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CategoryCountSweep, WordCountsEqualTheByteScan) {
  SCOPED_TRACE(ReproduceLine(
      ::testing::UnitTest::GetInstance()->current_test_info()));
  Rng rng(Rng(PropSeed()).ForkIndex(3000 + GetParam()).UniformInt(0, 1 << 30));
  // Category counts at both ends of every width: 1 and 2 bits, 3 and 4
  // bits, 2 and 4 ... 16 and 17.
  const size_t kCategoryCounts[] = {1, 2, 3, 4, 5, 16, 17, 255};
  const size_t num_c =
      kCategoryCounts[GetParam() % (sizeof(kCategoryCounts) / sizeof(size_t))];
  const unsigned width = core::CategorySequence::WidthFor(num_c);
  ASSERT_EQ(width, num_c <= 2 ? 1u : num_c <= 4 ? 2u : num_c <= 16 ? 4u : 8u);
  const size_t per_word = 64 / width;
  const size_t size = static_cast<size_t>(
      rng.UniformInt(0, 1) == 0
          ? rng.UniformInt(0, 4 * static_cast<int64_t>(per_word))
          : rng.UniformInt(0, 3000));
  // Mostly categories of the model, with runs; some codes the width holds
  // past them.
  const int64_t max_code = (int64_t{1} << width) - 1;
  std::vector<uint8_t> codes(size);
  uint8_t code = 0;
  for (uint8_t& c : codes) {
    if (rng.Bernoulli(0.3)) {
      code = static_cast<uint8_t>(
          rng.Bernoulli(0.9)
              ? rng.UniformInt(0, static_cast<int64_t>(num_c) - 1)
              : rng.UniformInt(0, max_code));
    }
    c = code;
  }
  core::CategorySequence seq(num_c, size);
  // Written out of order, each code twice (a random code, then its own),
  // so a write that spills into a neighbour shows.
  auto scattered = [size](size_t i) { return (i * 7919) % size; };
  for (size_t i = 0; i < size; ++i) {
    seq.Set(scattered(i), static_cast<uint8_t>(rng.UniformInt(0, max_code)));
  }
  for (size_t i = 0; i < size; ++i) {
    seq.Set(scattered(i), codes[scattered(i)]);
  }
  ASSERT_EQ(seq.width(), width);
  ASSERT_EQ(seq.words().size(), (size + per_word - 1) / per_word);
  ASSERT_EQ(oracle::Unpacked(seq), codes);
  EXPECT_EQ(seq, oracle::Packed(num_c, codes));

  // Ranges: empty ones (at 0, inside, at the end), every range inside the
  // first words and across their edges, the whole sequence, a tail from an
  // arbitrary offset (as the engine's training tail starts), and random
  // ones.
  std::vector<std::pair<size_t, size_t>> ranges = {{0, 0}, {size, 0}};
  if (size > 0) {
    ranges.push_back({static_cast<size_t>(rng.UniformInt(
                          0, static_cast<int64_t>(size))),
                      0});
    ranges.push_back({0, size});
    const size_t tail = static_cast<size_t>(
        rng.UniformInt(1, static_cast<int64_t>(size)));
    ranges.push_back({size - tail, tail});
  }
  const size_t edge_span = std::min(size, 2 * per_word + 3);
  for (size_t begin = 0; begin < edge_span; ++begin) {
    for (size_t n = 0; begin + n <= edge_span; ++n) {
      ranges.push_back({begin, n});
    }
  }
  for (int r = 0; r < 200 && size > 0; ++r) {
    const size_t begin =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(size)));
    const size_t n = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(size - begin)));
    ranges.push_back({begin, n});
  }
  // Counted over the model's categories, over fewer (the rest count
  // nowhere) and over every code the width holds.
  const size_t counted[] = {num_c, std::max<size_t>(1, num_c / 2),
                            static_cast<size_t>(max_code) + 1};
  for (size_t count_c : counted) {
    for (auto [begin, n] : ranges) {
      // Counts add to what is there.
      std::vector<uint32_t> word_counts(count_c);
      for (uint32_t& c : word_counts) {
        c = static_cast<uint32_t>(rng.UniformInt(0, 1000));
      }
      std::vector<uint32_t> scan_counts = word_counts;
      seq.CountInto(begin, n, count_c, word_counts.data());
      oracle::CountCategoriesInto(codes, begin, n, count_c,
                                  scan_counts.data());
      ASSERT_EQ(word_counts, scan_counts)
          << num_c << " categories, counting " << count_c << ", range ["
          << begin << ", " << begin + n << ") of " << size;
      const bool below = std::all_of(
          codes.begin() + static_cast<ptrdiff_t>(begin),
          codes.begin() + static_cast<ptrdiff_t>(begin + n),
          [count_c](uint8_t c) { return c < count_c; });
      ASSERT_EQ(seq.AllBelow(begin, n, count_c), below);
    }
  }

  // The words read back whole, and only when every code names a category.
  const bool all_below =
      std::all_of(codes.begin(), codes.end(),
                  [num_c](uint8_t c) { return c < num_c; });
  auto read = core::CategorySequence::FromWords(num_c, size, seq.words());
  ASSERT_EQ(read.ok(), all_below) << read.status().ToString();
  if (read.ok()) {
    EXPECT_EQ(*read, seq);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CategoryCountSweep,
                         ::testing::Range<uint64_t>(0, 32));

// ---------------------------------------------------------------------------
// Property: at every plan boundary the engine's forecaster features, built
// from split counts it slides from boundary to boundary, equal a fresh
// reference scan of its history, bitwise — over random
// category streams, feature geometries, bootstraps, and a checkpoint
// round trip mid-run; from parameter 12 on a second round trip lands after
// the last boundary, and every run ends bitwise as one never interrupted.
// The instance stream is derived from SKY_PROP_SEED.
// ---------------------------------------------------------------------------

class SplitCountSweep : public ::testing::TestWithParam<uint64_t> {
 protected:
  static void SetUpTestSuite() {
    workload_ = new workloads::EvCountingWorkload();
    cost_model_ = new sim::CostModel(1.8);
    core::OfflineOptions offline;
    offline.segment_seconds = 4.0;
    offline.train_horizon = Days(3);
    offline.num_categories = 3;
    offline.train_forecaster = false;  // each case brings its own
    auto model =
        core::RunOfflinePhase(*workload_, Cluster(), *cost_model_, offline);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = new core::OfflineModel(std::move(*model));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete cost_model_;
    delete workload_;
  }
  static sim::ClusterSpec Cluster() {
    sim::ClusterSpec cluster;
    cluster.cores = 4;
    return cluster;
  }

  static workloads::EvCountingWorkload* workload_;
  static sim::CostModel* cost_model_;
  static core::OfflineModel* model_;
};
workloads::EvCountingWorkload* SplitCountSweep::workload_ = nullptr;
sim::CostModel* SplitCountSweep::cost_model_ = nullptr;
core::OfflineModel* SplitCountSweep::model_ = nullptr;

/// The history a run of `model` holds at state `s`, oldest first, built
/// without the engine's ring: the model's training tail of
/// min(window, |sequence|) categories, then every category the run decided
/// (a run traced at one point per segment records each), of which the
/// last `len` count. `len` follows a vector that drops back to the window
/// on reaching twice it, before the next push.
std::vector<uint8_t> ExpectedHistory(const core::OfflineModel& model,
                                     const core::IngestState& s) {
  const std::vector<uint8_t> train =
      oracle::Unpacked(model.train_category_sequence);
  const size_t window = s.history_window;
  EXPECT_EQ(s.result.trace.size(), static_cast<size_t>(s.next_index));
  std::vector<uint8_t> seq(train.end() - static_cast<ptrdiff_t>(
                                             std::min(window, train.size())),
                           train.end());
  size_t len = seq.size();
  for (const core::TracePoint& point : s.result.trace) {
    seq.push_back(static_cast<uint8_t>(point.category));
    if (len == 2 * window) len = window;
    ++len;
  }
  return std::vector<uint8_t>(seq.end() - static_cast<ptrdiff_t>(len),
                              seq.end());
}

/// The ring a run of `run` segments in plans of `interval` keeps when its
/// reads reach back `reach` categories: what its last boundary reads back,
/// the categories decided before it or the reach, whichever is fewer, and
/// one byte when it has no second boundary.
size_t ExpectedRingSize(int64_t run, int64_t interval, size_t reach) {
  const size_t last_boundary = static_cast<size_t>((run - 1) / interval *
                                                   interval);
  return std::max<size_t>(1, std::min(last_boundary, reach));
}

TEST_P(SplitCountSweep, EngineFeaturesEqualTheScan) {
  SCOPED_TRACE(ReproduceLine(
      ::testing::UnitTest::GetInstance()->current_test_info()));
  Rng rng(Rng(PropSeed()).ForkIndex(2000 + GetParam()).UniformInt(0, 1 << 30));
  const double seg = model_->segment_seconds;
  const size_t num_c = model_->categories.NumCategories();

  // Geometry. Even parameters put the plan interval under the recount
  // threshold, (splits + 1) * interval < span, so boundaries slide; odd
  // ones put it at or over, so every boundary recounts. Every third
  // parameter makes the span one the splits do not divide.
  const size_t splits = static_cast<size_t>(rng.UniformInt(1, 9));
  const size_t interval = static_cast<size_t>(rng.UniformInt(1, 120));
  const size_t threshold = (splits + 1) * interval;
  size_t span =
      GetParam() % 2 == 0
          ? threshold + 1 + static_cast<size_t>(rng.UniformInt(0, 1500))
          : static_cast<size_t>(rng.UniformInt(
                static_cast<int64_t>(splits), static_cast<int64_t>(threshold)));
  if (GetParam() % 3 == 0 && splits > 1 && span % splits == 0) ++span;
  const size_t window = std::max(span, interval);

  const size_t boundaries = static_cast<size_t>(rng.UniformInt(3, 8));
  const size_t run = interval * boundaries;

  // A random category stream of runs for the bootstrap: shorter than the
  // window, short enough that the window fills mid-run, or full at Start.
  core::OfflineModel model = *model_;
  size_t bootstrap = 0;
  switch (rng.UniformInt(0, 2)) {
    case 0:
      bootstrap = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(window)));
      break;
    case 1:
      bootstrap = span - std::min(span, static_cast<size_t>(rng.UniformInt(
                                            1, static_cast<int64_t>(run))));
      break;
    default:
      bootstrap = static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(window),
                         static_cast<int64_t>(2 * window)));
  }
  model.train_category_sequence = core::CategorySequence(num_c, bootstrap);
  uint8_t category = 0;
  for (size_t i = 0; i < bootstrap; ++i) {
    if (rng.Bernoulli(0.1)) {
      category = static_cast<uint8_t>(
          rng.UniformInt(0, static_cast<int64_t>(num_c) - 1));
    }
    model.train_category_sequence.Set(i, category);
  }
  // An untrained network: the property concerns the features, not the
  // forecast, and any weights give the plans (and so the stream) variety.
  core::ForecasterOptions fopts;
  fopts.input_span = static_cast<double>(span) * seg;
  fopts.input_splits = splits;
  fopts.planned_interval = static_cast<double>(interval) * seg;
  ml::FeedForwardNet net(splits * num_c, {16, 8}, num_c, &rng);
  auto forecaster =
      core::Forecaster::FromParts(net.Snapshot(), fopts, num_c, {});
  ASSERT_TRUE(forecaster.ok()) << forecaster.status().ToString();
  model.forecaster = std::move(*forecaster);

  core::EngineOptions opts;
  opts.plan_interval = static_cast<double>(interval) * seg;
  opts.duration = opts.plan_interval * static_cast<double>(boundaries);
  opts.cloud_budget_usd_per_interval = rng.Uniform(0.0, 0.05);
  opts.seed = static_cast<uint64_t>(rng.UniformInt(0, 1 << 30));
  // One trace point per segment: ExpectedHistory reads the decided
  // categories from the trace.
  opts.record_trace = true;
  opts.trace_resolution_s = seg;
  auto started_engine = [&](uint64_t seed) {
    core::EngineOptions o = opts;
    o.seed = seed;
    auto e = std::make_unique<core::IngestionEngine>(workload_, &model,
                                                     Cluster(), cost_model_, o);
    EXPECT_TRUE(e->Start(Days(3)).ok());
    return e;
  };
  auto boundary_of = [&](const core::IngestionEngine& e) {
    return static_cast<size_t>(e.next_segment_index() /
                               e.segments_per_interval());
  };
  auto expect_scan = [&](const core::IngestionEngine& e) {
    auto snap = e.Checkpoint();
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(snap->history.size(),
              ExpectedRingSize(static_cast<int64_t>(run),
                               static_cast<int64_t>(interval),
                               window + interval));
    std::vector<double> scanned;
    oracle::FeaturesFromHistoryInto(*snap->forecaster,
                                    ExpectedHistory(model, *snap), seg,
                                    &scanned);
    ASSERT_EQ(snap->plan_features.size(), scanned.size());
    EXPECT_EQ(std::memcmp(snap->plan_features.data(), scanned.data(),
                          scanned.size() * sizeof(double)),
              0)
        << "boundary " << boundary_of(e) << " of " << boundaries
        << ": splits " << splits << ", span " << span << ", interval "
        << interval << ", bootstrap " << bootstrap;
  };

  // Checkpoint bytes taken at one random boundary, before or after its
  // PrepareBoundary, are restored one boundary later: into the same
  // engine, a fresh one, or one that ran a different seed to that later
  // boundary and so holds split counts of another history.
  const size_t save_at = static_cast<size_t>(
      rng.UniformInt(1, static_cast<int64_t>(boundaries) - 2));
  const bool save_prepared = rng.Bernoulli(0.5);
  const int64_t restore_into = rng.UniformInt(0, 2);
  std::string saved;
  bool restored = false;
  // From parameter 12 on, bytes taken after a random step past the last
  // boundary, the finished run's included, are restored after a later one
  // into a fresh engine.
  const int64_t last_boundary =
      static_cast<int64_t>((boundaries - 1) * interval);
  const int64_t last_step = static_cast<int64_t>(run);
  const int64_t late_save_at =
      GetParam() >= 12 ? rng.UniformInt(last_boundary + 1, last_step) : -1;
  const int64_t late_restore_at =
      GetParam() >= 12 ? rng.UniformInt(late_save_at, last_step) : -1;
  std::string late_saved;
  bool late_restored = false;

  std::unique_ptr<core::IngestionEngine> engine = started_engine(opts.seed);
  size_t checks = 0;
  while (!engine->Done()) {
    if (engine->AtPlanBoundary()) {
      const size_t b = boundary_of(*engine);
      auto save = [&] {
        auto snap = engine->Checkpoint();
        ASSERT_TRUE(snap.ok());
        ASSERT_TRUE(io::SerializeIngestState(*snap, &saved).ok());
      };
      if (b == save_at && !restored && !save_prepared) save();
      ASSERT_TRUE(engine->PrepareBoundary().ok());
      if (b == save_at && !restored && save_prepared) save();
      expect_scan(*engine);
      ++checks;
      if (b == save_at + 1 && !restored) {
        restored = true;
        auto parsed = io::DeserializeIngestState(saved, model);
        ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
        if (restore_into == 1) engine = started_engine(opts.seed);
        if (restore_into == 2) {
          engine = started_engine(opts.seed + 1);
          while (true) {
            if (engine->AtPlanBoundary()) {
              ASSERT_TRUE(engine->PrepareBoundary().ok());
              if (boundary_of(*engine) == b) break;
            }
            ASSERT_TRUE(engine->Step().ok());
          }
        }
        ASSERT_TRUE(engine->Restore(*parsed).ok());
        continue;  // back at boundary save_at
      }
    }
    ASSERT_TRUE(engine->Step().ok());
    const int64_t stepped = engine->next_segment_index();
    if (stepped == late_save_at && late_saved.empty()) {
      auto snap = engine->Checkpoint();
      ASSERT_TRUE(snap.ok());
      ASSERT_TRUE(io::SerializeIngestState(*snap, &late_saved).ok());
    }
    if (stepped == late_restore_at && !late_restored) {
      late_restored = true;
      auto parsed = io::DeserializeIngestState(late_saved, model);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      engine = started_engine(opts.seed + 1);
      ASSERT_TRUE(engine->Restore(*parsed).ok());
    }
  }
  // Boundaries save_at and save_at + 1 run twice.
  EXPECT_TRUE(restored);
  EXPECT_EQ(late_restored, GetParam() >= 12);
  EXPECT_EQ(checks, boundaries + 2);

  std::unique_ptr<core::IngestionEngine> uninterrupted =
      started_engine(opts.seed);
  while (!uninterrupted->Done()) ASSERT_TRUE(uninterrupted->Step().ok());
  EXPECT_TRUE(core::EngineResultsIdentical(engine->partial_result(),
                                           uninterrupted->partial_result()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitCountSweep,
                         ::testing::Range<uint64_t>(0, 16));

// ---------------------------------------------------------------------------
// Property: without a forecaster, the forecast at every plan boundary is
// the normalized histogram of the whole history (ExpectedHistory), bitwise.
// This fallback is the one read that spans the history, so its ring keeps
// twice the window, or what the last boundary reads back when that is
// less. Tails run on both sides of the window and runs on both sides of
// that reach, most of them across the 2W compaction, with a checkpoint
// round trip mid-run; from parameter 12 on the round trip lands after the
// last boundary. The instance stream is derived from SKY_PROP_SEED.
// ---------------------------------------------------------------------------

class FallbackHistorySweep : public SplitCountSweep {};

TEST_P(FallbackHistorySweep, BoundaryForecastIsTheHistoryHistogram) {
  SCOPED_TRACE(ReproduceLine(
      ::testing::UnitTest::GetInstance()->current_test_info()));
  Rng rng(Rng(PropSeed()).ForkIndex(3000 + GetParam()).UniformInt(0, 1 << 30));
  const double seg = model_->segment_seconds;
  const size_t num_c = model_->categories.NumCategories();
  ASSERT_FALSE(model_->forecaster.has_value());

  // Without a forecaster the window is one plan interval. Even parameters
  // draw a tail shorter than it, odd ones a tail of it or more; every
  // third parameter draws a run shorter than the 2W reach but with a
  // second boundary, the rest runs past it, whose rings wrap.
  const size_t window = static_cast<size_t>(rng.UniformInt(1, 200));
  const int64_t w = static_cast<int64_t>(window);
  const size_t tail = static_cast<size_t>(
      GetParam() % 2 == 0 ? rng.UniformInt(0, w - 1)
                          : rng.UniformInt(w, 3 * w));
  const int64_t run =
      GetParam() % 3 == 0
          ? rng.UniformInt(std::min(w + 1, 2 * w - 1), 2 * w - 1)
          : rng.UniformInt(2 * w, 7 * w);

  core::OfflineModel model = *model_;
  model.train_category_sequence = core::CategorySequence(num_c, tail);
  uint8_t category = 0;
  for (size_t i = 0; i < tail; ++i) {
    if (rng.Bernoulli(0.1)) {
      category = static_cast<uint8_t>(
          rng.UniformInt(0, static_cast<int64_t>(num_c) - 1));
    }
    model.train_category_sequence.Set(i, category);
  }

  core::EngineOptions opts;
  opts.plan_interval = static_cast<double>(window) * seg;
  opts.duration = static_cast<double>(run) * seg;
  opts.cloud_budget_usd_per_interval = rng.Uniform(0.0, 0.05);
  opts.seed = static_cast<uint64_t>(rng.UniformInt(0, 1 << 30));
  opts.record_trace = true;
  opts.trace_resolution_s = seg;
  auto started_engine = [&] {
    auto e = std::make_unique<core::IngestionEngine>(workload_, &model,
                                                     Cluster(), cost_model_,
                                                     opts);
    EXPECT_TRUE(e->Start(Days(3)).ok());
    return e;
  };
  auto expect_histogram = [&](const core::IngestionEngine& e) {
    auto snap = e.Checkpoint();
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(snap->history.size(), ExpectedRingSize(run, w, 2 * window));
    const std::vector<uint8_t> history = ExpectedHistory(model, *snap);
    std::vector<double> expected(num_c, 1.0 / static_cast<double>(num_c));
    if (!history.empty()) {
      expected.assign(num_c, 0.0);
      for (uint8_t c : history) expected[c] += 1.0;
      for (double& p : expected) p /= static_cast<double>(history.size());
    }
    ASSERT_EQ(snap->boundary_forecast.size(), num_c);
    EXPECT_EQ(std::memcmp(snap->boundary_forecast.data(), expected.data(),
                          num_c * sizeof(double)),
              0)
        << "segment " << snap->next_index << " of " << run << ": window "
        << window << ", tail " << tail << ", history " << history.size();
  };

  // Checkpoint bytes taken at one random segment are restored at a later
  // one, into the same engine or a fresh one; the segments between run
  // twice, and the run must still end bitwise as one never interrupted.
  // From parameter 12 on both segments lie past the last boundary (on it
  // when the last interval is one segment), where the ring holds
  // categories no boundary reads.
  const int64_t save_at =
      GetParam() >= 12
          ? rng.UniformInt(std::min((run - 1) / w * w + 1, run - 1), run - 1)
          : rng.UniformInt(0, run - 1);
  const int64_t restore_at = rng.UniformInt(save_at, run - 1);
  const bool fresh_engine = rng.Bernoulli(0.5);
  std::string saved;
  bool restored = false;

  std::unique_ptr<core::IngestionEngine> engine = started_engine();
  size_t checks = 0;
  while (!engine->Done()) {
    const int64_t next = engine->next_segment_index();
    if (next == save_at && saved.empty()) {
      auto snap = engine->Checkpoint();
      ASSERT_TRUE(snap.ok());
      ASSERT_TRUE(io::SerializeIngestState(*snap, &saved).ok());
    }
    if (next == restore_at && !restored) {
      restored = true;
      auto parsed = io::DeserializeIngestState(saved, model);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      if (fresh_engine) engine = started_engine();
      ASSERT_TRUE(engine->Restore(*parsed).ok());
      continue;
    }
    if (engine->AtPlanBoundary()) {
      ASSERT_TRUE(engine->PrepareBoundary().ok());
      expect_histogram(*engine);
      ++checks;
    }
    ASSERT_TRUE(engine->Step().ok());
  }
  EXPECT_TRUE(restored);
  EXPECT_GE(checks, static_cast<size_t>((run + w - 1) / w));

  auto uninterrupted = started_engine();
  while (!uninterrupted->Done()) ASSERT_TRUE(uninterrupted->Step().ok());
  EXPECT_TRUE(core::EngineResultsIdentical(engine->partial_result(),
                                           uninterrupted->partial_result()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FallbackHistorySweep,
                         ::testing::Range<uint64_t>(0, 16));

}  // namespace
}  // namespace sky
