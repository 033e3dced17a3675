#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/faults.h"
#include "util/stats.h"
#include "video/stream_source.h"

namespace sky::core {

namespace {
/// Run-local index of the last plan boundary of a run of `n_segments` in
/// plans of `segs_per_interval` (at least 1): the boundary that opens its
/// last, possibly partial, interval; 0 for a run of no segments.
int64_t LastBoundary(int64_t n_segments, int64_t segs_per_interval) {
  return n_segments <= 0
             ? 0
             : (n_segments - 1) / segs_per_interval * segs_per_interval;
}

/// Categories of `train_seq` that open the history of a run with `window`.
size_t TailLength(const CategorySequence& train_seq, size_t window) {
  return std::min(window, train_seq.size());
}

/// A run's category history: the model's training tail, read in place, then
/// the categories the run decided, whose newest ring.size() the engine's
/// ring keeps (decided category i at i % ring.size()).
struct History {
  const CategorySequence& train;  ///< the tail is its last tail_len codes
  size_t tail_len;
  const CategorySequence& ring;
  size_t decided;  ///< categories the run decided: next_index
  /// Categories in the history: those of a vector that drops back to the
  /// last `window` on reaching 2 * window, before the next push.
  size_t len;

  /// How far a read can reach back from the next category: through the
  /// tail until the ring first wraps, then the ring alone.
  size_t readable() const {
    return decided <= ring.size() ? tail_len + decided : ring.size();
  }
};

History HistoryOf(const OfflineModel& model, const IngestState& s) {
  const CategorySequence& seq = model.train_category_sequence;
  const size_t window = s.history_window;
  const size_t tail_len = TailLength(seq, window);
  const size_t decided = static_cast<size_t>(s.next_index);
  const size_t pushed = tail_len + decided;
  const size_t len = pushed <= 2 * window
                         ? pushed
                         : window + (pushed - 2 * window - 1) % window + 1;
  return {seq, tail_len, s.history, decided, len};
}

/// Adds to counts[c] the categories c < num_categories among the `n` history
/// categories that begin `back` before the next one. They lie in at most
/// two spans, the tail and the ring or the ring and its wrap, and the
/// sequence kernel counts each a word at a time. Requires
/// n <= back <= h.readable().
void CountHistoryInto(const History& h, size_t back, size_t n,
                      size_t num_categories, uint32_t* counts) {
  size_t first = 0;  // categories before the ring's start, or its wrap
  if (back > h.decided) {
    // Opens in the tail, so the ring has not wrapped: the rest opens it.
    first = std::min(n, back - h.decided);
    h.train.CountInto(h.train.size() - (back - h.decided), first,
                      num_categories, counts);
  } else {
    const size_t start = (h.decided - back) % h.ring.size();
    first = std::min(n, h.ring.size() - start);
    h.ring.CountInto(start, first, num_categories, counts);
  }
  if (n > first) h.ring.CountInto(0, n - first, num_categories, counts);
}

/// Normalized histogram of the same `n` categories, counted into `counts`.
void HistoryHistogramInto(const History& h, size_t back, size_t n,
                          size_t num_categories, std::vector<uint32_t>* counts,
                          std::vector<double>* out) {
  counts->assign(num_categories, 0);
  CountHistoryInto(h, back, n, num_categories, counts->data());
  out->assign(counts->begin(), counts->end());
  *out = NormalizeHistogram(std::move(*out));
}

/// kInvalidArgument unless the history holds `model`'s categories: at most
/// kMaxCategories of them (the split counts index by category), and a
/// training tail that names only those, checked a word at a time.
Status CheckHistoryFitsModel(const OfflineModel& model, size_t window) {
  const size_t num_c = model.categories.NumCategories();
  const CategorySequence& seq = model.train_category_sequence;
  const size_t tail_len = TailLength(seq, window);
  if (num_c > kMaxCategories ||
      !seq.AllBelow(seq.size() - tail_len, tail_len, num_c)) {
    return Status::InvalidArgument(
        "offline model's categories do not fit the category history");
  }
  return Status::Ok();
}
}  // namespace

size_t HistoryWindow(const OfflineModel& model, int64_t segs_per_interval) {
  size_t window = static_cast<size_t>(segs_per_interval);
  if (model.forecaster.has_value()) {
    window = std::max(window,
                      model.forecaster->InputSegments(model.segment_seconds));
  }
  return window;
}

size_t HistoryRingSize(const OfflineModel& model, int64_t n_segments,
                       int64_t segs_per_interval) {
  // Without a forecaster the window is one plan interval, so the reach is
  // twice the window. At least one category, so the write i % size is
  // defined.
  const size_t read_back = std::min(
      static_cast<size_t>(LastBoundary(n_segments, segs_per_interval)),
      HistoryWindow(model, segs_per_interval) +
          static_cast<size_t>(segs_per_interval));
  return std::max<size_t>(1, read_back);
}

bool SegmentWindowFits(int64_t first_segment, int64_t n_segments) {
  // Compared without summing: first_segment + n_segments - 1 may pass int64.
  return n_segments >= 0 &&
         (n_segments == 0 ||
          first_segment <=
              std::numeric_limits<int64_t>::max() - (n_segments - 1));
}

bool EngineResultsIdentical(const EngineResult& a, const EngineResult& b) {
  // Every field is a double or a 64-bit count, compared by its bytes: NaNs
  // with equal bits compare equal, +0.0 and -0.0 compare different —
  // exactly the "bitwise" contract the parity gates promise (operator==
  // would get both cases wrong).
  auto same = [](const auto& x, const auto& y) {
    static_assert(sizeof(x) == sizeof(uint64_t));
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  };
  bool identical = a.trace.size() == b.trace.size();
  ForEachResultField([&](const char*, auto field) {
    identical = identical && same(a.*field, b.*field);
  });
  for (size_t i = 0; identical && i < a.trace.size(); ++i) {
    ForEachTraceField([&](const char*, auto field) {
      identical = identical && same(a.trace[i].*field, b.trace[i].*field);
    });
  }
  return identical;
}

IngestionEngine::IngestionEngine(const Workload* workload,
                                 const OfflineModel* model,
                                 const sim::ClusterSpec& cluster,
                                 const sim::CostModel* cost_model,
                                 EngineOptions options)
    : workload_(workload),
      model_(model),
      cluster_(cluster),
      cost_model_(cost_model),
      options_(std::move(options)) {
  // Resolve the optional provisioning fields once: unset means the engine
  // defaults (the api facade fills in its Resources *before* construction,
  // and only for fields the caller left unset).
  if (!options_.buffer_bytes.has_value()) {
    options_.buffer_bytes = kDefaultBufferBytes;
  }
  if (!options_.cloud_budget_usd_per_interval.has_value()) {
    options_.cloud_budget_usd_per_interval = 0.0;
  }
}

void IngestionEngine::MaterializeContent() const {
  const IngestState& s = *state_;
  if (s.next_index >= s.n_segments) return;
  const double seg = model_->segment_seconds;
  // The last run-local segment the run reads: its own last one, or, when it
  // forecasts from ground truth, the last segment of the look-ahead of its
  // last boundary (GroundTruthForecastInto reads `ahead` segments from
  // each boundary).
  double last = static_cast<double>(s.n_segments - 1);
  if (options_.use_ground_truth_forecast) {
    const double ahead = std::trunc(options_.plan_interval / seg);
    last = std::max(
        last,
        static_cast<double>(LastBoundary(s.n_segments, s.segs_per_interval)) +
            ahead - 1.0);
  }
  // Indexes summed as doubles: two int64 counts that each fit (Start's
  // check, or a restored checkpoint's) may overflow int64 together. Below
  // 2^53, past any content horizon, the sums are exact, so the end is
  // bitwise the midpoint StreamSource::Segment samples.
  const double first = static_cast<double>(s.first_segment);
  workload_->content_process().Materialize(
      (first + static_cast<double>(s.next_index)) * seg,
      (first + last) * seg + 0.5 * seg);
}

size_t IngestionEngine::TrueCategoryInto(const video::ContentState& content,
                                         std::vector<double>* quals) const {
  TrueQualityVectorInto(*workload_, model_->configs, content, quals);
  return model_->categories.ClassifyFull(*quals);
}

void IngestionEngine::GroundTruthForecastInto(int64_t first_segment_index,
                                              std::vector<double>* out) const {
  double seg = model_->segment_seconds;
  int64_t count = static_cast<int64_t>(options_.plan_interval / seg);
  video::StreamSource source(&workload_->content_process(), seg);
  out->assign(model_->categories.NumCategories(), 0.0);
  for (int64_t i = 0; i < count; ++i) {
    (*out)[TrueCategoryInto(source.Segment(first_segment_index + i).content,
                            &scratch_.quals)] += 1.0;
  }
  *out = NormalizeHistogram(std::move(*out));
}

bool IngestionEngine::LookAheadFits(int64_t first_segment,
                                    int64_t n_segments,
                                    int64_t segs_per_interval) const {
  if (!options_.use_ground_truth_forecast || n_segments <= 0) return true;
  // GroundTruthForecastInto reads this many segments from each boundary.
  const double ahead = options_.plan_interval / model_->segment_seconds;
  if (!(std::abs(ahead) < 0x1p63)) return false;
  const int64_t count = static_cast<int64_t>(ahead);
  if (count <= 0) return true;
  return first_segment <= std::numeric_limits<int64_t>::max() -
                              LastBoundary(n_segments, segs_per_interval) -
                              (count - 1);
}

const std::vector<double>& IngestionEngine::config_costs() const {
  std::vector<double>& costs = scratch_.costs;
  if (costs.size() != model_->profiles.size()) {
    costs.clear();
    costs.reserve(model_->profiles.size());
    for (const ConfigProfile& p : model_->profiles) {
      costs.push_back(p.work_core_s_per_video_s);
    }
  }
  return costs;
}

bool IngestionEngine::CloudOutageNow() const {
  return options_.fault_injector != nullptr && state_ != nullptr &&
         options_.fault_injector->CloudOutageAt(CurrentTime());
}

double IngestionEngine::PlanBudgetCoreSPerVideoS() const {
  double budget = static_cast<double>(cluster_.cores);
  double cloud_budget = *options_.cloud_budget_usd_per_interval;
  // During a sustained outage the coming interval is planned on-prem-only:
  // the budget sees no cloud term, so the planner picks configurations the
  // local cores can actually sustain. Bursting resumes at the first boundary
  // after the outage window closes.
  if (options_.enable_cloud && cloud_budget > 0 && !CloudOutageNow()) {
    budget +=
        cost_model_->UsdToCoreSeconds(cloud_budget) / options_.plan_interval;
  }
  if (options_.work_budget_override > 0) {
    budget = options_.work_budget_override;
  }
  return budget;
}

void IngestionEngine::ComputeBoundaryForecastInto(std::vector<double>* out) {
  IngestState& s = *state_;
  size_t num_c = model_->categories.NumCategories();
  const Forecaster* forecaster =
      s.forecaster.has_value() ? &*s.forecaster : nullptr;
  const History h = HistoryOf(*model_, s);
  if (options_.use_ground_truth_forecast) {
    GroundTruthForecastInto(s.first_segment + s.next_index, out);
  } else if (forecaster != nullptr && h.len > 0) {
    // PrepareBoundary just wrote this boundary's features; the forward pass
    // runs against the forecaster's own reusable inference scratch, so
    // nothing here allocates at steady state.
    forecaster->ForecastInto(s.plan_features, out);
  } else if (h.len > 0) {
    HistoryHistogramInto(h, h.len, h.len, num_c, &scratch_.counts, out);
  } else {
    out->assign(num_c, 1.0 / static_cast<double>(num_c));
  }
}

KnobPlan IngestionEngine::FallbackPlan(
    const std::vector<double>& forecast) const {
  // Budget below even the cheapest configuration: degrade to an
  // all-cheapest plan; the switcher's buffer guard does the rest.
  const std::vector<double>& costs = config_costs();
  size_t num_c = model_->categories.NumCategories();
  size_t cheapest = 0;
  for (size_t k = 1; k < costs.size(); ++k) {
    if (costs[k] < costs[cheapest]) cheapest = k;
  }
  KnobPlan fallback;
  fallback.alpha = ml::Matrix(num_c, costs.size(), 0.0);
  for (size_t c = 0; c < num_c; ++c) fallback.alpha.At(c, cheapest) = 1.0;
  fallback.forecast = forecast;
  fallback.expected_work = costs[cheapest];
  for (size_t c = 0; c < num_c; ++c) {
    fallback.expected_quality +=
        forecast[c] * model_->categories.CenterQuality(c, cheapest);
  }
  return fallback;
}

Result<KnobPlan> IngestionEngine::PlanFromPreparedForecast() {
  IngestState& s = *state_;
  Result<KnobPlan> plan = ComputeKnobPlan(
      model_->categories, s.boundary_forecast, config_costs(),
      PlanBudgetCoreSPerVideoS(), &scratch_.workspace);
  if (plan.ok()) return plan;
  if (plan.status().code() != StatusCode::kResourceExhausted) {
    return plan.status();
  }
  return FallbackPlan(s.boundary_forecast);
}

bool IngestionEngine::AtPlanBoundary() const {
  return state_ != nullptr && state_->next_index < state_->n_segments &&
         state_->next_index % state_->segs_per_interval == 0 &&
         !state_->boundary_installed;
}

Status IngestionEngine::PrepareBoundary() {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("Start() the engine before stepping");
  }
  IngestState& s = *state_;
  if (s.next_index >= s.n_segments) {
    return Status::FailedPrecondition("ingest run is complete");
  }
  if (s.next_index % s.segs_per_interval != 0 || s.boundary_installed) {
    return Status::FailedPrecondition("engine is not at a plan boundary");
  }
  if (s.boundary_prepared) return Status::Ok();
  if (s.forecaster.has_value()) {
    // Online forecaster fine-tuning: at each boundary, feed back the
    // realized distribution of the interval that just ended (§3.3), against
    // the features the previous boundary stored.
    size_t interval_segs = static_cast<size_t>(s.segs_per_interval);
    const History h = HistoryOf(*model_, s);
    if (s.next_index > 0 && !s.plan_features.empty() &&
        h.len >= interval_segs) {
      HistoryHistogramInto(h, interval_segs, interval_segs,
                           model_->categories.NumCategories(),
                           &scratch_.counts, &scratch_.realized);
      s.forecaster->OnlineUpdate(s.plan_features, scratch_.realized);
    }
    // This boundary's features: the forecast input below, and the fine-tune
    // input at the next boundary. They travel in the state, so a checkpoint
    // taken between prepare and install carries them.
    UpdateSplitCounts();
    s.forecaster->FeaturesFromSplitCountsInto(scratch_.split_counts,
                                              &s.plan_features);
  }
  ComputeBoundaryForecastInto(&s.boundary_forecast);
  s.boundary_prepared = true;
  return Status::Ok();
}

void IngestionEngine::UpdateSplitCounts() {
  const IngestState& s = *state_;
  const History h = HistoryOf(*model_, s);
  const Forecaster& f = *s.forecaster;
  const double seg = model_->segment_seconds;
  const size_t splits = f.options().input_splits;
  const size_t num_c = f.num_categories();
  const size_t in_segs = f.InputSegments(seg);
  std::vector<uint32_t>& counts = scratch_.split_counts;
  std::vector<uint32_t>& crossed = scratch_.counts;
  // Edge e starts split e (edge `splits` is the write position); this is
  // how many segments before the write position it sits.
  auto edge_back = [&](size_t e) {
    return e == splits ? 0 : h.len - f.SplitWindow(e, h.len, seg).first;
  };
  size_t delta = 0;  // segments ingested since the counts were current
  if (scratch_.split_counts_at >= 0) {
    delta = static_cast<size_t>(s.next_index - scratch_.split_counts_at);
  }
  // Slide while the windows keep their full-span geometry and reading the
  // segments that crossed the splits + 1 edges beats reading the span. The
  // slide looks back delta + in_segs segments: one plan interval past the
  // span at consecutive boundaries, which the ring is sized to reach. A
  // boundary that was not prepared leaves a longer delta, and the last
  // test recounts it instead.
  if (scratch_.split_counts_at >= 0 && h.len >= in_segs &&
      (splits + 1) * delta < in_segs && delta + in_segs <= h.readable()) {
    // Every edge moved `delta` segments on: the segments it passed leave
    // split e and join split e - 1. The first edge only drops them; the
    // last only adds the newly ingested ones.
    for (size_t e = 0; e <= splits; ++e) {
      crossed.assign(num_c, 0);
      CountHistoryInto(h, edge_back(e) + delta, delta, num_c, crossed.data());
      for (size_t c = 0; c < num_c; ++c) {
        if (e < splits) counts[e * num_c + c] -= crossed[c];
        if (e > 0) counts[(e - 1) * num_c + c] += crossed[c];
      }
    }
  } else {
    counts.assign(splits * num_c, 0);
    for (size_t split = 0; split < splits; ++split) {
      auto [begin, end] = f.SplitWindow(split, h.len, seg);
      CountHistoryInto(h, h.len - begin, end - begin, num_c,
                       counts.data() + split * num_c);
    }
  }
  scratch_.split_counts_at = h.len >= in_segs ? s.next_index : -1;
}

Status IngestionEngine::InstallPlan(KnobPlan plan,
                                    std::optional<double> cloud_credits_usd) {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("Start() the engine before stepping");
  }
  IngestState& s = *state_;
  if (s.next_index >= s.n_segments) {
    return Status::FailedPrecondition("ingest run is complete");
  }
  if (s.next_index % s.segs_per_interval != 0 || s.boundary_installed) {
    return Status::FailedPrecondition("engine is not at a plan boundary");
  }
  const double expected_work = plan.expected_work;
  s.switcher.SetPlan(std::move(plan));
  double cloud_budget =
      options_.enable_cloud
          ? cloud_credits_usd.value_or(*options_.cloud_budget_usd_per_interval)
          : 0.0;
  if (cloud_budget > 0.0 && CloudOutageNow()) {
    // Graceful degradation: no credits are granted for an interval that
    // begins inside an outage window — the whole interval runs on-prem.
    cloud_budget = 0.0;
    ++s.result.outage_intervals;
  }
  s.credits_remaining = cloud_budget;
  s.planned_usd_per_interval = std::min(
      cloud_budget,
      cost_model_->CoreSecondsToUsd(
          std::max(0.0, expected_work - static_cast<double>(cluster_.cores)) *
          options_.plan_interval));
  ++s.interval_index;
  s.boundary_prepared = false;
  s.boundary_installed = true;
  return Status::Ok();
}

Status IngestionEngine::Start(SimTime start_time) {
  if (model_->profiles.empty()) {
    return Status::FailedPrecondition("offline model has no profiles");
  }
  // Refuse numbers no run is built from before any of them is cast: each
  // budget is a finite amount, never negative, and each span a finite
  // segment count that fits in int64.
  const double cloud_budget = *options_.cloud_budget_usd_per_interval;
  const double work_budget = options_.work_budget_override;
  if (!std::isfinite(cloud_budget) || cloud_budget < 0.0 ||
      !std::isfinite(work_budget) || work_budget < 0.0) {
    return Status::InvalidArgument("budgets must be finite and non-negative");
  }
  double seg = model_->segment_seconds;
  auto fits_int64 = [](double segments) {
    return std::isfinite(segments) && segments > -0x1p63 && segments < 0x1p63;
  };
  if (!fits_int64(options_.duration / seg) ||
      !fits_int64(options_.plan_interval / seg) ||
      !fits_int64(start_time / seg)) {
    return Status::InvalidArgument(
        "duration, plan interval and start time must be finite segment "
        "counts that fit in int64");
  }
  const int64_t first_segment = static_cast<int64_t>(start_time / seg);
  const int64_t n_segments = static_cast<int64_t>(options_.duration / seg);
  const int64_t segs_per_interval =
      std::max<int64_t>(1, static_cast<int64_t>(options_.plan_interval / seg));
  if (options_.duration < 0.0 ||
      !SegmentWindowFits(first_segment, n_segments) ||
      !LookAheadFits(first_segment, n_segments, segs_per_interval)) {
    return Status::InvalidArgument(
        "duration must be non-negative and every segment index the run "
        "reads must fit in int64");
  }
  const size_t history_window = HistoryWindow(*model_, segs_per_interval);
  SKY_RETURN_NOT_OK(CheckHistoryFitsModel(*model_, history_window));

  state_ = std::make_unique<IngestState>(
      &model_->categories, &model_->profiles,
      options_.enable_buffer ? *options_.buffer_bytes : 0);
  scratch_.split_counts_at = -1;
  IngestState& s = *state_;
  s.start_time = start_time;
  s.n_segments = n_segments;
  s.segs_per_interval = segs_per_interval;
  s.first_segment = first_segment;
  MaterializeContent();

  Rng rng(options_.seed);
  s.noise = rng.Fork("measurement");

  // The engine fine-tunes its own copy of the forecaster online (§3.3); the
  // offline model stays untouched so runs are independent.
  s.forecaster = model_->forecaster;

  // Rolling category history, bounded instead of growing O(duration): the
  // last history_window categories of the offline training sequence, read
  // in place from the model, then the categories this run decides, of which
  // the engine keeps as many as its boundaries read back (HistoryRingSize).
  // Its length follows a vector compacted at 2x capacity: on reaching
  // 2 * history_window it drops back to history_window before the next
  // push. The forecaster features read the last `input_span` and the
  // fine-tune the last interval, so both see what they would unbounded. The
  // forecaster-less fallback forecast (a histogram of the whole history)
  // becomes a recency window instead of the whole-run distribution: the
  // training tail at the first boundary, then the last two plan intervals
  // at every boundary after it (less by what a tail shorter than the window
  // lacks).
  s.history_window = history_window;
  s.history = CategorySequence(
      model_->categories.NumCategories(),
      HistoryRingSize(*model_, n_segments, segs_per_interval));

  // Start on the cheapest profiled configuration.
  const std::vector<ConfigProfile>& profiles = model_->profiles;
  s.current_config = 0;
  for (size_t k = 1; k < profiles.size(); ++k) {
    if (profiles[k].work_core_s_per_video_s <
        profiles[s.current_config].work_core_s_per_video_s) {
      s.current_config = k;
    }
  }
  s.last_measured = workload_->MeasuredQuality(
      model_->configs[s.current_config],
      workload_->content_process().At(start_time), &s.noise);

  s.next_trace_t = start_time;
  return Status::Ok();
}

SimTime IngestionEngine::CurrentTime() const {
  if (state_ == nullptr) return 0.0;
  return state_->start_time +
         static_cast<double>(state_->next_index) * model_->segment_seconds;
}

Status IngestionEngine::Step() {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("Start() the engine before Step()");
  }
  IngestState& s = *state_;
  if (s.next_index >= s.n_segments) {
    return Status::FailedPrecondition("ingest run is complete");
  }

  // Injected UDF failure, raised BEFORE any state mutates: a supervisor
  // that catches this can Restore() the last boundary checkpoint and replay
  // the interval bitwise (the one-shot event stays consumed, so the replay
  // gets past it). Raised as an exception — not a Status — because a real
  // workload UDF fails by throwing.
  sim::FaultInjector* const faults = options_.fault_injector;
  if (faults != nullptr) {
    SimTime now = s.start_time +
                  static_cast<double>(s.next_index) * model_->segment_seconds;
    if (faults->ConsumeUdfThrowAt(now)) {
      throw std::runtime_error("injected UDF failure at t=" +
                               std::to_string(now));
    }
  }

  // Plan boundary: self-plan unless StreamSet (or a caller) already
  // installed a jointly computed plan for this boundary.
  if (s.next_index % s.segs_per_interval == 0 && !s.boundary_installed) {
    SKY_RETURN_NOT_OK(PrepareBoundary());
    SKY_ASSIGN_OR_RETURN(KnobPlan plan, PlanFromPreparedForecast());
    SKY_RETURN_NOT_OK(InstallPlan(std::move(plan)));
  }
  // The boundary is consumed by this (first-of-interval) segment.
  s.boundary_installed = false;

  // Loop-invariant model lookups.
  const std::vector<KnobConfig>& configs = model_->configs;
  const std::vector<ConfigProfile>& profiles = model_->profiles;
  const ContentCategories& categories = model_->categories;
  double seg = model_->segment_seconds;

  int64_t i = s.next_index;
  SimTime t = s.start_time + static_cast<double>(i) * seg;

  video::StreamSource source(&workload_->content_process(), seg);
  video::SegmentInfo info = source.Segment(s.first_segment + i);
  double bytes_per_s =
      static_cast<double>(info.bytes) / std::max(1e-9, info.duration_s);

  // One ground-truth computation per segment, on the content sample `info`
  // already holds, shared by the category override, the true quality and
  // the §5.6 accuracy accounting below.
  size_t true_cat = TrueCategoryInto(info.content, &scratch_.quals);
  const std::vector<double>& true_quals = scratch_.quals;

  SwitchContext ctx;
  ctx.current_config_idx = s.current_config;
  ctx.measured_quality =
      options_.eliminate_type_b_errors
          ? workload_->MeasuredQuality(configs[s.current_config], info.content,
                                       &s.noise)
          : s.last_measured;
  ctx.lag_seconds = s.lag_s;
  ctx.segment_seconds = seg;
  ctx.bytes_per_video_second = bytes_per_s;
  ctx.buffered_bytes = s.buffered_bytes;
  ctx.buffer_capacity_bytes = s.buffer_capacity_bytes;
  ctx.cloud_credits_remaining_usd = s.credits_remaining;
  ctx.allow_cloud = options_.enable_cloud;
  ctx.allow_buffer = options_.enable_buffer;
  // Fault reality at this instant. Every guard below compares against the
  // exact neutral value (1.0 multiplier, 0 failures), so a null injector and
  // an injector with no active window run bitwise-identical arithmetic.
  bool outage = false;
  double cloud_lat_mult = 1.0;
  double stall_mult = 1.0;
  if (faults != nullptr) {
    outage = faults->CloudOutageAt(t);
    cloud_lat_mult = faults->CloudLatencyMultiplierAt(t);
    stall_mult = faults->UdfStallMultiplierAt(t);
    if (outage && options_.enable_cloud) {
      // Reactive degradation inside the interval: the cloud is unreachable,
      // so this segment decides as if bursting were disabled.
      ctx.allow_cloud = false;
      ++s.result.outage_segments;
    }
    if (cloud_lat_mult != 1.0) ctx.cloud_runtime_multiplier = cloud_lat_mult;
    if (stall_mult != 1.0) ++s.result.udf_stall_segments;
  }
  if (options_.use_ground_truth_categories) {
    ctx.category_override = static_cast<int64_t>(true_cat);
  }

  SKY_ASSIGN_OR_RETURN(SwitchDecision decision, s.switcher.Decide(ctx));

  // Transient cloud-upload failures: retry under the capped-exponential
  // policy (the backoff time lands on this segment's runtime, growing lag
  // like any other slowdown); a segment whose retry budget runs out is
  // degraded to an on-premise decision instead — never an error.
  double fault_runtime_extra_s = 0.0;
  if (faults != nullptr &&
      profiles[decision.config_idx]
              .placements[decision.placement_idx]
              .placement.NumCloudNodes() > 0) {
    size_t fails = faults->CloudUploadFailuresAt(t);
    if (fails > 0) {
      const sim::RetryPolicy& retry = faults->retry_policy();
      size_t attempts = std::min(fails, retry.max_attempts);
      double backoff = faults->BackoffDelaySeconds(attempts);
      s.result.cloud_failures += fails;
      s.result.fault_backoff_s += backoff;
      fault_runtime_extra_s += backoff;
      if (fails > retry.max_attempts) {
        ++s.result.cloud_giveups;
        ctx.allow_cloud = false;
        // Decide() is a pure function of the context (no draws), so the
        // re-decision costs nothing in determinism.
        SKY_ASSIGN_OR_RETURN(decision, s.switcher.Decide(ctx));
      } else {
        s.result.cloud_retries += attempts;
      }
    }
  }

  s.switcher.RecordUsage(decision.category, decision.config_idx);
  if (decision.degraded) ++s.result.degraded_count;
  if (decision.config_idx != s.current_config) ++s.result.switch_count;

  const ConfigProfile& profile = profiles[decision.config_idx];
  const PlacementProfile& placement =
      profile.placements[decision.placement_idx];

  // Runtime as executed: cloud latency slows cloud placements, a stalling
  // UDF slows everything, retry backoff is additive. Each term applies only
  // when active so the fault-free value stays the profiled runtime bitwise.
  double runtime_s = placement.runtime_s;
  if (cloud_lat_mult != 1.0 && placement.placement.NumCloudNodes() > 0) {
    runtime_s *= cloud_lat_mult;
  }
  if (stall_mult != 1.0) runtime_s *= stall_mult;
  if (fault_runtime_extra_s > 0.0) runtime_s += fault_runtime_extra_s;

  // Advance the backlog: the stream gains one segment while the processor
  // spends runtime_s on this one. Backlog growth buffers bytes at the
  // current stream rate; shrinkage releases bytes at the backlog's
  // historical average rate.
  double new_lag = std::max(0.0, s.lag_s + runtime_s - seg);
  if (new_lag > s.lag_s) {
    s.buffered_bytes += (new_lag - s.lag_s) * bytes_per_s;
  } else if (s.lag_s > 0.0) {
    s.buffered_bytes -= (s.lag_s - new_lag) * (s.buffered_bytes / s.lag_s);
  }
  if (new_lag <= 1e-12) s.buffered_bytes = 0.0;
  s.lag_s = new_lag;
  if (s.buffered_bytes > static_cast<double>(s.buffer_capacity_bytes) + 1e-6) {
    // Hard fault: only reachable when no configuration fits at all (the
    // switcher's guarantee covers every provisioned case).
    ++s.result.overflow_events;
    s.buffered_bytes = static_cast<double>(s.buffer_capacity_bytes);
  }
  s.result.buffer_high_water_bytes =
      std::max(s.result.buffer_high_water_bytes,
               static_cast<uint64_t>(s.buffered_bytes));

  s.result.cloud_usd += placement.cloud_usd;
  s.credits_remaining -= placement.cloud_usd;
  s.result.onprem_core_seconds += placement.onprem_core_s;
  s.result.work_core_seconds += profile.work_core_s_per_video_s * seg;

  // The decision config's true quality is one coordinate of the
  // ground-truth vector — no extra TrueQuality call.
  double true_q = true_quals[decision.config_idx];
  s.result.total_quality += true_q;
  if (!options_.eliminate_type_b_errors) {
    // Skipped in type-B-elimination mode, where the switcher measures the
    // current segment itself: both modes then consume exactly one noise
    // draw per segment, so a Fig. 15 comparison is noise-paired and
    // differs only in measurement timing.
    s.last_measured = workload_->MeasuredQuality(configs[decision.config_idx],
                                                 info.content, &s.noise);
  }

  // Switcher accuracy accounting (§5.6), on the same ground truth.
  if (decision.category != true_cat) {
    ++s.result.misclassified;
    // Type-A: would perfect timing have produced the same error? Classify
    // with the previous configuration's quality on *this* segment.
    size_t timely_cat = categories.ClassifyPartial(
        ctx.current_config_idx, true_quals[ctx.current_config_idx]);
    if (timely_cat != true_cat) {
      ++s.result.type_a_errors;
    } else {
      ++s.result.type_b_errors;
    }
  }
  s.history.Set(static_cast<size_t>(i) % s.history.size(),
                static_cast<uint8_t>(decision.category));
  s.current_config = decision.config_idx;
  ++s.result.segments;

  if (options_.record_trace && t >= s.next_trace_t) {
    TracePoint point;
    point.t = t;
    point.quality = true_q;
    point.work_core_s_per_s = profile.work_core_s_per_video_s;
    point.buffer_bytes = s.buffered_bytes;
    point.cloud_usd_cumulative = s.result.cloud_usd;
    double interval_fraction =
        static_cast<double>(i % s.segs_per_interval) /
        static_cast<double>(s.segs_per_interval);
    point.cloud_usd_planned =
        (static_cast<double>(s.interval_index - 1) + interval_fraction) *
        s.planned_usd_per_interval;
    point.config_idx = decision.config_idx;
    point.category = decision.category;
    s.result.trace.push_back(point);
    s.next_trace_t += options_.trace_resolution_s;
  }

  ++s.next_index;
  // Keep the partial result coherent at every step; at the last step this
  // is exactly the one final division the batch loop used to do.
  s.result.mean_quality =
      s.result.segments == 0
          ? 0.0
          : s.result.total_quality / static_cast<double>(s.result.segments);
  return Status::Ok();
}

Status IngestionEngine::RunUntil(SimTime t) {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("Start() the engine before RunUntil()");
  }
  while (!Done() && CurrentTime() < t) {
    SKY_RETURN_NOT_OK(Step());
  }
  return Status::Ok();
}

Result<EngineResult> IngestionEngine::Run(SimTime start_time) {
  SKY_RETURN_NOT_OK(Start(start_time));
  while (!Done()) {
    SKY_RETURN_NOT_OK(Step());
  }
  // Copy (not move) the result out: the completed session stays inspectable
  // through partial_result()/Done()/current_plan() until the next Start.
  return state_->result;
}

Result<IngestState> IngestionEngine::Checkpoint() const {
  if (state_ == nullptr) {
    return Status::FailedPrecondition(
        "no session to checkpoint: call Start() first");
  }
  return *state_;
}

Status IngestionEngine::Restore(const IngestState& snapshot) {
  if (model_->profiles.empty()) {
    return Status::FailedPrecondition("offline model has no profiles");
  }
  if (snapshot.segs_per_interval <= 0) {
    return Status::InvalidArgument(
        "checkpoint does not hold a started session");
  }
  if (!LookAheadFits(snapshot.first_segment, snapshot.n_segments,
                     snapshot.segs_per_interval)) {
    return Status::InvalidArgument(
        "checkpoint's ground-truth look-ahead passes the int64 segment "
        "range");
  }
  // The ring's position and the history's length follow from next_index
  // over this model's training tail, so the snapshot's history must be the
  // one this model gives its run, packed for its categories.
  if (snapshot.history_window !=
          HistoryWindow(*model_, snapshot.segs_per_interval) ||
      snapshot.history.size() !=
          HistoryRingSize(*model_, snapshot.n_segments,
                          snapshot.segs_per_interval) ||
      snapshot.history.width() !=
          CategorySequence::WidthFor(model_->categories.NumCategories())) {
    return Status::InvalidArgument(
        "checkpoint history does not fit this engine's model");
  }
  SKY_RETURN_NOT_OK(CheckHistoryFitsModel(*model_, snapshot.history_window));
  state_ = std::make_unique<IngestState>(snapshot);
  scratch_.split_counts_at = -1;
  MaterializeContent();
  return Status::Ok();
}

}  // namespace sky::core
