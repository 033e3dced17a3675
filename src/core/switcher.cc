#include "core/switcher.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace sky::core {

KnobSwitcher::KnobSwitcher(const ContentCategories* categories,
                           const std::vector<ConfigProfile>* profiles)
    : categories_(categories), profiles_(profiles) {
  size_t num_k = profiles_->size();
  size_t num_c = categories_->NumCategories();
  usage_counts_.assign(num_c, std::vector<double>(num_k, 0.0));
  usage_totals_.assign(num_c, 0.0);

  // Degradation order: configurations sorted by mean category-center
  // quality, best first.
  std::vector<double> mean_quality(num_k, 0.0);
  for (size_t k = 0; k < num_k; ++k) {
    for (size_t c = 0; c < num_c; ++c) {
      mean_quality[k] += categories_->CenterQuality(c, k);
    }
    mean_quality[k] /= static_cast<double>(num_c);
  }
  quality_order_.resize(num_k);
  std::iota(quality_order_.begin(), quality_order_.end(), 0);
  std::sort(quality_order_.begin(), quality_order_.end(),
            [&mean_quality](size_t a, size_t b) {
              return mean_quality[a] > mean_quality[b];
            });
}

void KnobSwitcher::SetPlan(KnobPlan plan) {
  plan_ = std::move(plan);
  for (auto& row : usage_counts_) std::fill(row.begin(), row.end(), 0.0);
  std::fill(usage_totals_.begin(), usage_totals_.end(), 0.0);
}

void KnobSwitcher::RecordUsage(size_t category, size_t config_idx) {
  if (category >= usage_counts_.size()) return;
  if (config_idx >= usage_counts_[category].size()) return;
  usage_counts_[category][config_idx] += 1.0;
  usage_totals_[category] += 1.0;
}

namespace {

// Placement runtime as the current instant will actually experience it:
// cloud placements are slowed by any injected latency fault. The exact
// `!= 1.0` guard keeps the fault-free arithmetic bitwise untouched.
double EffectiveRuntimeS(const PlacementProfile& p, const SwitchContext& ctx) {
  if (ctx.cloud_runtime_multiplier != 1.0 && p.placement.NumCloudNodes() > 0) {
    return p.runtime_s * ctx.cloud_runtime_multiplier;
  }
  return p.runtime_s;
}

}  // namespace

Status KnobSwitcher::RestoreUsage(
    const std::vector<std::vector<double>>& counts,
    const std::vector<double>& totals) {
  if (counts.size() != usage_counts_.size() ||
      totals.size() != usage_totals_.size()) {
    return Status::InvalidArgument("usage histogram category count mismatch");
  }
  for (const auto& row : counts) {
    if (row.size() != profiles_->size()) {
      return Status::InvalidArgument("usage histogram config count mismatch");
    }
  }
  usage_counts_ = counts;
  usage_totals_ = totals;
  return Status::Ok();
}

bool KnobSwitcher::PlacementFeasible(const PlacementProfile& p,
                                     const SwitchContext& ctx) const {
  if (!ctx.allow_cloud && p.placement.NumCloudNodes() > 0) return false;
  if (p.cloud_usd > ctx.cloud_credits_remaining_usd + 1e-12) return false;
  // Predicted backlog after processing this segment with placement p. The
  // stream advances one segment while the processor spends its runtime;
  // backlog growth is charged at the current stream byte rate, shrinking
  // backlog only releases bytes (never overflows).
  double new_lag = std::max(
      0.0, ctx.lag_seconds + EffectiveRuntimeS(p, ctx) - ctx.segment_seconds);
  if (!ctx.allow_buffer && new_lag > 1e-9) return false;
  double predicted_bytes = ctx.buffered_bytes;
  if (new_lag > ctx.lag_seconds) {
    predicted_bytes +=
        (new_lag - ctx.lag_seconds) * ctx.bytes_per_video_second;
  }
  return predicted_bytes <= static_cast<double>(ctx.buffer_capacity_bytes);
}

Result<SwitchDecision> KnobSwitcher::Decide(const SwitchContext& ctx) const {
  if (!plan_.has_value()) {
    return Status::FailedPrecondition("no knob plan installed");
  }
  size_t num_k = profiles_->size();
  if (ctx.current_config_idx >= num_k) {
    return Status::OutOfRange("current config index out of range");
  }

  SwitchDecision decision;

  // Step 1 (Eq. 5): classify content from the current config's quality.
  if (ctx.category_override >= 0 &&
      static_cast<size_t>(ctx.category_override) <
          categories_->NumCategories()) {
    decision.category = static_cast<size_t>(ctx.category_override);
  } else {
    decision.category = categories_->ClassifyPartial(ctx.current_config_idx,
                                                     ctx.measured_quality);
  }

  // Step 2: look the category up in the plan.
  size_t c = decision.category;

  // Step 3 (Eq. 6): pick the configuration whose actual usage lags its
  // planned share the most.
  double total = usage_totals_[c];
  size_t planned = 0;
  double best_deficit = -std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < num_k; ++k) {
    double used = total > 0 ? usage_counts_[c][k] / total : 0.0;
    double deficit = plan_->alpha.At(c, k) - used;
    if (deficit > best_deficit) {
      best_deficit = deficit;
      planned = k;
    }
  }
  decision.planned_config_idx = planned;

  // Placement selection with the buffer guarantee: cheapest feasible
  // placement of the planned configuration; if none exists, degrade to the
  // next less qualitative configuration (recursively, §4.2).
  auto try_config = [&](size_t k) -> bool {
    const ConfigProfile& profile = (*profiles_)[k];
    for (size_t p = 0; p < profile.placements.size(); ++p) {
      ++decision.pairs_scanned;
      if (PlacementFeasible(profile.placements[p], ctx)) {
        decision.config_idx = k;
        decision.placement_idx = p;
        return true;
      }
    }
    return false;
  };

  if (try_config(planned)) return decision;

  decision.degraded = true;
  // Walk the quality order starting just below the planned configuration.
  auto it = std::find(quality_order_.begin(), quality_order_.end(), planned);
  for (auto next = it == quality_order_.end() ? quality_order_.begin()
                                              : std::next(it);
       next != quality_order_.end(); ++next) {
    if (try_config(*next)) return decision;
  }
  // Nothing below the planned config fits; scan everything from the top as
  // a last resort (covers plans whose "planned" config is already cheapest).
  for (size_t k : quality_order_) {
    if (k == planned) continue;
    if (try_config(k)) return decision;
  }

  // No configuration has any feasible placement: pick the globally fastest
  // pair. The engine treats the resulting overflow as a hard fault — this
  // is what Chameleon* hits and Skyscraper's provisioning rules prevent.
  double best_runtime = std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < num_k; ++k) {
    const ConfigProfile& profile = (*profiles_)[k];
    for (size_t p = 0; p < profile.placements.size(); ++p) {
      bool cloud_ok = ctx.allow_cloud ||
                      profile.placements[p].placement.NumCloudNodes() == 0;
      if (!cloud_ok) continue;
      if (profile.placements[p].cloud_usd >
          ctx.cloud_credits_remaining_usd + 1e-12) {
        continue;
      }
      double runtime = EffectiveRuntimeS(profile.placements[p], ctx);
      if (runtime < best_runtime) {
        best_runtime = runtime;
        decision.config_idx = k;
        decision.placement_idx = p;
      }
    }
  }
  return decision;
}

}  // namespace sky::core
