#ifndef SKYSCRAPER_CORE_SWITCHER_H_
#define SKYSCRAPER_CORE_SWITCHER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/planner.h"
#include "core/profiler.h"
#include "util/result.h"

namespace sky::core {

/// Everything the switcher needs to know about the current instant.
struct SwitchContext {
  /// Index (into the filtered config list) of the currently running config.
  size_t current_config_idx = 0;
  /// Quality the user code reported for the segment just processed.
  double measured_quality = 1.0;
  /// Processing backlog: how far the processor's completion time lags behind
  /// the stream arrival time, in seconds.
  double lag_seconds = 0.0;
  double segment_seconds = 2.0;
  /// Byte rate of the arriving stream: backlog *growth* is charged at this
  /// rate (already-buffered bytes keep their historical sizes).
  double bytes_per_video_second = 90e3;
  /// Bytes currently held in the buffer.
  double buffered_bytes = 0.0;
  uint64_t buffer_capacity_bytes = 4ull << 30;
  /// Cloud credits still available in the current planned interval.
  double cloud_credits_remaining_usd = 0.0;
  bool allow_cloud = true;
  bool allow_buffer = true;
  /// Runtime multiplier applied to placements that use cloud nodes —
  /// elevated network latency injected by sim::FaultInjector. Exactly 1.0
  /// when no fault is active; the feasibility prediction sees the same
  /// slowdown the executed segment will.
  double cloud_runtime_multiplier = 1.0;
  /// When >= 0, bypasses Eq. 5 and uses this category directly (the
  /// ground-truth baselines of §5.6 / Fig. 15).
  int64_t category_override = -1;
};

struct SwitchDecision {
  size_t config_idx = 0;
  size_t placement_idx = 0;
  /// Content category the current content was classified into (step 1).
  size_t category = 0;
  /// The configuration Eq. 6 wanted before any buffer-driven degradation.
  size_t planned_config_idx = 0;
  /// True if the buffer constraint forced a cheaper configuration.
  bool degraded = false;
  /// Number of (config, placement) pairs examined — the quantity the
  /// worst-case overhead analysis of Fig. 13 is linear in.
  size_t pairs_scanned = 0;
};

/// The reactive knob switcher of §4.2. Each decision:
///  1. classifies the current content category from the reported quality of
///     the current configuration only (Eq. 5);
///  2. looks the category up in the knob plan;
///  3. picks the configuration that brings actual usage closest to the
///     planned histogram (Eq. 6) and the cheapest placement that will not
///     overflow the buffer, recursively degrading to the next less
///     qualitative configuration if no placement fits.
class KnobSwitcher {
 public:
  /// `categories` and `profiles` must outlive the switcher. The i-th profile
  /// corresponds to quality-vector dimension i of the categories.
  KnobSwitcher(const ContentCategories* categories,
               const std::vector<ConfigProfile>* profiles);

  /// Installs a new plan (the planner runs every few days). The switcher
  /// owns it, so a copy of the switcher decides by its own plan. Usage
  /// histograms reset so the new interval adheres to the new plan.
  void SetPlan(KnobPlan plan);

  /// The currently installed plan (null before the first SetPlan).
  const KnobPlan* plan() const { return plan_ ? &*plan_ : nullptr; }

  Result<SwitchDecision> Decide(const SwitchContext& ctx) const;

  /// Records that `config_idx` was actually used for content of `category`
  /// (updates the alpha-hat histograms of Eq. 6).
  void RecordUsage(size_t category, size_t config_idx);

  /// Configuration indices ordered from most to least qualitative (mean
  /// category-center quality) — the degradation order of §4.2.
  const std::vector<size_t>& quality_order() const { return quality_order_; }

  /// Eq. 6 usage state, exposed so checkpoints can persist it:
  /// usage_counts()[c][k] counts segments of category c run with config k.
  const std::vector<std::vector<double>>& usage_counts() const {
    return usage_counts_;
  }
  const std::vector<double>& usage_totals() const { return usage_totals_; }

  /// Reinstates previously captured usage histograms (checkpoint restore).
  /// Shapes must match the (categories, profiles) this switcher was built
  /// with; fails with kInvalidArgument otherwise.
  Status RestoreUsage(const std::vector<std::vector<double>>& counts,
                      const std::vector<double>& totals);

 private:
  /// True if placement `p` of config `k` keeps the buffer within capacity
  /// and within remaining cloud credits.
  bool PlacementFeasible(const PlacementProfile& p,
                         const SwitchContext& ctx) const;

  const ContentCategories* categories_;
  const std::vector<ConfigProfile>* profiles_;
  std::optional<KnobPlan> plan_;
  std::vector<size_t> quality_order_;
  /// usage_counts_[c][k]: times config k processed content of category c.
  std::vector<std::vector<double>> usage_counts_;
  std::vector<double> usage_totals_;
};

}  // namespace sky::core

#endif  // SKYSCRAPER_CORE_SWITCHER_H_
