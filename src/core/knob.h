#ifndef SKYSCRAPER_CORE_KNOB_H_
#define SKYSCRAPER_CORE_KNOB_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/result.h"

namespace sky::core {

/// A knob configuration: one value-index per registered knob (§2.1). The
/// index refers into the corresponding knob's domain.
using KnobConfig = std::vector<size_t>;

/// A user-registered knob: a name plus the (numeric) domain of values it may
/// take. Categorical domains (e.g. model size {small, medium, large}) are
/// registered as ordinal indices {0, 1, 2}.
struct KnobDef {
  std::string name;
  std::vector<double> values;
};

/// The cross-product space of all registered knobs. Configurations are
/// enumerable and addressable by a dense id in [0, NumConfigs()).
class KnobSpace {
 public:
  /// Registers a knob; fails on empty domains or duplicate names.
  Status AddKnob(std::string name, std::vector<double> values);

  size_t NumKnobs() const { return knobs_.size(); }
  const KnobDef& knob(size_t i) const { return knobs_[i]; }

  /// Product of domain sizes.
  size_t NumConfigs() const;

  /// Dense id <-> configuration (mixed-radix encoding).
  size_t ConfigToId(const KnobConfig& config) const;
  KnobConfig IdToConfig(size_t id) const;

  /// The knob value selected by `config` for knob `knob_idx`.
  double Value(const KnobConfig& config, size_t knob_idx) const;

  /// All configurations in id order. Intended for small spaces (the paper's
  /// workloads have 40-100 configurations before filtering).
  std::vector<KnobConfig> AllConfigs() const;

  /// Configurations reachable by moving exactly one knob one step up or
  /// down — the neighborhood used by greedy hill climbing (Appendix A.1).
  std::vector<KnobConfig> Neighbors(const KnobConfig& config) const;

  /// Human-readable "knob=value, ..." string.
  std::string ToString(const KnobConfig& config) const;

  Status ValidateConfig(const KnobConfig& config) const;

 private:
  std::vector<KnobDef> knobs_;
};

}  // namespace sky::core

#endif  // SKYSCRAPER_CORE_KNOB_H_
