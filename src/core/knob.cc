#include "core/knob.h"

#include <sstream>

namespace sky::core {

Status KnobSpace::AddKnob(std::string name, std::vector<double> values) {
  if (values.empty()) {
    return Status::InvalidArgument("knob domain must be non-empty: " + name);
  }
  for (const KnobDef& k : knobs_) {
    if (k.name == name) {
      return Status::InvalidArgument("duplicate knob name: " + name);
    }
  }
  knobs_.push_back(KnobDef{std::move(name), std::move(values)});
  return Status::Ok();
}

size_t KnobSpace::NumConfigs() const {
  size_t n = 1;
  for (const KnobDef& k : knobs_) n *= k.values.size();
  return knobs_.empty() ? 0 : n;
}

size_t KnobSpace::ConfigToId(const KnobConfig& config) const {
  size_t id = 0;
  for (size_t i = 0; i < knobs_.size(); ++i) {
    id = id * knobs_[i].values.size() + config[i];
  }
  return id;
}

KnobConfig KnobSpace::IdToConfig(size_t id) const {
  KnobConfig config(knobs_.size(), 0);
  for (size_t i = knobs_.size(); i-- > 0;) {
    size_t radix = knobs_[i].values.size();
    config[i] = id % radix;
    id /= radix;
  }
  return config;
}

double KnobSpace::Value(const KnobConfig& config, size_t knob_idx) const {
  return knobs_[knob_idx].values[config[knob_idx]];
}

std::vector<KnobConfig> KnobSpace::AllConfigs() const {
  std::vector<KnobConfig> out;
  size_t n = NumConfigs();
  out.reserve(n);
  for (size_t id = 0; id < n; ++id) out.push_back(IdToConfig(id));
  return out;
}

std::vector<KnobConfig> KnobSpace::Neighbors(const KnobConfig& config) const {
  std::vector<KnobConfig> out;
  for (size_t i = 0; i < knobs_.size(); ++i) {
    if (config[i] + 1 < knobs_[i].values.size()) {
      KnobConfig up = config;
      ++up[i];
      out.push_back(std::move(up));
    }
    if (config[i] > 0) {
      KnobConfig down = config;
      --down[i];
      out.push_back(std::move(down));
    }
  }
  return out;
}

std::string KnobSpace::ToString(const KnobConfig& config) const {
  std::ostringstream os;
  for (size_t i = 0; i < knobs_.size(); ++i) {
    if (i > 0) os << ", ";
    os << knobs_[i].name << "=" << knobs_[i].values[config[i]];
  }
  return os.str();
}

Status KnobSpace::ValidateConfig(const KnobConfig& config) const {
  if (config.size() != knobs_.size()) {
    return Status::InvalidArgument("config arity != number of knobs");
  }
  for (size_t i = 0; i < knobs_.size(); ++i) {
    if (config[i] >= knobs_[i].values.size()) {
      return Status::OutOfRange("knob value index out of domain: " +
                                knobs_[i].name);
    }
  }
  return Status::Ok();
}

}  // namespace sky::core
