// The reference for video::DiurnalContentProcess's per-day event blocks:
// the same content with the whole horizon's events drawn at construction.

#include <algorithm>
#include <cmath>

#include "support/oracles.h"
#include "util/rng.h"

namespace sky::oracle {

namespace {

constexpr double kPi = 3.14159265358979323846;

double Clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

}  // namespace

EagerDiurnalContentProcess::EagerDiurnalContentProcess(
    const video::DiurnalContentProcess::Options& options)
    : options_(options),
      fine_noise_(options.fine_noise_amplitude, 30.0, options.horizon,
                  options.seed ^ 0xA1),
      slow_noise_(options.slow_noise_amplitude, 600.0, options.horizon,
                  options.seed ^ 0xB2),
      occlusion_noise_(0.06, 45.0, options.horizon, options.seed ^ 0xC3),
      day_drift_(options.day_to_day_drift, 5.0 * 86400.0, options.horizon,
                 options.seed ^ 0xD4) {
  Rng rng(options.seed ^ 0xE5);
  double horizon_hours = options.horizon / 3600.0;
  int64_t candidates =
      rng.Poisson(options.event_rate_per_hour * horizon_hours * 1.6);
  for (int64_t i = 0; i < candidates; ++i) {
    SimTime start = rng.Uniform(0.0, options.horizon);
    double base = video::DiurnalContentProcess::BaseDensity(
        options.profile, HourOfDay(start));
    if (!rng.Bernoulli(0.15 + 0.85 * base)) continue;
    Event e;
    e.start = start;
    e.duration_s = rng.Uniform(25.0, 140.0);
    e.magnitude = options.event_magnitude * rng.Uniform(0.5, 1.0);
    events_.push_back(e);
  }
  std::sort(events_.begin(), events_.end(),
            [](const Event& a, const Event& b) { return a.start < b.start; });
}

double EagerDiurnalContentProcess::EventBoost(SimTime t) const {
  double boost = 0.0;
  auto it = std::lower_bound(
      events_.begin(), events_.end(), t - 150.0,
      [](const Event& e, double v) { return e.start < v; });
  for (; it != events_.end() && it->start <= t; ++it) {
    double rel = (t - it->start) / it->duration_s;
    if (rel < 0.0 || rel > 1.0) continue;
    boost += it->magnitude * std::sin(rel * kPi);
  }
  return boost;
}

video::ContentState EagerDiurnalContentProcess::At(SimTime t) const {
  t = std::clamp(t, 0.0, options_.horizon);
  double hour = HourOfDay(t);
  double base = video::DiurnalContentProcess::BaseDensity(options_.profile,
                                                           hour);
  double drift = 1.0 + day_drift_.At(t);
  double density = Clamp01(base * drift + slow_noise_.At(t) +
                           fine_noise_.At(t) + EventBoost(t));
  video::ContentState state;
  state.density = density;
  state.occlusion =
      Clamp01(0.85 * std::pow(density, 1.4) + occlusion_noise_.At(t));
  double daylight = 0.5 * (std::tanh((hour - 6.0) / 1.2) -
                           std::tanh((hour - 19.0) / 1.2));
  state.lighting = Clamp01(0.15 + 0.85 * daylight);
  state.difficulty = Clamp01(0.55 * state.occlusion + 0.30 * state.density +
                             0.15 * (1.0 - state.lighting));
  state.stream_count = 1.0;
  return state;
}

}  // namespace sky::oracle
