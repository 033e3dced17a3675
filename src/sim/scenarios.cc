#include "sim/scenarios.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace sky::sim {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kHalfDayS = 43200.0;

double Clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

/// Occlusion and difficulty re-derived after a scenario rewrote density
/// (crowds overlap superlinearly; mirrors DiurnalContentProcess::At).
void RederiveFromDensity(video::ContentState* state, double occlusion_extra) {
  state->occlusion =
      Clamp01(0.85 * std::pow(state->density, 1.4) + occlusion_extra);
  state->difficulty =
      Clamp01(0.55 * state->occlusion + 0.30 * state->density +
              0.15 * (1.0 - state->lighting));
}

video::DiurnalContentProcess::Options WithHorizonSlack(
    video::DiurnalContentProcess::Options base, SimTime slack) {
  base.horizon += slack;
  return base;
}

}  // namespace

FlashCrowdContentProcess::FlashCrowdContentProcess(
    const FlashCrowdOptions& options)
    : options_(options), base_(options.base) {
  // Burst schedule: Poisson count over the horizon, biased toward waking
  // hours (flash crowds follow announcements, not 4 am streets).
  Rng rng(options.base.seed ^ 0xF1A5);
  double days = options.base.horizon / 86400.0;
  int64_t candidates = rng.Poisson(options.bursts_per_day * days * 1.5);
  for (int64_t i = 0; i < candidates; ++i) {
    SimTime start = rng.Uniform(0.0, options.base.horizon);
    double hour = HourOfDay(start);
    if (!rng.Bernoulli(hour < 7.0 ? 0.15 : 0.75)) continue;  // thinning
    Burst b;
    b.start = start;
    b.amplitude = options.burst_amplitude * rng.Uniform(0.7, 1.0);
    b.hold_s = options.hold_s * rng.Uniform(0.5, 1.5);
    bursts_.push_back(b);
  }
  std::sort(bursts_.begin(), bursts_.end(),
            [](const Burst& a, const Burst& b) { return a.start < b.start; });
}

double FlashCrowdContentProcess::BurstBoost(SimTime t) const {
  // A burst covers [start, start + ramp + hold + 5*decay]; binary search to
  // the first one that could still cover t.
  double window = options_.ramp_s + 1.5 * options_.hold_s +
                  5.0 * options_.decay_s;
  double boost = 0.0;
  auto it = std::lower_bound(
      bursts_.begin(), bursts_.end(), t - window,
      [](const Burst& b, double v) { return b.start < v; });
  for (; it != bursts_.end() && it->start <= t; ++it) {
    double rel = t - it->start;
    double shape;
    if (rel < options_.ramp_s) {
      // Smoothstep onset: empty street to packed in ramp_s.
      double x = rel / options_.ramp_s;
      shape = x * x * (3.0 - 2.0 * x);
    } else if (rel < options_.ramp_s + it->hold_s) {
      shape = 1.0;
    } else {
      double tail = rel - options_.ramp_s - it->hold_s;
      if (tail > 5.0 * options_.decay_s) continue;
      shape = std::exp(-tail / options_.decay_s);
    }
    boost += it->amplitude * shape;
  }
  return boost;
}

video::ContentState FlashCrowdContentProcess::At(SimTime t) const {
  video::ContentState state = base_.At(t);
  double boost = BurstBoost(t);
  if (boost > 0.0) {
    double residual = state.occlusion - 0.85 * std::pow(state.density, 1.4);
    state.density = Clamp01(state.density + boost);
    RederiveFromDensity(&state, residual);
  }
  return state;
}

ContentDriftProcess::ContentDriftProcess(const ContentDriftOptions& options)
    : options_(options),
      base_(WithHorizonSlack(options.base, kHalfDayS)) {}

double ContentDriftProcess::DriftPhase(SimTime t) const {
  double period_s = std::max(options_.drift_period_days, 1e-3) * 86400.0;
  return options_.drift_magnitude * 0.5 * (1.0 - std::cos(2.0 * kPi * t /
                                                          period_s));
}

void ContentDriftProcess::Materialize(SimTime begin, SimTime end) const {
  // At() clamps t to the horizon, then reads the base at t and t + 12 h.
  begin = std::clamp(begin, 0.0, options_.base.horizon);
  end = std::clamp(end, 0.0, options_.base.horizon);
  base_.Materialize(begin, end + kHalfDayS);
}

video::ContentState ContentDriftProcess::At(SimTime t) const {
  t = std::clamp(t, 0.0, options_.base.horizon);
  video::ContentState day = base_.At(t);
  video::ContentState night = base_.At(t + kHalfDayS);
  double phase = DriftPhase(t);
  video::ContentState state = day;
  state.density = Clamp01((1.0 - phase) * day.density + phase * night.density);
  // Lighting stays the true clock's (day.lighting): at full drift the
  // cameras see midday-sized crowds in the dark — the regime no early
  // training segment contains.
  double residual = day.occlusion - 0.85 * std::pow(day.density, 1.4);
  RederiveFromDensity(&state, residual);
  return state;
}

FleetCameraContentProcess::FleetCameraContentProcess(
    const FleetOptions& options, uint64_t camera_seed)
    : options_(options),
      own_([&] {
        video::DiurnalContentProcess::Options o = options.base;
        o.seed = camera_seed;
        return o;
      }()),
      shared_noise_(0.5 * options.shift_magnitude, Hours(2),
                    options.base.horizon, options.fleet_seed ^ 0x77) {
  // The category-shift schedule is a pure function of fleet_seed: every
  // camera of the fleet rebuilds the identical pulse train.
  Rng rng(options.fleet_seed ^ 0x5EED);
  double days = options.base.horizon / 86400.0;
  int64_t count = rng.Poisson(options.shift_rate_per_day * days);
  for (int64_t i = 0; i < count; ++i) {
    Shift s;
    s.start = rng.Uniform(0.0, options.base.horizon);
    s.duration_s = rng.Uniform(Hours(1), Hours(4));
    s.magnitude = (rng.Bernoulli(0.5) ? 1.0 : -1.0) *
                  options.shift_magnitude * rng.Uniform(0.4, 1.0);
    shifts_.push_back(s);
  }
  std::sort(shifts_.begin(), shifts_.end(),
            [](const Shift& a, const Shift& b) { return a.start < b.start; });
}

double FleetCameraContentProcess::SharedShift(SimTime t) const {
  double shift = shared_noise_.At(t);
  auto it = std::lower_bound(
      shifts_.begin(), shifts_.end(), t - Hours(4),
      [](const Shift& s, double v) { return s.start < v; });
  for (; it != shifts_.end() && it->start <= t; ++it) {
    double rel = (t - it->start) / it->duration_s;
    if (rel < 0.0 || rel > 1.0) continue;
    // Square pulse with smooth 10% edges (a venue switching content type).
    double edge = std::min({1.0, rel / 0.1, (1.0 - rel) / 0.1});
    shift += it->magnitude * std::clamp(edge, 0.0, 1.0);
  }
  return shift;
}

void FleetCameraContentProcess::Materialize(SimTime begin,
                                            SimTime end) const {
  begin = std::clamp(begin, 0.0, options_.base.horizon);
  end = std::clamp(end, 0.0, options_.base.horizon);
  own_.Materialize(begin, end);
  shared_noise_.Materialize(begin, end);
}

video::ContentState FleetCameraContentProcess::At(SimTime t) const {
  t = std::clamp(t, 0.0, options_.base.horizon);
  video::ContentState state = own_.At(t);
  // The fleet latent rides on a mid-scale operating point so upward and
  // downward category shifts both show.
  double common = Clamp01(0.45 + SharedShift(t));
  double residual = state.occlusion - 0.85 * std::pow(state.density, 1.4);
  state.density = Clamp01((1.0 - options_.correlation) * state.density +
                          options_.correlation * common);
  RederiveFromDensity(&state, residual);
  return state;
}

}  // namespace sky::sim
