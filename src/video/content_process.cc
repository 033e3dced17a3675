#include "video/content_process.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/rng.h"

namespace sky::video {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kDaySeconds = 86400.0;
/// How far before t an event that still covers t may start: events last at
/// most 140 s.
constexpr double kEventLookBack = 150.0;

double Gaussian(double x, double mu, double sigma) {
  double d = (x - mu) / sigma;
  return std::exp(-0.5 * d * d);
}

double Clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

}  // namespace

SmoothNoise::SmoothNoise(double amplitude, double knot_spacing_s,
                         SimTime horizon, uint64_t seed)
    : amplitude_(amplitude),
      spacing_(knot_spacing_s),
      seed_(seed),
      num_knots_(static_cast<size_t>(horizon / knot_spacing_s) + 2),
      blocks_((num_knots_ + kBlockKnots - 1) / kBlockKnots) {}

void SmoothNoise::DrawBlocks(size_t first, size_t last) const {
  std::optional<Rng> rng;
  size_t drawn = 0;  // outputs the generator has produced
  for (size_t b = first; b <= last; ++b) {
    if (blocks_.Get(b) != nullptr) continue;
    if (!rng.has_value()) rng.emplace(seed_);
    size_t begin = b * kBlockKnots;
    size_t n = std::min(kBlockKnots, num_knots_ - begin);
    // One engine output per Uniform(): knot i is output i of the stream.
    rng->engine().discard(begin - drawn);
    auto block = std::make_unique<KnotBlock>(n);
    for (double& knot : *block) knot = rng->Uniform(-1.0, 1.0);
    drawn = begin + n;
    blocks_.Publish(b, std::move(block));
  }
}

const double* SmoothNoise::Block(size_t b) const {
  const KnotBlock* block = blocks_.Get(b);
  if (block == nullptr) {
    DrawBlocks(b, b);
    block = blocks_.Get(b);
  }
  return block->data();
}

double SmoothNoise::At(SimTime t) const {
  double pos = std::max(0.0, t / spacing_);
  size_t last = num_knots_ - 1;
  if (pos >= static_cast<double>(last)) {
    return amplitude_ * Block(last / kBlockKnots)[last % kBlockKnots];
  }
  size_t i = static_cast<size_t>(pos);
  size_t j = i % kBlockKnots;
  const double* block = Block(i / kBlockKnots);
  double knot = block[j];
  // Knot i + 1 opens the next block when knot i closes this one.
  double next =
      j + 1 < kBlockKnots ? block[j + 1] : Block(i / kBlockKnots + 1)[0];
  double frac = pos - static_cast<double>(i);
  // Cosine interpolation: C1-smooth between knots.
  double w = 0.5 - 0.5 * std::cos(frac * kPi);
  return amplitude_ * (knot * (1.0 - w) + next * w);
}

void SmoothNoise::Materialize(SimTime begin, SimTime end) const {
  if (!(begin <= end)) return;
  // At(t) reads knots floor(t / spacing) and the one after, up to the last.
  double last = static_cast<double>(num_knots_ - 1);
  double lo = std::max(0.0, begin / spacing_);
  if (lo > last) return;
  double hi = std::clamp(end / spacing_ + 1.0, lo, last);
  DrawBlocks(static_cast<size_t>(lo) / kBlockKnots,
             static_cast<size_t>(hi) / kBlockKnots);
}

double DiurnalContentProcess::BaseDensity(Profile profile,
                                          double hour_of_day) {
  switch (profile) {
    case Profile::kTrafficIntersection:
      // Morning and evening rush hours, a midday plateau, quiet nights.
      return Clamp01(0.06 + 0.52 * Gaussian(hour_of_day, 8.0, 1.5) +
                     0.62 * Gaussian(hour_of_day, 17.5, 2.0) +
                     0.24 * Gaussian(hour_of_day, 13.0, 3.0));
    case Profile::kShoppingStreet:
      // One broad mid-afternoon-to-evening peak (Koen-Dori style).
      return Clamp01(0.05 + 0.78 * Gaussian(hour_of_day, 15.5, 4.0) +
                     0.18 * Gaussian(hour_of_day, 20.0, 1.5));
  }
  return 0.0;
}

DiurnalContentProcess::DiurnalContentProcess(const Options& options)
    : options_(options),
      fine_noise_(options.fine_noise_amplitude, 30.0, options.horizon,
                  options.seed ^ 0xA1),
      slow_noise_(options.slow_noise_amplitude, 600.0, options.horizon,
                  options.seed ^ 0xB2),
      occlusion_noise_(0.06, 45.0, options.horizon, options.seed ^ 0xC3),
      // Multi-day drift with a ~5-day correlation time: 1-2 day forecasts
      // extrapolate correlated content, while an 8-day window reaches into
      // drift the recent past says nothing about (the source of the
      // Fig. 14 / Table 5 horizon sweet spot).
      day_drift_(options.day_to_day_drift, 5.0 * 86400.0, options.horizon,
                 options.seed ^ 0xD4),
      event_days_(static_cast<size_t>(options.horizon / kDaySeconds) + 1) {}

size_t DiurnalContentProcess::DayOf(SimTime t) const {
  // t / kDaySeconds never rounds up to the next whole day: t is at least an
  // ulp below it, which over 86400 is more than half the quotient's ulp.
  double last = static_cast<double>(event_days_.size() - 1);
  return static_cast<size_t>(std::min(std::max(0.0, t / kDaySeconds), last));
}

void DiurnalContentProcess::DrawEventDays(size_t first, size_t last) const {
  bool missing = false;
  for (size_t d = first; d <= last; ++d) {
    missing = missing || event_days_.Get(d) == nullptr;
  }
  if (!missing) return;
  // The whole horizon's pass: Poisson arrivals thinned by the base curve so
  // that groups of pedestrians are more likely during busy hours. Every
  // candidate is drawn; only the kept events of days [first, last] stay.
  auto day_begin = [](size_t d) {
    return static_cast<double>(d) * kDaySeconds;
  };
  std::vector<EventDay> days(last - first + 1);
  Rng rng(options_.seed ^ 0xE5);
  double horizon_hours = options_.horizon / 3600.0;
  int64_t candidates =
      rng.Poisson(options_.event_rate_per_hour * horizon_hours * 1.6);
  for (int64_t i = 0; i < candidates; ++i) {
    SimTime start = rng.Uniform(0.0, options_.horizon);
    double base = BaseDensity(options_.profile, HourOfDay(start));
    if (!rng.Bernoulli(0.15 + 0.85 * base)) continue;  // thinning
    Event e;
    e.start = start;
    e.duration_s = rng.Uniform(25.0, 140.0);
    e.magnitude = options_.event_magnitude * rng.Uniform(0.5, 1.0);
    for (size_t d = first; d <= last; ++d) {
      if (start >= day_begin(d) - kEventLookBack && start < day_begin(d + 1)) {
        days[d - first].push_back(e);
      }
    }
  }
  for (size_t d = first; d <= last; ++d) {
    if (event_days_.Get(d) != nullptr) continue;
    EventDay& day = days[d - first];
    std::sort(day.begin(), day.end(), [](const Event& a, const Event& b) {
      return a.start < b.start;
    });
    event_days_.Publish(d, std::make_unique<EventDay>(day.begin(), day.end()));
  }
}

void DiurnalContentProcess::Materialize(SimTime begin, SimTime end) const {
  // At() clamps t to the horizon before it reads anything.
  begin = std::clamp(begin, 0.0, options_.horizon);
  end = std::clamp(end, 0.0, options_.horizon);
  for (const SmoothNoise* noise :
       {&fine_noise_, &slow_noise_, &occlusion_noise_, &day_drift_}) {
    noise->Materialize(begin, end);
  }
  if (begin <= end) DrawEventDays(DayOf(begin), DayOf(end));
}

double DiurnalContentProcess::EventBoost(SimTime t) const {
  size_t day = DayOf(t);
  const EventDay* events = event_days_.Get(day);
  if (events == nullptr) {
    DrawEventDays(day, day);
    events = event_days_.Get(day);
  }
  // Binary search to the first event that could cover t (events are sorted
  // by start and last at most 140 s).
  double boost = 0.0;
  auto it = std::lower_bound(
      events->begin(), events->end(), t - kEventLookBack,
      [](const Event& e, double v) { return e.start < v; });
  for (; it != events->end() && it->start <= t; ++it) {
    double rel = (t - it->start) / it->duration_s;
    if (rel < 0.0 || rel > 1.0) continue;
    // Smooth ramp up and down within the event window.
    double shape = std::sin(rel * kPi);
    boost += it->magnitude * shape;
  }
  return boost;
}

ContentState DiurnalContentProcess::At(SimTime t) const {
  t = std::clamp(t, 0.0, options_.horizon);
  double hour = HourOfDay(t);
  double base = BaseDensity(options_.profile, hour);
  double drift = 1.0 + day_drift_.At(t);
  double density = Clamp01(base * drift + slow_noise_.At(t) +
                           fine_noise_.At(t) + EventBoost(t));

  ContentState state;
  state.density = density;
  // Occlusions rise superlinearly with density (crowds overlap).
  state.occlusion =
      Clamp01(0.85 * std::pow(density, 1.4) + occlusion_noise_.At(t));
  // Daylight: up between ~6h and ~19h with smooth dawn/dusk.
  double daylight = 0.5 * (std::tanh((hour - 6.0) / 1.2) -
                           std::tanh((hour - 19.0) / 1.2));
  state.lighting = Clamp01(0.15 + 0.85 * daylight);
  state.difficulty = Clamp01(0.55 * state.occlusion + 0.30 * state.density +
                             0.15 * (1.0 - state.lighting));
  state.stream_count = 1.0;
  return state;
}

TwitchContentProcess::TwitchContentProcess(const Options& options)
    : options_(options),
      difficulty_noise_(0.18, 40.0, options.horizon, options.seed ^ 0x11),
      count_noise_(0.08, 120.0, options.horizon, options.seed ^ 0x22) {
  // Spike schedule: deterministic-but-jittered daily offsets.
  Rng rng(options.seed ^ 0x33);
  size_t days = static_cast<size_t>(options.horizon / 86400.0) + 1;
  for (size_t d = 0; d < days; ++d) {
    spike_offsets_s_.push_back(rng.Uniform(0.0, 3600.0));
  }
}

void TwitchContentProcess::Materialize(SimTime begin, SimTime end) const {
  begin = std::clamp(begin, 0.0, options_.horizon);
  end = std::clamp(end, 0.0, options_.horizon);
  difficulty_noise_.Materialize(begin, end);
  count_noise_.Materialize(begin, end);
}

ContentState TwitchContentProcess::At(SimTime t) const {
  t = std::clamp(t, 0.0, options_.horizon);
  double hour = HourOfDay(t);
  // Twitch-like live-stream diurnal: low around 06:00, peaks around 20:00.
  double diurnal = 0.35 + 0.65 * (0.5 - 0.5 * std::cos((hour - 8.0) / 24.0 *
                                                       2.0 * kPi));
  double streams =
      options_.base_peak_streams * diurnal * (1.0 + count_noise_.At(t));

  size_t day = static_cast<size_t>(t / 86400.0);
  double tod = TimeOfDay(t);
  if (options_.spike_kind == SpikeKind::kHigh) {
    // Three short, tall peaks per day reaching max_streams for ~20 minutes.
    for (int s = 0; s < 3; ++s) {
      double start = 6.0 * 3600.0 * (s + 1) +
                     (day < spike_offsets_s_.size() ? spike_offsets_s_[day]
                                                    : 0.0);
      double rel = (tod - start) / 1200.0;
      if (rel >= 0.0 && rel <= 1.0) {
        streams = std::max(streams,
                           options_.max_streams * std::sin(rel * kPi));
      }
    }
  } else {
    // One long plateau per day: 8 hours at ~55% of max — tall enough to
    // overrun any buffer, low enough that cloud bursting is not
    // bandwidth-bound (that is MOSEI-HIGH's role).
    double start = 10.0 * 3600.0 +
                   (day < spike_offsets_s_.size() ? spike_offsets_s_[day]
                                                  : 0.0);
    double rel = (tod - start) / (8.0 * 3600.0);
    if (rel >= 0.0 && rel <= 1.0) {
      double plateau = 0.55 * options_.max_streams;
      // Smooth edges over the first/last 10% of the window.
      double edge = std::min({1.0, rel / 0.1, (1.0 - rel) / 0.1});
      streams = std::max(streams, plateau * std::clamp(edge, 0.0, 1.0));
    }
  }

  ContentState state;
  state.stream_count = std::clamp(streams, 0.0, options_.max_streams);
  state.difficulty = Clamp01(0.45 + difficulty_noise_.At(t) +
                             0.25 * (state.stream_count /
                                     options_.max_streams));
  state.density = state.stream_count / options_.max_streams;
  state.occlusion = state.difficulty;
  state.lighting = 1.0;
  return state;
}

}  // namespace sky::video
