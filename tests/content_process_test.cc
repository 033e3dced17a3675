#include "video/content_process.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "dag/thread_pool.h"
#include "sim/scenarios.h"
#include "support/oracles.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sky::video {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

bool SameBits(const ContentState& a, const ContentState& b) {
  return Bits(a.density) == Bits(b.density) &&
         Bits(a.occlusion) == Bits(b.occlusion) &&
         Bits(a.lighting) == Bits(b.lighting) &&
         Bits(a.difficulty) == Bits(b.difficulty) &&
         Bits(a.stream_count) == Bits(b.stream_count);
}

/// The reference SmoothNoise must reproduce: every knot drawn up front, one
/// Uniform(-1, 1) per knot from Rng(seed), with the same interpolation.
class EagerNoise {
 public:
  EagerNoise(double amplitude, double knot_spacing_s, SimTime horizon,
             uint64_t seed)
      : amplitude_(amplitude), spacing_(knot_spacing_s) {
    size_t n = static_cast<size_t>(horizon / knot_spacing_s) + 2;
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) knots_.push_back(rng.Uniform(-1.0, 1.0));
  }

  double At(SimTime t) const {
    double pos = std::max(0.0, t / spacing_);
    size_t i = static_cast<size_t>(pos);
    if (i + 1 >= knots_.size()) return amplitude_ * knots_.back();
    double frac = pos - static_cast<double>(i);
    double w = 0.5 - 0.5 * std::cos(frac * 3.14159265358979323846);
    return amplitude_ * (knots_[i] * (1.0 - w) + knots_[i + 1] * w);
  }

 private:
  double amplitude_;
  double spacing_;
  std::vector<double> knots_;
};

constexpr SimTime kNoiseHorizon = Days(20);

/// Probe times over a 20-day horizon: off-knot and on-knot instants, before
/// the first knot and past the last.
std::vector<double> NoiseProbes() {
  std::vector<double> ts = {-1e6, -30.0, -0.0};
  for (double t = 0.0; t <= kNoiseHorizon + 120.0; t += 7.3) ts.push_back(t);
  for (double t = 0.0; t <= kNoiseHorizon + 60.0; t += 30.0) ts.push_back(t);
  ts.push_back(kNoiseHorizon + Days(1));
  ts.push_back(Days(400));
  return ts;
}

size_t Mismatches(const SmoothNoise& noise, const EagerNoise& reference,
                  const std::vector<double>& ts) {
  size_t mismatches = 0;
  for (double t : ts) mismatches += Bits(noise.At(t)) != Bits(reference.At(t));
  return mismatches;
}

TEST(SmoothNoiseTest, DeterministicAndBounded) {
  SmoothNoise a(0.5, 30.0, Hours(2), 7);
  SmoothNoise b(0.5, 30.0, Hours(2), 7);
  for (double t = 0; t < Hours(2); t += 17.0) {
    EXPECT_EQ(Bits(a.At(t)), Bits(b.At(t)));
    EXPECT_LE(std::abs(a.At(t)), 0.5 + 1e-12);
  }
}

TEST(SmoothNoiseTest, LazyKnotsEqualTheEagerDrawBitwise) {
  const EagerNoise reference(0.07, 30.0, kNoiseHorizon, 0xA1);
  auto fresh = [] {
    return std::make_unique<SmoothNoise>(0.07, 30.0, kNoiseHorizon, 0xA1);
  };
  std::vector<double> forward = NoiseProbes();
  std::vector<double> backward(forward.rbegin(), forward.rend());
  std::vector<double> shuffled = forward;
  Rng(5).Shuffle(&shuffled);

  EXPECT_EQ(Mismatches(*fresh(), reference, forward), 0u);
  EXPECT_EQ(Mismatches(*fresh(), reference, backward), 0u);
  EXPECT_EQ(Mismatches(*fresh(), reference, shuffled), 0u);

  // Materialized over a sub-range, then read everywhere: the blocks built
  // in one generator pass and those built one by one on a miss agree.
  std::unique_ptr<SmoothNoise> partial = fresh();
  partial->Materialize(Days(16), Days(16) + Hours(6));
  EXPECT_EQ(Mismatches(*partial, reference, shuffled), 0u);

  // Copies: of a process with a few blocks built, and of a fresh one.
  std::unique_ptr<SmoothNoise> some = fresh();
  some->Materialize(Days(3), Days(4));
  SmoothNoise copy_of_some(*some);
  EXPECT_EQ(copy_of_some.built_blocks(), some->built_blocks());
  EXPECT_EQ(Mismatches(copy_of_some, reference, backward), 0u);
  SmoothNoise copy_of_fresh(*fresh());
  EXPECT_EQ(copy_of_fresh.built_blocks(), 0u);
  EXPECT_EQ(Mismatches(copy_of_fresh, reference, shuffled), 0u);
}

TEST(SmoothNoiseTest, ClampsToTheFirstAndLastKnot) {
  const EagerNoise reference(0.5, 30.0, kNoiseHorizon, 9);
  SmoothNoise noise(0.5, 30.0, kNoiseHorizon, 9);
  for (double t : {-1e9, -30.0, -1e-9}) {
    EXPECT_EQ(Bits(noise.At(t)), Bits(noise.At(0.0))) << t;
    EXPECT_EQ(Bits(noise.At(t)), Bits(reference.At(0.0))) << t;
  }
  // The last knot sits one spacing past the last whole knot of the horizon.
  double last_knot_t = (std::floor(kNoiseHorizon / 30.0) + 1.0) * 30.0;
  for (double t : {last_knot_t + 1.0, kNoiseHorizon + Days(1), Days(1e6),
                   std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(Bits(noise.At(t)), Bits(noise.At(last_knot_t))) << t;
    EXPECT_EQ(Bits(noise.At(t)), Bits(reference.At(last_knot_t))) << t;
  }
}

TEST(SmoothNoiseTest, MaterializeBuildsOnlyTheBlocksTheRangeReads) {
  SmoothNoise noise(0.07, 30.0, kNoiseHorizon, 3);
  // Nothing is drawn before first use.
  EXPECT_EQ(noise.built_blocks(), 0u);
  // An empty range and one wholly past the last knot build nothing.
  noise.Materialize(Days(2), Days(1));
  noise.Materialize(kNoiseHorizon + Days(1), kNoiseHorizon + Days(2));
  noise.Materialize(std::numeric_limits<double>::quiet_NaN(), Days(1));
  EXPECT_EQ(noise.built_blocks(), 0u);
  // A window before the first knot reads knots 0 and 1: block 0.
  noise.Materialize(-Days(2), -Days(1));
  EXPECT_EQ(noise.built_blocks(), 1u);
  // One hour from day 1 reads knots 2880..3001, which share one block.
  static_assert(2880 / SmoothNoise::kBlockKnots ==
                    3001 / SmoothNoise::kBlockKnots,
                "knots 2880..3001 span one block");
  noise.Materialize(Days(1), Days(1) + Hours(1));
  EXPECT_EQ(noise.built_blocks(), 2u);
  noise.Materialize(Days(1), Days(1) + Hours(1));
  EXPECT_EQ(noise.built_blocks(), 2u);
  // The whole horizon: 57,602 knots, every block.
  noise.Materialize(-Days(1), kNoiseHorizon + Days(1));
  EXPECT_EQ(noise.built_blocks(),
            (57602 + SmoothNoise::kBlockKnots - 1) / SmoothNoise::kBlockKnots);
}

TEST(SmoothNoiseTest, ContinuousBetweenKnots) {
  SmoothNoise n(1.0, 100.0, Hours(1), 8);
  for (double t = 0; t < Minutes(30); t += 1.0) {
    EXPECT_LE(std::abs(n.At(t + 1.0) - n.At(t)), 0.2);
  }
}

TEST(DiurnalTest, BaseCurveShapes) {
  using P = DiurnalContentProcess::Profile;
  // Traffic: rush hours clearly busier than 3 AM.
  EXPECT_GT(DiurnalContentProcess::BaseDensity(P::kTrafficIntersection, 8.0),
            DiurnalContentProcess::BaseDensity(P::kTrafficIntersection, 3.0) +
                0.3);
  EXPECT_GT(DiurnalContentProcess::BaseDensity(P::kTrafficIntersection, 17.5),
            0.5);
  // Shopping street: single mid-afternoon peak.
  EXPECT_GT(DiurnalContentProcess::BaseDensity(P::kShoppingStreet, 15.5),
            DiurnalContentProcess::BaseDensity(P::kShoppingStreet, 5.0) + 0.4);
}

TEST(DiurnalTest, StatesAreValidAndDeterministic) {
  DiurnalContentProcess::Options opts;
  opts.horizon = Days(3);
  opts.seed = 41;
  DiurnalContentProcess a(opts), b(opts);
  for (double t = 0; t < Days(3); t += 631.0) {
    ContentState sa = a.At(t);
    ContentState sb = b.At(t);
    EXPECT_DOUBLE_EQ(sa.density, sb.density);
    EXPECT_GE(sa.density, 0.0);
    EXPECT_LE(sa.density, 1.0);
    EXPECT_GE(sa.occlusion, 0.0);
    EXPECT_LE(sa.occlusion, 1.0);
    EXPECT_GE(sa.lighting, 0.0);
    EXPECT_LE(sa.lighting, 1.0);
    EXPECT_DOUBLE_EQ(sa.stream_count, 1.0);
  }
}

TEST(DiurnalTest, NightIsQuieterThanDay) {
  DiurnalContentProcess::Options opts;
  opts.horizon = Days(4);
  opts.seed = 42;
  DiurnalContentProcess p(opts);
  double night = 0.0, day = 0.0;
  int count = 0;
  for (int d = 0; d < 4; ++d) {
    for (int m = 0; m < 60; m += 10) {
      night += p.At(Days(d) + Hours(3) + Minutes(m)).density;
      day += p.At(Days(d) + Hours(17) + Minutes(m)).density;
      ++count;
    }
  }
  EXPECT_GT(day / count, night / count + 0.25);
}

TEST(DiurnalTest, LightingFollowsSun) {
  DiurnalContentProcess::Options opts;
  opts.seed = 43;
  DiurnalContentProcess p(opts);
  EXPECT_GT(p.At(Hours(12)).lighting, 0.9);
  EXPECT_LT(p.At(Hours(2)).lighting, 0.3);
}

TEST(DiurnalTest, OcclusionCorrelatesWithDensity) {
  DiurnalContentProcess::Options opts;
  opts.horizon = Days(2);
  opts.seed = 44;
  DiurnalContentProcess p(opts);
  // Average occlusion in the busiest hour must exceed the quietest hour's.
  double busy = 0.0, quiet = 0.0;
  for (int m = 0; m < 60; ++m) {
    busy += p.At(Hours(17) + Minutes(m)).occlusion;
    quiet += p.At(Hours(3) + Minutes(m)).occlusion;
  }
  EXPECT_GT(busy, quiet);
}

TEST(DiurnalTest, ContentVariesOnSwitcherTimescale) {
  // §5.3: content categories change every ~30-45 s on average. The latent
  // state must show meaningful variation across 30 s steps.
  DiurnalContentProcess::Options opts;
  opts.horizon = Days(1);
  opts.seed = 45;
  DiurnalContentProcess p(opts);
  sky::OnlineStats deltas;
  for (double t = Hours(10); t < Hours(14); t += 30.0) {
    deltas.Add(std::abs(p.At(t + 30.0).density - p.At(t).density));
  }
  EXPECT_GT(deltas.mean(), 0.01);
}

/// A 20-day EV-camera process, as the fleets' cameras are built.
DiurnalContentProcess::Options EventOptions() {
  DiurnalContentProcess::Options opts;
  opts.horizon = Days(20);
  opts.seed = 4004;
  return opts;
}

/// Probe times over the 20-day horizon, shuffled: random instants, every
/// midnight with the event look-back either side of it, the last
/// representable instant before each midnight, and the horizon's ends.
std::vector<double> EventProbes(uint64_t seed) {
  Rng rng(seed);
  std::vector<double> ts = {-60.0, 0.0, Days(20), Days(21)};
  for (int i = 0; i < 2000; ++i) ts.push_back(rng.Uniform(0.0, Days(20)));
  for (int d = 1; d <= 20; ++d) {
    for (int k = -30; k <= 30; ++k) ts.push_back(Days(d) + 7.3 * k);
    ts.push_back(std::nextafter(Days(d), 0.0));
  }
  rng.Shuffle(&ts);
  return ts;
}

size_t EventMismatches(const DiurnalContentProcess& process,
                       const oracle::EagerDiurnalContentProcess& reference,
                       const std::vector<double>& ts) {
  size_t mismatches = 0;
  for (double t : ts) mismatches += !SameBits(process.At(t), reference.At(t));
  return mismatches;
}

TEST(DiurnalTest, LazyEventDaysEqualTheEagerScheduleBitwise) {
  for (auto profile : {DiurnalContentProcess::Profile::kTrafficIntersection,
                       DiurnalContentProcess::Profile::kShoppingStreet}) {
    DiurnalContentProcess::Options opts = EventOptions();
    opts.profile = profile;
    const oracle::EagerDiurnalContentProcess reference(opts);
    const std::vector<double> probes = EventProbes(17);

    // Random instants in random order, each day built on its first read.
    DiurnalContentProcess fresh(opts);
    EXPECT_EQ(EventMismatches(fresh, reference, probes), 0u);
    EXPECT_EQ(fresh.built_event_days(), 21u);

    // Materialized over disjoint ranges first, in one replay each.
    DiurnalContentProcess materialized(opts);
    materialized.Materialize(Days(16), Days(16) + Hours(6) + Minutes(15));
    materialized.Materialize(Days(3) - 100.0, Days(3) + 100.0);
    materialized.Materialize(Days(9), Days(12));
    EXPECT_EQ(materialized.built_event_days(), 1u + 2u + 4u);
    EXPECT_EQ(EventMismatches(materialized, reference, probes), 0u);

    // Copies: of a process with a few days built, and of a fresh one.
    DiurnalContentProcess some(opts);
    some.Materialize(Days(5), Days(6) + Hours(1));
    DiurnalContentProcess copy_of_some(some);
    EXPECT_EQ(copy_of_some.built_event_days(), 2u);
    EXPECT_EQ(EventMismatches(copy_of_some, reference, probes), 0u);
    const DiurnalContentProcess untouched(opts);
    DiurnalContentProcess copy_of_fresh(untouched);
    EXPECT_EQ(copy_of_fresh.built_event_days(), 0u);
    EXPECT_EQ(EventMismatches(copy_of_fresh, reference, probes), 0u);
  }
}

TEST(DiurnalTest, MaterializeBuildsOnlyTheEventDaysTheRangeReads) {
  DiurnalContentProcess camera(EventOptions());
  // Nothing is drawn at construction.
  EXPECT_EQ(camera.built_event_days(), 0u);
  // An engine's window: a 6-hour run from day 16 plus a 15-minute
  // look-ahead reads day 16 only.
  camera.Materialize(Days(16), Days(16) + Hours(6) + Minutes(15));
  EXPECT_EQ(camera.built_event_days(), 1u);
  camera.Materialize(Days(16) + Hours(1), Days(16) + Hours(2));
  EXPECT_EQ(camera.built_event_days(), 1u);
  // An empty range and a NaN build nothing; one across midnight builds the
  // days on both sides.
  camera.Materialize(Days(4), Days(3));
  camera.Materialize(std::numeric_limits<double>::quiet_NaN(), Days(1));
  EXPECT_EQ(camera.built_event_days(), 1u);
  camera.Materialize(Days(8) - 1.0, Days(8) + 1.0);
  EXPECT_EQ(camera.built_event_days(), 3u);
  // A read outside every built day builds its own day.
  camera.At(Days(12) + Hours(3));
  EXPECT_EQ(camera.built_event_days(), 4u);
  // The whole horizon: days 0..20, the last holding only the events that
  // start in the look-back before the horizon.
  camera.Materialize(-Days(1), Days(30));
  EXPECT_EQ(camera.built_event_days(), 21u);
}

TEST(TwitchTest, HighSpikesReachMaxStreams) {
  TwitchContentProcess::Options opts;
  opts.spike_kind = TwitchContentProcess::SpikeKind::kHigh;
  opts.horizon = Days(3);
  opts.seed = 46;
  TwitchContentProcess p(opts);
  double peak = 0.0;
  for (double t = 0; t < Days(2); t += 60.0) {
    peak = std::max(peak, p.At(t).stream_count);
  }
  EXPECT_GT(peak, 0.95 * opts.max_streams);
}

TEST(TwitchTest, LongSpikeIsSustained) {
  TwitchContentProcess::Options opts;
  opts.spike_kind = TwitchContentProcess::SpikeKind::kLong;
  opts.horizon = Days(2);
  opts.seed = 47;
  TwitchContentProcess p(opts);
  // Count how much of day 0 sits above 50% of max: the long plateau spans
  // ~8 h and the diurnal base stays below that level.
  double above = 0.0;
  for (double t = 0; t < Days(1); t += 60.0) {
    if (p.At(t).stream_count > 0.5 * opts.max_streams) above += 60.0;
  }
  EXPECT_GT(above, Hours(5));
  EXPECT_LT(above, Hours(12));
}

TEST(TwitchTest, StatesValid) {
  TwitchContentProcess::Options opts;
  opts.seed = 48;
  TwitchContentProcess p(opts);
  for (double t = 0; t < Days(1); t += 313.0) {
    ContentState s = p.At(t);
    EXPECT_GE(s.stream_count, 0.0);
    EXPECT_LE(s.stream_count, opts.max_streams);
    EXPECT_GE(s.difficulty, 0.0);
    EXPECT_LE(s.difficulty, 1.0);
  }
}

/// A named content process factory: each call builds a fresh instance.
struct ProcessCase {
  const char* name;
  std::function<std::unique_ptr<ContentProcess>()> make;
};

std::vector<ProcessCase> AllProcesses() {
  DiurnalContentProcess::Options diurnal;
  diurnal.horizon = Days(20);
  diurnal.seed = 4004;
  TwitchContentProcess::Options twitch;
  twitch.seed = 202;
  sim::FlashCrowdOptions flash;
  flash.base.profile = DiurnalContentProcess::Profile::kShoppingStreet;
  flash.base.horizon = Days(26);
  flash.base.seed = 6001;
  sim::ContentDriftOptions drift;
  drift.base.horizon = Days(26);
  drift.base.seed = 6002;
  sim::FleetOptions fleet;
  fleet.base.horizon = Days(20);
  return {
      {"diurnal",
       [=] { return std::make_unique<DiurnalContentProcess>(diurnal); }},
      {"twitch",
       [=] { return std::make_unique<TwitchContentProcess>(twitch); }},
      {"flash-crowd",
       [=] { return std::make_unique<sim::FlashCrowdContentProcess>(flash); }},
      {"drift",
       [=] { return std::make_unique<sim::ContentDriftProcess>(drift); }},
      {"fleet",
       [=] {
         return std::make_unique<sim::FleetCameraContentProcess>(fleet, 6003);
       }},
  };
}

TEST(ContentProcessTest, MaterializedProcessesEqualFreshOnesBitwise) {
  for (const ProcessCase& c : AllProcesses()) {
    std::unique_ptr<ContentProcess> fresh = c.make();
    std::unique_ptr<ContentProcess> materialized = c.make();
    // An engine's window: a 6-hour run plus a 15-minute look-ahead.
    materialized->Materialize(Days(16), Days(16) + Hours(6) + Minutes(15));
    // An empty window and one past the horizon change nothing either.
    materialized->Materialize(Days(3), Days(2));
    materialized->Materialize(fresh->horizon() + Days(1),
                              fresh->horizon() + Days(2));
    size_t mismatches = 0;
    size_t probes = 0;
    for (double t = -60.0; t <= fresh->horizon() + Hours(1); t += 97.0) {
      mismatches += !SameBits(materialized->At(t), fresh->At(t));
      ++probes;
    }
    EXPECT_EQ(mismatches, 0u) << c.name << " over " << probes << " probes";
  }
}

TEST(ContentProcessTest, ConcurrentFirstUseEqualsSerialReads) {
  // Seven pool threads and the caller read one never-materialized process
  // over overlapping ranges, so several threads miss the same blocks at
  // once; every state must equal a serial read of a second instance.
  DiurnalContentProcess::Options opts;
  opts.horizon = Days(20);
  opts.seed = 77;
  const DiurnalContentProcess shared(opts);
  const DiurnalContentProcess serial(opts);
  constexpr size_t kRanges = 32;
  std::vector<std::vector<ContentState>> states(kRanges);
  dag::ThreadPool pool(7);
  dag::ParallelFor(&pool, kRanges, [&](size_t r) {
    // Range r covers [r * 14 h, r * 14 h + 2 days), read backwards on odd r.
    double begin = static_cast<double>(r) * Hours(14);
    for (int i = 0; i < 1800; ++i) {
      int k = (r % 2 == 0) ? i : 1799 - i;
      states[r].push_back(shared.At(begin + 96.0 * k));
    }
  });
  size_t mismatches = 0;
  for (size_t r = 0; r < kRanges; ++r) {
    double begin = static_cast<double>(r) * Hours(14);
    for (int i = 0; i < 1800; ++i) {
      int k = (r % 2 == 0) ? i : 1799 - i;
      mismatches += !SameBits(states[r][i], serial.At(begin + 96.0 * k));
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ContentProcessTest, ConcurrentLazyEventDaysEqualTheEagerSchedule) {
  // Four threads read one never-materialized camera at random instants,
  // each in its own order, so several miss the same day-blocks at once and
  // race to publish them; every state must equal the eager schedule's.
  const DiurnalContentProcess shared(EventOptions());
  const oracle::EagerDiurnalContentProcess reference(EventOptions());
  constexpr size_t kThreads = 4;
  std::vector<std::vector<double>> probes(kThreads);
  std::vector<std::vector<ContentState>> states(kThreads);
  for (size_t r = 0; r < kThreads; ++r) probes[r] = EventProbes(100 + r);
  dag::ThreadPool pool(kThreads);
  dag::ParallelFor(&pool, kThreads, [&](size_t r) {
    for (double t : probes[r]) states[r].push_back(shared.At(t));
  });
  size_t mismatches = 0;
  for (size_t r = 0; r < kThreads; ++r) {
    for (size_t i = 0; i < probes[r].size(); ++i) {
      mismatches += !SameBits(states[r][i], reference.At(probes[r][i]));
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(shared.built_event_days(), 21u);
}

TEST(ContentProcessTest, HorizonClamps) {
  DiurnalContentProcess::Options opts;
  opts.horizon = Days(1);
  opts.seed = 49;
  DiurnalContentProcess p(opts);
  ContentState end = p.At(Days(1));
  ContentState beyond = p.At(Days(5));
  EXPECT_DOUBLE_EQ(end.density, beyond.density);
}

}  // namespace
}  // namespace sky::video
