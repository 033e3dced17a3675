#ifndef SKYSCRAPER_VIDEO_CONTENT_PROCESS_H_
#define SKYSCRAPER_VIDEO_CONTENT_PROCESS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/sim_time.h"

namespace sky::video {

/// Latent state of the streamed content at an instant. The workload models
/// map (knob configuration, ContentState) to result quality; the paper's
/// systems only ever observe the resulting quality values, never this state.
struct ContentState {
  /// Scene business: pedestrian/vehicle density, in [0, 1].
  double density = 0.0;
  /// Fraction of objects occluding each other, in [0, 1]. The dominant
  /// quality driver for detection/tracking workloads (§2.2, Fig. 3).
  double occlusion = 0.0;
  /// Daylight level in [0, 1] (1 = noon).
  double lighting = 1.0;
  /// Generic analysis difficulty in [0, 1] (speech clarity etc., MOSEI).
  double difficulty = 0.0;
  /// Number of concurrently live streams (MOSEI); 1 for single-camera feeds.
  double stream_count = 1.0;
};

/// A deterministic, seekable content process: At(t) must return the same
/// state for the same t (random access), which the training-data builder and
/// the engine rely on.
///
/// The const methods may run concurrently on one process: the offline phase
/// fans one workload's At() across its pool, and fleet workers do the same
/// when streams share a workload. A process that builds state on first use
/// must publish it race-free.
class ContentProcess {
 public:
  virtual ~ContentProcess() = default;
  virtual ContentState At(SimTime t) const = 0;
  /// Time span covered; At(t) clamps beyond it.
  virtual SimTime horizon() const = 0;
  /// Builds now what At(t) for t in [begin, end] would otherwise build on
  /// first use, so those calls no longer allocate. It changes no value: At()
  /// returns the same bits whatever was materialized, in whatever order, by
  /// whichever thread. The default process builds nothing.
  virtual void Materialize(SimTime begin, SimTime end) const {
    (void)begin;
    (void)end;
  }
};

/// Piecewise-smooth value noise: uniform knots every `knot_spacing` seconds,
/// cosine-interpolated. Deterministic given the seed.
///
/// Knots are drawn on first use, in blocks of kBlockKnots: knot i is always
/// output i of the seed's mt19937_64 stream, so a block's bits do not depend
/// on which blocks exist. At() may run on several threads at once; a block
/// two threads build together is published once, by compare-exchange.
class SmoothNoise {
 public:
  static constexpr size_t kBlockKnots = 1024;

  SmoothNoise(double amplitude, double knot_spacing_s, SimTime horizon,
              uint64_t seed);
  /// Copies the blocks `other` has built.
  SmoothNoise(const SmoothNoise& other);
  SmoothNoise& operator=(const SmoothNoise&) = delete;
  ~SmoothNoise();

  /// The noise at t; t before the first knot or past the last reads that
  /// knot.
  double At(SimTime t) const;
  /// Builds every missing block At() reads for t in [begin, end] in one
  /// generator pass; returns at once when they all exist. A no-op when
  /// begin > end or when begin lies past the last knot.
  void Materialize(SimTime begin, SimTime end) const;
  /// Blocks built so far.
  size_t built_blocks() const;

 private:
  size_t num_blocks() const {
    return (num_knots_ + kBlockKnots - 1) / kBlockKnots;
  }
  /// Draws the missing blocks in [first, last] in one generator pass and
  /// publishes each unless another thread did first.
  void DrawBlocks(size_t first, size_t last) const;
  /// Block b, drawn first if missing.
  const double* Block(size_t b) const;

  double amplitude_;
  double spacing_;
  uint64_t seed_;
  size_t num_knots_;
  /// Block b holds knots [b * kBlockKnots, (b + 1) * kBlockKnots), or is
  /// null until first use.
  std::unique_ptr<std::atomic<double*>[]> blocks_;
};

/// Diurnal single-camera content (traffic intersection or shopping street):
/// a time-of-day base curve, slow and fast noise, day-to-day drift, and
/// randomly timed short "events" (e.g. a group of pedestrians passing) whose
/// exact timing is unpredictable — the source of Type-B switcher errors and
/// of forecast smoothing (§5.6).
class DiurnalContentProcess : public ContentProcess {
 public:
  enum class Profile {
    kTrafficIntersection,  ///< morning + evening rush hours (MOT, EV)
    kShoppingStreet,       ///< single broad midday-evening peak (COVID)
  };

  struct Options {
    Profile profile = Profile::kTrafficIntersection;
    double fine_noise_amplitude = 0.07;   ///< 30 s scale
    double slow_noise_amplitude = 0.10;   ///< 10 min scale
    double event_rate_per_hour = 14.0;    ///< short density bumps
    double event_magnitude = 0.35;
    double day_to_day_drift = 0.18;
    SimTime horizon = Days(24);
    uint64_t seed = 101;
  };

  explicit DiurnalContentProcess(const Options& options);

  ContentState At(SimTime t) const override;
  SimTime horizon() const override { return options_.horizon; }
  void Materialize(SimTime begin, SimTime end) const override;

  /// The deterministic time-of-day base density for a profile (no noise).
  static double BaseDensity(Profile profile, double hour_of_day);

 private:
  struct Event {
    SimTime start;
    double duration_s;
    double magnitude;
  };

  double EventBoost(SimTime t) const;

  Options options_;
  SmoothNoise fine_noise_;
  SmoothNoise slow_noise_;
  SmoothNoise occlusion_noise_;
  SmoothNoise day_drift_;  ///< very slow (daily) multiplicative drift
  std::vector<Event> events_;
};

/// Social-media stream-count content for the MOSEI workloads: a Twitch-like
/// diurnal live-stream count plus synthetic spikes. kHigh injects short peaks
/// of 62 concurrent streams (hard for cloud bursting: bandwidth); kLong
/// injects a multi-hour plateau (hard for buffering: capacity).
class TwitchContentProcess : public ContentProcess {
 public:
  enum class SpikeKind { kHigh, kLong };

  struct Options {
    SpikeKind spike_kind = SpikeKind::kHigh;
    double max_streams = 62.0;
    double base_peak_streams = 26.0;
    SimTime horizon = Days(14);
    uint64_t seed = 202;
  };

  explicit TwitchContentProcess(const Options& options);

  ContentState At(SimTime t) const override;
  SimTime horizon() const override { return options_.horizon; }
  void Materialize(SimTime begin, SimTime end) const override;

 private:
  Options options_;
  SmoothNoise difficulty_noise_;
  SmoothNoise count_noise_;
  std::vector<double> spike_offsets_s_;  ///< spike start within each day
};

}  // namespace sky::video

#endif  // SKYSCRAPER_VIDEO_CONTENT_PROCESS_H_
