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

/// A fixed number of blocks, each built on first use and published once by
/// compare-exchange: a reader sees a block whole or not at all, and a thread
/// that loses the race to publish frees its block (both built the same
/// bits). A copy holds copies of the blocks built so far.
template <typename Block>
class PublishedBlocks {
 public:
  explicit PublishedBlocks(size_t n)
      : n_(n), slots_(new std::atomic<Block*>[n]()) {}
  PublishedBlocks(const PublishedBlocks& other) : PublishedBlocks(other.n_) {
    for (size_t b = 0; b < n_; ++b) {
      if (const Block* src = other.Get(b)) {
        slots_[b].store(new Block(*src), std::memory_order_relaxed);
      }
    }
  }
  PublishedBlocks& operator=(const PublishedBlocks&) = delete;
  ~PublishedBlocks() {
    for (size_t b = 0; b < n_; ++b) {
      delete slots_[b].load(std::memory_order_relaxed);
    }
  }

  size_t size() const { return n_; }
  /// Block b, or null until a thread publishes it.
  const Block* Get(size_t b) const {
    return slots_[b].load(std::memory_order_acquire);
  }
  /// Publishes `block` as block b unless another thread did first.
  void Publish(size_t b, std::unique_ptr<Block> block) const {
    Block* expected = nullptr;
    if (slots_[b].compare_exchange_strong(expected, block.get(),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      block.release();
    }
  }
  /// Blocks published so far.
  size_t built() const {
    size_t built = 0;
    for (size_t b = 0; b < n_; ++b) built += Get(b) != nullptr;
    return built;
  }

 private:
  size_t n_;
  std::unique_ptr<std::atomic<Block*>[]> slots_;
};

/// Piecewise-smooth value noise: uniform knots every `knot_spacing` seconds,
/// cosine-interpolated. Deterministic given the seed.
///
/// Knots are drawn on first use, in blocks of kBlockKnots: knot i is always
/// output i of the seed's mt19937_64 stream, so a block's bits do not depend
/// on which blocks exist. At() may run on several threads at once; a block
/// two threads build together is published once. A copy holds copies of the
/// blocks built so far.
class SmoothNoise {
 public:
  static constexpr size_t kBlockKnots = 256;

  SmoothNoise(double amplitude, double knot_spacing_s, SimTime horizon,
              uint64_t seed);

  /// The noise at t; t before the first knot or past the last reads that
  /// knot.
  double At(SimTime t) const;
  /// Builds every missing block At() reads for t in [begin, end] in one
  /// generator pass; returns at once when they all exist. A no-op when
  /// begin > end or when begin lies past the last knot.
  void Materialize(SimTime begin, SimTime end) const;
  /// Blocks built so far.
  size_t built_blocks() const { return blocks_.built(); }

 private:
  /// Knots [b * kBlockKnots, (b + 1) * kBlockKnots), fewer in the last
  /// block.
  using KnotBlock = std::vector<double>;

  /// Draws the missing blocks in [first, last] in one generator pass and
  /// publishes each.
  void DrawBlocks(size_t first, size_t last) const;
  /// Block b, drawn first if missing.
  const double* Block(size_t b) const;

  double amplitude_;
  double spacing_;
  uint64_t seed_;
  size_t num_knots_;
  PublishedBlocks<KnotBlock> blocks_;
};

/// Diurnal single-camera content (traffic intersection or shopping street):
/// a time-of-day base curve, slow and fast noise, day-to-day drift, and
/// randomly timed short "events" (e.g. a group of pedestrians passing) whose
/// exact timing is unpredictable — the source of Type-B switcher errors and
/// of forecast smoothing (§5.6).
///
/// The whole horizon's events come from one pass of one Rng: a Poisson
/// count of candidates, then per candidate a start, a thinning draw and,
/// for a kept candidate, a duration and a magnitude. The schedule is stored
/// in day-blocks, each built on first use (or by Materialize) by replaying
/// that pass and keeping only its day's events, so a block's bits do not
/// depend on which blocks exist, and a camera read for a few hours holds a
/// day or two of events instead of the whole horizon's.
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
  /// Also builds every missing event day-block the range reads, in one
  /// replay of the event pass.
  void Materialize(SimTime begin, SimTime end) const override;

  /// Event day-blocks built so far.
  size_t built_event_days() const { return event_days_.built(); }

  /// The deterministic time-of-day base density for a profile (no noise).
  static double BaseDensity(Profile profile, double hour_of_day);

 private:
  struct Event {
    SimTime start;
    double duration_s;
    double magnitude;
  };
  using EventDay = std::vector<Event>;

  /// The day-block that holds every event At(t) reads: day floor(t / 1 day),
  /// clamped to [0, the horizon's day].
  size_t DayOf(SimTime t) const;
  /// Replays the event pass once and publishes every missing day-block in
  /// [first, last]; returns at once when they all exist.
  void DrawEventDays(size_t first, size_t last) const;
  double EventBoost(SimTime t) const;

  Options options_;
  SmoothNoise fine_noise_;
  SmoothNoise slow_noise_;
  SmoothNoise occlusion_noise_;
  SmoothNoise day_drift_;  ///< very slow (daily) multiplicative drift
  /// Day d holds, sorted by start, the events that start in
  /// [d days - the event look-back, (d + 1) days).
  PublishedBlocks<EventDay> event_days_;
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
