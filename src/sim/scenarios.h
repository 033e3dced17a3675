#ifndef SKYSCRAPER_SIM_SCENARIOS_H_
#define SKYSCRAPER_SIM_SCENARIOS_H_

#include <cstdint>
#include <vector>

#include "util/sim_time.h"
#include "video/content_process.h"

namespace sky::sim {

/// Adversarial content scenarios: the workload shapes a million-user
/// deployment sees that the steady-state diurnal streams never produce —
/// flash-crowd arrival bursts, day/night content drift, and correlated
/// multi-camera fleets. Each is a deterministic, seekable ContentProcess
/// (same seed => bitwise same states), so engines, StreamSet, and benches
/// replay them exactly like the §5.2 workload streams. The matching
/// workloads ("flash-crowd", "drift", "fleet") live in
/// workloads/scenarios.h.

/// Flash crowds: a diurnal street whose density is punctuated by large,
/// Poisson-scheduled surges — a fast ramp (tens of seconds), a plateau, and
/// a slow exponential tail, with amplitudes well above the diurnal event
/// bumps. The shape stresses the forecaster (onset is unpredictable) and
/// the planner's buffering/bursting trade-off (minutes of sustained
/// overload).
struct FlashCrowdOptions {
  video::DiurnalContentProcess::Options base;  ///< street under the crowd
  double bursts_per_day = 4.0;
  double burst_amplitude = 0.85;  ///< peak density boost, >> event_magnitude
  double ramp_s = 40.0;           ///< onset: empty street to packed
  double hold_s = 420.0;          ///< plateau at full amplitude
  double decay_s = 900.0;         ///< exponential tail time constant
};

class FlashCrowdContentProcess : public video::ContentProcess {
 public:
  explicit FlashCrowdContentProcess(const FlashCrowdOptions& options);

  video::ContentState At(SimTime t) const override;
  SimTime horizon() const override { return base_.horizon(); }
  void Materialize(SimTime begin, SimTime end) const override {
    base_.Materialize(begin, end);
  }

  /// The additive density surge at time t (0 outside bursts). Exposed so
  /// tests can assert burst amplitude and schedule determinism directly.
  double BurstBoost(SimTime t) const;

 private:
  struct Burst {
    SimTime start = 0.0;
    double amplitude = 0.0;
    double hold_s = 0.0;
  };

  FlashCrowdOptions options_;
  video::DiurnalContentProcess base_;
  std::vector<Burst> bursts_;  ///< sorted by start
};

/// Day/night content drift: over `drift_period_days` the content
/// distribution migrates from the daytime diurnal pattern toward its
/// 12-hour-shifted inverse (activity moves into the night) and back, while
/// lighting stays tied to the true clock. A forecaster fitted on the first
/// days keeps predicting daytime crowds long after they moved — the
/// scenario online re-training exists for.
struct ContentDriftOptions {
  video::DiurnalContentProcess::Options base;
  double drift_period_days = 12.0;
  double drift_magnitude = 0.8;  ///< 1 = full day/night inversion at peak
};

class ContentDriftProcess : public video::ContentProcess {
 public:
  explicit ContentDriftProcess(const ContentDriftOptions& options);

  video::ContentState At(SimTime t) const override;
  SimTime horizon() const override { return options_.base.horizon; }
  void Materialize(SimTime begin, SimTime end) const override;

  /// Mixing weight toward the night-shifted pattern at time t, in
  /// [0, drift_magnitude]. Exposed so tests can assert the drift rate.
  double DriftPhase(SimTime t) const;

 private:
  ContentDriftOptions options_;
  /// Built with 12 h of horizon slack: At(t) samples it at both t and
  /// t + 12 h.
  video::DiurnalContentProcess base_;
};

/// Correlated camera fleet: every camera built from the same `fleet_seed`
/// shares one latent category-shift process (smooth drift plus
/// square-pulse shifts, e.g. an event venue switching content type) that
/// modulates its otherwise idiosyncratic diurnal stream. Cameras of one
/// fleet are strongly correlated; cameras of different fleets are not —
/// the structure joint planning can exploit and independent planning
/// cannot.
struct FleetOptions {
  /// Per-camera idiosyncratic street; its seed field is replaced by each
  /// camera's own seed.
  video::DiurnalContentProcess::Options base;
  double correlation = 0.6;        ///< weight of the shared latent
  double shift_rate_per_day = 3.0; ///< square-pulse category shifts
  double shift_magnitude = 0.5;
  uint64_t fleet_seed = 7001;
};

class FleetCameraContentProcess : public video::ContentProcess {
 public:
  FleetCameraContentProcess(const FleetOptions& options, uint64_t camera_seed);

  video::ContentState At(SimTime t) const override;
  SimTime horizon() const override { return options_.base.horizon; }
  void Materialize(SimTime begin, SimTime end) const override;

  /// The fleet-wide latent shift at time t (identical for every camera of
  /// the fleet). Exposed so tests can assert cross-camera correlation.
  double SharedShift(SimTime t) const;

 private:
  struct Shift {
    SimTime start = 0.0;
    double duration_s = 0.0;
    double magnitude = 0.0;  ///< signed
  };

  FleetOptions options_;
  video::DiurnalContentProcess own_;
  video::SmoothNoise shared_noise_;
  std::vector<Shift> shifts_;  ///< sorted by start
};

}  // namespace sky::sim

#endif  // SKYSCRAPER_SIM_SCENARIOS_H_
