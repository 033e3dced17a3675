#include "sim/faults.h"

#include <algorithm>
#include <cstring>

namespace sky::sim {
namespace {

// splitmix64 finalizer — the same mixing Rng::ForkIndex uses, so injector
// sub-streams have the quality of forked Rng streams without holding
// generator state.
uint64_t Mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Uniform double in [0, 1) from a hash word (53 mantissa bits).
double HashToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Bit pattern of a SimTime, so the (seed, t) hash keys on the exact double
// the engine computes — two segments only collide if their times are
// bitwise equal, in which case they SHOULD see the same failures.
uint64_t TimeBits(SimTime t) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(t), "SimTime must be 64-bit");
  std::memcpy(&bits, &t, sizeof(bits));
  return bits;
}

bool WindowCovers(const FaultEvent& e, SimTime t) {
  return t >= e.at && t < e.at + e.duration;
}

}  // namespace

void FaultPlan::AddTransientCloudFailures(SimTime at, SimTime duration,
                                          double fail_probability) {
  events.push_back({FaultKind::kTransientCloudFailure, at, duration,
                    std::clamp(fail_probability, 0.0, 1.0)});
}

void FaultPlan::AddCloudOutage(SimTime at, SimTime duration) {
  events.push_back({FaultKind::kCloudOutage, at, duration, 0.0});
}

void FaultPlan::AddCloudLatency(SimTime at, SimTime duration,
                                double runtime_multiplier) {
  events.push_back(
      {FaultKind::kCloudLatency, at, duration, runtime_multiplier});
}

void FaultPlan::AddUdfStall(SimTime at, SimTime duration,
                            double runtime_multiplier) {
  events.push_back({FaultKind::kUdfStall, at, duration, runtime_multiplier});
}

void FaultPlan::AddUdfThrow(SimTime at) {
  events.push_back({FaultKind::kUdfThrow, at, 0.0, 0.0});
}

FaultInjector::FaultInjector(FaultPlan plan, uint64_t seed, RetryPolicy retry)
    : plan_(std::move(plan)), retry_(retry) {
  event_seeds_.reserve(plan_.events.size());
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    event_seeds_.push_back(Mix64(seed ^ Mix64(i)));
  }
  consumed_ = std::make_unique<std::atomic<bool>[]>(plan_.events.size());
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    consumed_[i].store(false, std::memory_order_relaxed);
  }
}

FaultInjector::FaultInjector(FaultPlan plan, Rng* rng, RetryPolicy retry)
    : FaultInjector(std::move(plan),
                    rng->Fork("fault-injector").engine()(), retry) {}

bool FaultInjector::CloudOutageAt(SimTime t) const {
  for (const FaultEvent& e : plan_.events) {
    if (e.kind == FaultKind::kCloudOutage && WindowCovers(e, t)) return true;
  }
  return false;
}

double FaultInjector::CloudLatencyMultiplierAt(SimTime t) const {
  double mult = 1.0;
  for (const FaultEvent& e : plan_.events) {
    if (e.kind == FaultKind::kCloudLatency && WindowCovers(e, t)) {
      mult *= e.magnitude;
    }
  }
  return mult;
}

double FaultInjector::UdfStallMultiplierAt(SimTime t) const {
  double mult = 1.0;
  for (const FaultEvent& e : plan_.events) {
    if (e.kind == FaultKind::kUdfStall && WindowCovers(e, t)) {
      mult *= e.magnitude;
    }
  }
  return mult;
}

size_t FaultInjector::CloudUploadFailuresAt(SimTime t) const {
  const size_t cap = retry_.max_attempts + 1;
  size_t worst = 0;
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (e.kind != FaultKind::kTransientCloudFailure || !WindowCovers(e, t)) {
      continue;
    }
    // Each attempt j fails iff the j-th hash of (event seed, t) lands under
    // the failure probability — a counting process with no shared state, so
    // any replay of segment t recomputes the identical count.
    uint64_t key = event_seeds_[i] ^ Mix64(TimeBits(t));
    size_t fails = 0;
    while (fails < cap && HashToUnit(Mix64(key + fails)) < e.magnitude) {
      ++fails;
    }
    worst = std::max(worst, fails);
  }
  return worst;
}

double FaultInjector::BackoffDelaySeconds(size_t failed_attempts) const {
  double total = 0.0;
  double delay = retry_.backoff_base_s;
  for (size_t j = 0; j < failed_attempts; ++j) {
    total += std::min(delay, retry_.backoff_cap_s);
    delay *= 2.0;
  }
  return total;
}

bool FaultInjector::ConsumeUdfThrowAt(SimTime t) {
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (e.kind != FaultKind::kUdfThrow || t < e.at) continue;
    bool expected = false;
    if (consumed_[i].compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

size_t FaultInjector::consumed_events() const {
  size_t n = 0;
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    if (consumed_[i].load(std::memory_order_relaxed)) ++n;
  }
  return n;
}

}  // namespace sky::sim
