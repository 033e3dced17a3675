#ifndef SKYSCRAPER_UTIL_RNG_H_
#define SKYSCRAPER_UTIL_RNG_H_

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace sky {

/// Deterministic random number generator. Every stochastic component in the
/// library takes a seed (or an Rng) explicitly so that experiments are
/// reproducible run-to-run; nothing reads global entropy.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Poisson with the given mean; 0 when the mean is not positive. Draws on
  /// separate Rngs may run on several threads at once.
  int64_t Poisson(double mean);

  /// Bernoulli trial.
  bool Bernoulli(double p);

  /// Derives an independent child stream. Forking with the same tag from the
  /// same parent state yields the same stream, which keeps sub-components
  /// reproducible independent of call ordering elsewhere.
  Rng Fork(std::string_view tag) const;

  /// Derives the `index`-th child stream without advancing this generator.
  /// The backbone of deterministic parallelism: a loop that forks one child
  /// per iteration index draws the same values no matter how many threads
  /// execute the iterations or in which order.
  Rng ForkIndex(uint64_t index) const;

  /// Exact textual snapshot of the generator state (the mt19937_64 stream
  /// representation). Feeding it back through LoadState resumes the draw
  /// sequence bitwise — the basis of checkpoint/restore determinism.
  std::string SaveState() const;

  /// Restores a state produced by SaveState. kInvalidArgument if the text
  /// does not parse as a valid engine state (generator left unchanged).
  Status LoadState(const std::string& state);

  template <typename T>
  void Shuffle(std::vector<T>* v) {
    std::shuffle(v->begin(), v->end(), engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace sky

#endif  // SKYSCRAPER_UTIL_RNG_H_
