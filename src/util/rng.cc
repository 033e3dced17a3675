#include "util/rng.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <sstream>

namespace sky {

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

int64_t Rng::Poisson(double mean) {
  if (mean <= 0.0) {
    // std::poisson_distribution requires mean > 0. At mean 0, libstdc++'s
    // small-mean loop stops after one canonical draw and returns 0; take
    // that same draw so the stream stays bitwise what it was.
    std::generate_canonical<double, std::numeric_limits<double>::digits>(
        engine_);
    return 0;
  }
  // For a mean of 12 or more, libstdc++'s Poisson sampler calls lgamma,
  // which writes libm's global signgam: draws on separate Rngs must not run
  // it at once.
  static std::mutex lgamma_mutex;
  std::lock_guard<std::mutex> lock(lgamma_mutex);
  std::poisson_distribution<int64_t> dist(mean);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(std::clamp(p, 0.0, 1.0));
  return dist(engine_);
}

std::string Rng::SaveState() const {
  std::ostringstream os;
  os << engine_;
  return os.str();
}

Status Rng::LoadState(const std::string& state) {
  std::istringstream is(state);
  std::mt19937_64 restored;
  is >> restored;
  if (is.fail()) {
    return Status::InvalidArgument("malformed rng state");
  }
  engine_ = restored;
  return Status::Ok();
}

Rng Rng::Fork(std::string_view tag) const {
  // FNV-1a over the tag, mixed with a snapshot of the parent engine state.
  uint64_t h = 1469598103934665603ULL;
  for (char c : tag) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  std::mt19937_64 copy = engine_;
  uint64_t salt = copy();
  return Rng(h ^ (salt * 0x9E3779B97F4A7C15ULL));
}

Rng Rng::ForkIndex(uint64_t index) const {
  std::mt19937_64 copy = engine_;
  uint64_t salt = copy();
  // splitmix64 finalizer over (state snapshot, index).
  uint64_t z = salt ^ (index + 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return Rng(z ^ (z >> 31));
}

}  // namespace sky
