#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace clasp {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_tag(std::uint64_t seed, std::string_view tag) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  std::uint64_t s = h;
  return splitmix64(s);
}

rng::rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

rng rng::fork(std::string_view tag) const {
  return rng(hash_tag(seed_ ^ state_[3], tag));
}

double rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::int64_t rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw invalid_argument_error("uniform_int: lo > hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t draw;
  do {
    draw = (*this)();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % span);
}

bool rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double rng::normal() {
  // Draw u1 away from zero to keep log() finite.
  const double u1 = uniform_positive();
  const double u2 = uniform();
  return box_muller(u1, u2);
}

double rng::box_muller(double u1, double u2) {
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double rng::exponential(double rate) {
  if (rate <= 0.0) throw invalid_argument_error("exponential: rate <= 0");
  return -std::log(uniform_positive()) / rate;
}

double rng::pareto(double lo, double hi, double alpha) {
  if (!(lo > 0.0) || !(hi > lo) || !(alpha > 0.0)) {
    throw invalid_argument_error("pareto: need 0 < lo < hi and alpha > 0");
  }
  // Inverse-CDF sampling of the bounded Pareto distribution.
  const double u = uniform();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  const double x = -(u * ha - u * la - ha) / (ha * la);
  return std::pow(1.0 / x, 1.0 / alpha);
}

std::size_t rng::zipf(std::size_t n, double s) {
  if (n == 0) throw invalid_argument_error("zipf: n == 0");
  // Rejection sampling (Devroye). Adequate for n up to millions.
  const double b = std::pow(2.0, s - 1.0);
  for (;;) {
    const double u = uniform();
    const double v = uniform();
    const double x = std::floor(std::pow(static_cast<double>(n) + 1.0, u));
    // x in [1, n+1); clamp to [1, n].
    if (x > static_cast<double>(n)) continue;
    const double t = std::pow(1.0 + 1.0 / x, s - 1.0);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
      return static_cast<std::size_t>(x);
    }
  }
}

std::vector<std::size_t> rng::sample_indices(std::size_t n, std::size_t k) {
  if (k > n) throw invalid_argument_error("sample_indices: k > n");
  // Partial Fisher-Yates over an index vector.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i),
                    static_cast<std::int64_t>(n) - 1));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace clasp
