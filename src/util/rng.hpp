// Deterministic pseudo-random number generation for the simulation.
//
// Every stochastic component of the substrate draws from an explicitly
// seeded clasp::rng so a campaign is exactly reproducible from its seed.
// The generator is xoshiro256** seeded through splitmix64, which gives
// high-quality 64-bit streams without std::mt19937's 2.5 kB of state.
//
// rng::fork(tag) derives an independent child stream from a parent; the
// substrate forks one stream per subsystem (topology, load, measurement
// noise, ...) so adding draws to one subsystem never perturbs another.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace clasp {

// splitmix64 step; used for seeding and for hashing tags into seeds.
std::uint64_t splitmix64(std::uint64_t& state);

// Stateless 64-bit mix of a string tag into a seed (FNV-1a + splitmix
// finalizer). Used by rng::fork so child streams are decorrelated.
std::uint64_t hash_tag(std::uint64_t seed, std::string_view tag);

// xoshiro256** deterministic generator.
class rng {
 public:
  using result_type = std::uint64_t;

  explicit rng(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  // Raw 64-bit draw (UniformRandomBitGenerator interface). Inline, like
  // uniform(), so draw loops keep the state in registers.
  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Derive an independent child generator. Children with distinct tags
  // (or distinct parent states) produce decorrelated streams.
  rng fork(std::string_view tag) const;

  // Uniform double in [0, 1).
  double uniform() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }
  // Uniform double in (0, 1): redraws while the draw is 0, as normal()
  // and exponential() do to keep log() finite.
  double uniform_positive() {
    double u;
    do {
      u = uniform();
    } while (u <= 0.0);
    return u;
  }
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // True with probability p (clamped to [0, 1]).
  bool bernoulli(double p);
  // Standard normal via Box-Muller (no cached spare: keeps fork cheap).
  double normal();
  // The Box-Muller transform normal() applies to its two draws, u1 from
  // uniform_positive() and then u2 from uniform(). Exposed so a caller
  // that needs only part of the result can draw the same pair itself.
  static double box_muller(double u1, double u2);
  // Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);
  // Log-normal parameterized by the *underlying* normal's mu/sigma.
  double lognormal(double mu, double sigma);
  // Exponential with the given rate (lambda > 0).
  double exponential(double rate);
  // Bounded Pareto on [lo, hi] with shape alpha > 0. Models heavy-tailed
  // quantities such as AS customer-cone sizes.
  double pareto(double lo, double hi, double alpha);
  // Zipf-distributed rank in [1, n] with exponent s (via rejection
  // sampling, suitable for the modest n used here).
  std::size_t zipf(std::size_t n, double s);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  // Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  // Pick one element uniformly. Requires a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(items.size()) - 1))];
  }

  std::uint64_t seed() const { return seed_; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t seed_;
  std::uint64_t state_[4];
};

}  // namespace clasp
