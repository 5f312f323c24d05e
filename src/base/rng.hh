/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component of the library draws from an explicitly
 * seeded Rng so that a full simulation is a pure function of its
 * configuration. The generator is xoshiro256** seeded via SplitMix64,
 * which is fast, has a 256-bit state, and passes BigCrush — more than
 * adequate for workload synthesis and scheduler sampling.
 */

#ifndef LIGHTLLM_BASE_RNG_HH
#define LIGHTLLM_BASE_RNG_HH

#include <cstdint>
#include <span>

#include "base/logging.hh"

namespace lightllm {

/** Seeded xoshiro256** pseudo-random number generator. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t nextU64();

    /** Uniform double in [0, 1). */
    double uniformDouble();

    /** Integer in [lo, hi] (inclusive) by plain modulo, uniform up
     *  to a bias below (hi - lo + 1) / 2^64; requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal via Box-Muller (cached spare). */
    double normal();

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Log-normal: exp(N(mu, sigma)). */
    double logNormal(double mu, double sigma);

    /** Exponential with the given rate (mean 1/rate). */
    double exponential(double rate);

    /** Uniformly pick an element index of a non-empty span. */
    template <typename T>
    std::size_t
    pickIndex(std::span<const T> values)
    {
        LIGHTLLM_ASSERT(!values.empty(), "pickIndex on empty span");
        return static_cast<std::size_t>(
            uniformInt(0, static_cast<std::int64_t>(values.size()) - 1));
    }

  private:
    std::uint64_t s_[4];
    double spare_ = 0.0;
    bool hasSpare_ = false;
};

} // namespace lightllm

#endif // LIGHTLLM_BASE_RNG_HH
