#include "base/rng.hh"

#include <cmath>

namespace lightllm {

namespace {

/** SplitMix64 step used for seeding and for deriving child seeds. */
std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
}

std::uint64_t
Rng::nextU64()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniformDouble()
{
    // 53 random mantissa bits scaled into [0, 1).
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    LIGHTLLM_ASSERT(lo <= hi, "uniformInt: lo ", lo, " > hi ", hi);
    const std::uint64_t range =
        static_cast<std::uint64_t>(hi - lo) + 1ull;
    if (range == 0)  // full 64-bit range
        return static_cast<std::int64_t>(nextU64());
    // Plain modulo, not debiased: each value below 2^64 mod range
    // has one more preimage than the others, so no value's
    // probability is off by more than 2^-64 and the deviations sum
    // to less than range / 2^64 (2^-44 for a range of 2^20 values).
    // Rejection sampling would change every seeded draw sequence.
    return lo + static_cast<std::int64_t>(nextU64() % range);
}

double
Rng::normal()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spare_;
    }
    double u1 = 0.0;
    do {
        u1 = uniformDouble();
    } while (u1 <= 0.0);
    const double u2 = uniformDouble();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double two_pi = 2.0 * 3.14159265358979323846;
    spare_ = mag * std::sin(two_pi * u2);
    hasSpare_ = true;
    return mag * std::cos(two_pi * u2);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::logNormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

double
Rng::exponential(double rate)
{
    LIGHTLLM_ASSERT(rate > 0.0, "exponential rate must be positive");
    double u = 0.0;
    do {
        u = uniformDouble();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

} // namespace lightllm
