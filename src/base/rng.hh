/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic choice in the simulator (workload address streams,
 * Lite's random full-activation) draws from an explicitly seeded Rng so
 * that runs are bit-identical across machines and reruns. The generator
 * is xoshiro256** seeded through splitmix64, which is both fast and has
 * no linear artifacts in the low bits.
 */

#ifndef EAT_BASE_RNG_HH
#define EAT_BASE_RNG_HH

#include <cmath>
#include <cstdint>

#include "base/logging.hh"

namespace eat
{

/** Deterministic xoshiro256** pseudo-random number generator. */
class Rng
{
  public:
    /** Seed the generator; the same seed always yields the same stream. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        // splitmix64 expansion of the seed into the 256-bit state.
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** @return the next raw 64-bit value. */
    std::uint64_t
    next()
    {
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

    /** @return a value uniform in [0, bound); @p bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        eat_assert(bound != 0, "Rng::below(0)");
        // Lemire's multiply-shift rejection method (unbiased).
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto low = static_cast<std::uint64_t>(m);
        if (low < bound) {
            std::uint64_t threshold = -bound % bound;
            while (low < threshold) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                low = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** @return a value uniform in [lo, hi]; requires lo <= hi. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        eat_assert(lo <= hi, "Rng::range with lo > hi");
        return lo + below(hi - lo + 1);
    }

    /** @return the 53 random bits behind real(), which is
     *  bits53() * 2^-53. */
    std::uint64_t
    bits53()
    {
        return next() >> 11;
    }

    /** @return a double uniform in [0, 1). */
    double
    real()
    {
        return static_cast<double>(bits53()) * 0x1.0p-53;
    }

    /** @return true with probability @p p (clamped to [0, 1]). */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return real() < p;
    }

    /** Fork an independent stream (for per-component generators). */
    Rng
    fork()
    {
        return Rng(next() ^ 0xd1b54a32d192ed03ull);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/**
 * Integer thresholds that stand in for comparisons against Rng::real().
 * real() is exactly k * 2^-53 for k = bits53(), and c * 2^53 is exact
 * for c in [0, 1], so for such c:
 *   real() <= c  exactly when  k <= atMost(c) = floor(c * 2^53);
 *   real() <  c  exactly when  k <  below(c)  = ceil(c * 2^53).
 * Callers that compare one constant per draw precompute the threshold
 * and draw bits53() in place of real(), consuming the same stream.
 */
struct UnitThreshold
{
    static std::uint64_t
    atMost(double c)
    {
        eat_assert(c >= 0.0 && c <= 1.0, "UnitThreshold outside [0, 1]");
        return static_cast<std::uint64_t>(std::floor(c * 0x1.0p53));
    }

    static std::uint64_t
    below(double c)
    {
        eat_assert(c >= 0.0 && c <= 1.0, "UnitThreshold outside [0, 1]");
        return static_cast<std::uint64_t>(std::ceil(c * 0x1.0p53));
    }
};

} // namespace eat

#endif // EAT_BASE_RNG_HH
