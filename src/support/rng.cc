/**
 * @file
 * SplitMix64 implementation.
 */

#include "support/rng.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace uavf1 {

namespace {

/** Box-Muller radius of a pair's first uniform, guarded against
 * log(0). normal() and normalBlock() share it (and boxMullerAngle),
 * so the two cannot drift apart. */
inline double
boxMullerRadius(double u1)
{
    if (u1 <= 0.0)
        u1 = 0x1.0p-53;
    return std::sqrt(-2.0 * std::log(u1));
}

/** Box-Muller angle of a pair's second uniform. */
inline double
boxMullerAngle(double u2)
{
    return 2.0 * std::numbers::pi * u2;
}

} // namespace

double
Rng::normal()
{
    if (_haveSpare) {
        _haveSpare = false;
        return _spare;
    }
    const double r = boxMullerRadius(uniform());
    const double theta = boxMullerAngle(uniform());
    _spare = r * std::sin(theta);
    _haveSpare = true;
    return r * std::cos(theta);
}

void
Rng::normalBlock(double *out, std::size_t n)
{
    if (n > 0 && _haveSpare) {
        _haveSpare = false;
        *out++ = _spare;
        --n;
    }
    constexpr std::size_t chunk = 128; // Box-Muller pairs.
    double u[2 * chunk];
    double radius[chunk];
    std::uint8_t order[chunk];
    while (n > 0) {
        const std::size_t pairs = std::min((n + 1) / 2, chunk);
        const std::size_t take = std::min(n, 2 * pairs);
        uniformBlock(u, 2 * pairs);
        for (std::size_t k = 0; k < pairs; ++k)
            radius[k] = boxMullerRadius(u[2 * k]);

        // Counting sort of the pair indices by the angle's octant.
        const auto octant = [&](std::size_t k) {
            return static_cast<std::size_t>(u[2 * k + 1] * 8.0);
        };
        std::size_t start[9] = {};
        for (std::size_t k = 0; k < pairs; ++k)
            ++start[octant(k) + 1];
        for (std::size_t o = 1; o < 9; ++o)
            start[o] += start[o - 1];
        for (std::size_t k = 0; k < pairs; ++k)
            order[start[octant(k)]++] = static_cast<std::uint8_t>(k);

        // An odd take leaves the last pair's sine as the spare.
        for (std::size_t j = 0; j < pairs; ++j) {
            const std::size_t k = order[j];
            const double theta = boxMullerAngle(u[2 * k + 1]);
            out[2 * k] = radius[k] * std::cos(theta);
            (2 * k + 1 < take ? out[2 * k + 1] : _spare) =
                radius[k] * std::sin(theta);
        }
        _haveSpare = take % 2 == 1;
        out += take;
        n -= take;
    }
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

Rng
Rng::fork()
{
    // Mix the current stream into a fresh seed so substreams do not
    // overlap with the parent.
    return Rng(nextU64() ^ 0xd1b54a32d192ed03ull);
}

} // namespace uavf1
