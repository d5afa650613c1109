// The one random stream of the simulator: a SplitMix64 stream (the
// runtime::mix64 finalizer over a Weyl counter) with uniform, bounded
// integer and exponential transforms and a 128-layer Ziggurat normal sampler
// (Marsaglia & Tsang 2000, in Doornik's ZIGNOR layout).
//
// Every draw is defined by this file and its layer tables, not by the
// standard library, so a seed yields the same stream on every platform. The
// normal fast path (about 99% of draws) is one 64-bit mix, one multiply and
// one compare. Only libm's log1p (exponential) and exp/log (the rare wedge
// and tail normal draws) are platform-dependent.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "mmtag/runtime/trial_rng.hpp"

namespace mmtag::runtime {

namespace detail {
/// Right edges of the Ziggurat layers; ziggurat_x[128] = 0.
extern const std::array<double, 129> ziggurat_x;
} // namespace detail

class gaussian_source {
public:
    /// The seed is mixed once, so nearby seeds (seed, seed + 1, ...) give
    /// unrelated streams.
    explicit gaussian_source(std::uint64_t seed) : state_(mix64(seed)) {}

    /// Next 64 uniform bits: SplitMix64.
    [[nodiscard]] std::uint64_t next_bits()
    {
        const std::uint64_t counter = state_;
        state_ += 0x9e3779b97f4a7c15ULL;
        return mix64(counter);
    }

    /// Uniform on [0, 1): the top 53 bits of one word.
    [[nodiscard]] double unit() { return unit_of(next_bits()); }

    /// Uniform on [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi) { return lo + unit() * (hi - lo); }

    /// Exponential deviate with the given rate (mean 1 / rate).
    [[nodiscard]] double exponential(double rate) { return -std::log1p(-unit()) / rate; }

    /// Uniform integer in [0, n), n >= 1, unbiased: Lemire's multiply-shift,
    /// rejecting the words whose low product half is below 2^64 mod n.
    [[nodiscard]] std::uint64_t below(std::uint64_t n)
    {
        const std::uint64_t threshold = (0 - n) % n;
        auto product = static_cast<unsigned __int128>(next_bits()) * n;
        while (static_cast<std::uint64_t>(product) < threshold) {
            product = static_cast<unsigned __int128>(next_bits()) * n;
        }
        return static_cast<std::uint64_t>(product >> 64);
    }

    /// Standard normal deviate (mean 0, variance 1). One draw uses bits 0-6
    /// for the layer, bit 7 for the sign and bits 11-63 for the abscissa.
    [[nodiscard]] double normal()
    {
        const std::uint64_t bits = next_bits();
        const unsigned layer = bits & 127u;
        const double x = unit_of(bits) * detail::ziggurat_x[layer];
        // x >= 0, so bit 7 moved to bit 63 flips its sign without a branch.
        if (x < detail::ziggurat_x[layer + 1]) [[likely]] {
            return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^ ((bits & 128u) << 56));
        }
        return normal_slow(layer, x, (bits & 128u) != 0);
    }

private:
    /// Wedge test for layers 1-127 and the tail draw for layer 0.
    [[nodiscard]] double normal_slow(unsigned layer, double x, bool negative);

    /// Uniform on (0, 1]; the sum is exact.
    [[nodiscard]] double open_unit() { return unit_of(next_bits()) + 0x1.0p-53; }

    std::uint64_t state_;
};

} // namespace mmtag::runtime
