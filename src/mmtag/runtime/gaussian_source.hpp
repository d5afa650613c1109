// The one Gaussian noise source of the simulator: a SplitMix64 stream (the
// runtime::mix64 finalizer over a Weyl counter) feeding a 128-layer Ziggurat
// normal sampler (Marsaglia & Tsang 2000, in Doornik's ZIGNOR layout).
//
// Every draw is defined by this file and its layer tables, not by the
// standard library: the fast path (about 99% of draws) is one 64-bit mix,
// one multiply and one compare, so a seed yields the same stream on every
// platform. Only the rare wedge and tail draws call libm exp/log.
#pragma once

#include <array>
#include <bit>
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

    /// Standard normal deviate (mean 0, variance 1). One draw uses bits 0-6
    /// for the layer, bit 7 for the sign and bits 11-63 for the abscissa.
    [[nodiscard]] double normal()
    {
        const std::uint64_t bits = next_bits();
        const unsigned layer = bits & 127u;
        // Bits 11-63 fit in an int64_t, whose conversion is one instruction.
        const auto abscissa = static_cast<std::int64_t>(bits >> 11);
        const double x = static_cast<double>(abscissa) * 0x1.0p-53 * detail::ziggurat_x[layer];
        // x >= 0, so bit 7 moved to bit 63 flips its sign without a branch.
        if (x < detail::ziggurat_x[layer + 1]) [[likely]] {
            return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^ ((bits & 128u) << 56));
        }
        return normal_slow(layer, x, (bits & 128u) != 0);
    }

private:
    /// Wedge test for layers 1-127 and the tail draw for layer 0.
    [[nodiscard]] double normal_slow(unsigned layer, double x, bool negative);

    /// Uniform on (0, 1].
    [[nodiscard]] double uniform()
    {
        return static_cast<double>(static_cast<std::int64_t>(next_bits() >> 11) + 1) * 0x1.0p-53;
    }

    std::uint64_t state_;
};

} // namespace mmtag::runtime
