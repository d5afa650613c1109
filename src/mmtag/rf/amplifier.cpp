#include "mmtag/rf/amplifier.hpp"

#include <array>
#include <stdexcept>

#include "mmtag/rf/noise.hpp"

namespace mmtag::rf {

// Signals are complex baseband voltages across a 1-ohm reference, so
// instantaneous power is |x|^2 watts.

lna::lna(const config& cfg, std::uint64_t seed) : cfg_(cfg), gaussian_(seed)
{
    if (cfg.bandwidth_hz <= 0.0) throw std::invalid_argument("lna: bandwidth <= 0");
    if (cfg.noise_figure_db < 0.0) throw std::invalid_argument("lna: noise figure < 0");
    voltage_gain_ = std::pow(10.0, cfg.gain_db / 20.0);
    noise_sigma_ = std::sqrt(input_referred_noise_power() / 2.0);
}

double lna::input_referred_noise_power() const
{
    const double noise_factor = from_db(cfg_.noise_figure_db);
    return (noise_factor - 1.0) *
           thermal_noise_power(cfg_.bandwidth_hz, cfg_.temperature_kelvin);
}

void lna::process(std::span<cf64> buffer)
{
    for (cf64& x : buffer) {
        const cf64 noise{noise_sigma_ * gaussian_.normal(), noise_sigma_ * gaussian_.normal()};
        x = voltage_gain_ * (x + noise);
    }
}

power_amplifier::power_amplifier(const config& cfg) : cfg_(cfg)
{
    if (cfg.smoothness <= 0.0) throw std::invalid_argument("power_amplifier: smoothness <= 0");
    voltage_gain_ = std::pow(10.0, cfg.gain_db / 20.0);
    saturation_amplitude_ = std::sqrt(dbm_to_watt(cfg.output_saturation_dbm));
}

double power_amplifier::scale(double amplitude) const
{
    const double driven = voltage_gain_ * amplitude;
    const double ratio = driven / saturation_amplitude_;
    const double p2 = 2.0 * cfg_.smoothness;
    const double compressed = driven / std::pow(1.0 + std::pow(ratio, p2), 1.0 / p2);
    return compressed / amplitude;
}

cf64 power_amplifier::process(cf64 input) const
{
    const double amplitude = std::abs(input);
    if (amplitude < 1e-30) return cf64{};
    return input * scale(amplitude);
}

void power_amplifier::process(std::span<cf64> buffer) const
{
    // scale() is a pure function of the exact amplitude, so a remembered
    // (amplitude, scale) pair gives the bits a recomputation would. A
    // constant-envelope carrier's |x| takes two or three one-ulp neighbours,
    // so a few pairs, replaced oldest first, catch nearly every sample.
    constexpr std::size_t memo_size = 4;
    std::array<double, memo_size> amplitudes;
    amplitudes.fill(-1.0);
    std::array<double, memo_size> scales{};
    std::size_t oldest = 0;
    for (cf64& x : buffer) {
        const double amplitude = std::abs(x);
        if (amplitude < 1e-30) {
            x = cf64{};
            continue;
        }
        std::size_t hit = 0;
        while (hit < memo_size && amplitudes[hit] != amplitude) ++hit;
        if (hit == memo_size) {
            hit = oldest;
            oldest = (oldest + 1) % memo_size;
            amplitudes[hit] = amplitude;
            scales[hit] = scale(amplitude);
        }
        x *= scales[hit];
    }
}

} // namespace mmtag::rf
