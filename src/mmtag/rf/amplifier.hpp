// Amplifier models: linear gain + additive noise referred to the input (LNA)
// and Rapp soft-saturation nonlinearity (PA). Both amplify the caller's
// buffer in place.
#pragma once

#include <span>

#include "mmtag/common.hpp"
#include "mmtag/runtime/gaussian_source.hpp"

namespace mmtag::rf {

/// Low-noise amplifier: applies voltage gain and adds noise equivalent to its
/// noise figure over the simulation bandwidth.
class lna {
public:
    struct config {
        double gain_db = 20.0;
        double noise_figure_db = 3.0;
        double bandwidth_hz = 1e9; ///< noise bandwidth of the simulation
        double temperature_kelvin = t0_kelvin;
    };

    lna(const config& cfg, std::uint64_t seed);

    /// Added-noise power at the *input* reference plane [W].
    [[nodiscard]] double input_referred_noise_power() const;

    /// Amplifies a buffer in place, drawing the I then Q noise per sample.
    void process(std::span<cf64> buffer);

private:
    config cfg_;
    double voltage_gain_;
    double noise_sigma_;
    runtime::gaussian_source gaussian_;
};

/// Power amplifier with the Rapp AM/AM model:
///   g(a) = G a / (1 + (G a / A_sat)^(2p))^(1/2p)
/// AM/PM is assumed negligible (solid-state PA).
class power_amplifier {
public:
    struct config {
        double gain_db = 30.0;
        double output_saturation_dbm = 30.0; ///< saturated output power
        double smoothness = 2.0;             ///< Rapp p factor
    };

    explicit power_amplifier(const config& cfg);

    [[nodiscard]] cf64 process(cf64 input) const;

    /// Amplifies a buffer in place, bit-identical to process(cf64) per
    /// sample. The Rapp scale is computed only for an exact input amplitude
    /// not among the last few seen, which for a constant-envelope drive is
    /// rare.
    void process(std::span<cf64> buffer) const;

private:
    /// Output/input amplitude ratio for an input amplitude >= 1e-30.
    [[nodiscard]] double scale(double amplitude) const;

    config cfg_;
    double voltage_gain_;
    double saturation_amplitude_; // volts across 1 ohm reference
};

} // namespace mmtag::rf
