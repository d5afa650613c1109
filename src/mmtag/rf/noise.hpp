// Thermal noise generation and noise-figure arithmetic.
#pragma once

#include <span>

#include "mmtag/common.hpp"
#include "mmtag/runtime/gaussian_source.hpp"

namespace mmtag::rf {

/// Thermal noise power kTB [W] in `bandwidth_hz` at temperature `kelvin`.
[[nodiscard]] double thermal_noise_power(double bandwidth_hz, double kelvin = t0_kelvin);

/// Complex white Gaussian noise source of a given total power [W]
/// (variance split evenly between I and Q).
class awgn_source {
public:
    awgn_source(double power_watt, std::uint64_t seed);

    /// Adds noise to the caller's buffer in place (I then Q draw per sample).
    void add_to(std::span<cf64> buffer);

private:
    double power_;
    runtime::gaussian_source gaussian_;
};

} // namespace mmtag::rf
