#include "mmtag/rf/noise.hpp"

#include <stdexcept>

namespace mmtag::rf {

double thermal_noise_power(double bandwidth_hz, double kelvin)
{
    if (bandwidth_hz <= 0.0) throw std::invalid_argument("thermal_noise_power: bandwidth <= 0");
    if (kelvin <= 0.0) throw std::invalid_argument("thermal_noise_power: temperature <= 0");
    return boltzmann * kelvin * bandwidth_hz;
}

awgn_source::awgn_source(double power_watt, std::uint64_t seed)
    : power_(power_watt), gaussian_(seed)
{
    if (power_watt < 0.0) throw std::invalid_argument("awgn_source: power must be >= 0");
}

void awgn_source::add_to(std::span<cf64> buffer)
{
    const double sigma = std::sqrt(power_ / 2.0);
    for (auto& x : buffer) x += cf64{sigma * gaussian_.normal(), sigma * gaussian_.normal()};
}

} // namespace mmtag::rf
