#include "mmtag/rf/noise.hpp"

#include <stdexcept>

namespace mmtag::rf {

double thermal_noise_power(double bandwidth_hz, double kelvin)
{
    if (bandwidth_hz <= 0.0) throw std::invalid_argument("thermal_noise_power: bandwidth <= 0");
    if (kelvin <= 0.0) throw std::invalid_argument("thermal_noise_power: temperature <= 0");
    return boltzmann * kelvin * bandwidth_hz;
}

double thermal_noise_dbm(double bandwidth_hz, double kelvin)
{
    return watt_to_dbm(thermal_noise_power(bandwidth_hz, kelvin));
}

double cascade_noise_figure_db(std::span<const double> stage_nf_db,
                               std::span<const double> stage_gain_db)
{
    if (stage_nf_db.empty() || stage_nf_db.size() != stage_gain_db.size()) {
        throw std::invalid_argument("cascade_noise_figure_db: stage vectors mismatch or empty");
    }
    double total_factor = from_db(stage_nf_db[0]);
    double gain_product = from_db(stage_gain_db[0]);
    for (std::size_t i = 1; i < stage_nf_db.size(); ++i) {
        total_factor += (from_db(stage_nf_db[i]) - 1.0) / gain_product;
        gain_product *= from_db(stage_gain_db[i]);
    }
    return to_db(total_factor);
}

awgn_source::awgn_source(double power_watt, std::uint64_t seed)
    : power_(power_watt), gaussian_(seed)
{
    if (power_watt < 0.0) throw std::invalid_argument("awgn_source: power must be >= 0");
}

void awgn_source::set_power(double power_watt)
{
    if (power_watt < 0.0) throw std::invalid_argument("awgn_source: power must be >= 0");
    power_ = power_watt;
}

cf64 awgn_source::sample()
{
    const double sigma = std::sqrt(power_ / 2.0);
    return {sigma * gaussian_.normal(), sigma * gaussian_.normal()};
}

void awgn_source::add_to(std::span<cf64> buffer)
{
    const double sigma = std::sqrt(power_ / 2.0);
    for (auto& x : buffer) x += cf64{sigma * gaussian_.normal(), sigma * gaussian_.normal()};
}

cvec awgn_source::apply(std::span<const cf64> input)
{
    cvec out(input.begin(), input.end());
    add_to(out);
    return out;
}

} // namespace mmtag::rf
