#include "mmtag/channel/fading.hpp"

#include <algorithm>
#include <stdexcept>

namespace mmtag::channel {

cf64 rician_coefficient(double k_factor_db, runtime::gaussian_source& gaussian)
{
    const double k = from_db(k_factor_db);
    const double los_amplitude = std::sqrt(k / (k + 1.0));
    const double scatter_sigma = std::sqrt(1.0 / (2.0 * (k + 1.0)));
    const double in_phase = los_amplitude + scatter_sigma * gaussian.normal();
    return cf64{in_phase, scatter_sigma * gaussian.normal()};
}

multipath_channel::multipath_channel(const config& cfg, std::uint64_t seed) : cfg_(cfg)
{
    if (cfg.taps.empty()) throw std::invalid_argument("multipath_channel: no taps");
    if (cfg.sample_rate_hz <= 0.0) throw std::invalid_argument("multipath_channel: fs <= 0");
    double total_power = 0.0;
    for (const auto& tap : cfg.taps) {
        if (tap.power < 0.0) throw std::invalid_argument("multipath_channel: negative tap power");
        total_power += tap.power;
    }
    if (total_power <= 0.0) throw std::invalid_argument("multipath_channel: zero total power");

    runtime::gaussian_source gaussian(seed);
    coefficients_.reserve(cfg.taps.size());
    for (std::size_t i = 0; i < cfg.taps.size(); ++i) {
        const double amplitude = std::sqrt(cfg.taps[i].power / total_power);
        if (i == 0) {
            coefficients_.push_back(amplitude * rician_coefficient(cfg.k_factor_db, gaussian));
        } else {
            // Echoes are diffuse: Rayleigh (K -> -inf ~= -100 dB).
            coefficients_.push_back(amplitude * rician_coefficient(-100.0, gaussian));
        }
    }
}

cvec multipath_channel::apply(std::span<const cf64> input)
{
    std::size_t max_delay = 0;
    for (const auto& tap : cfg_.taps) max_delay = std::max(max_delay, tap.delay_samples);
    cvec out(input.size() + max_delay, cf64{});
    const double dt = 1.0 / cfg_.sample_rate_hz;
    for (std::size_t t = 0; t < cfg_.taps.size(); ++t) {
        const auto& tap = cfg_.taps[t];
        // Doppler rotation is applied per block start; tap phase also evolves
        // across the block when doppler is nonzero.
        for (std::size_t i = 0; i < input.size(); ++i) {
            const double phase = two_pi * tap.doppler_hz * (time_s_ + static_cast<double>(i) * dt);
            out[i + tap.delay_samples] += input[i] * coefficients_[t] * std::polar(1.0, phase);
        }
    }
    time_s_ += static_cast<double>(input.size()) * dt;
    return out;
}

double multipath_channel::rms_delay_spread_s() const
{
    double total = 0.0;
    double mean = 0.0;
    for (const auto& tap : cfg_.taps) {
        total += tap.power;
        mean += tap.power * static_cast<double>(tap.delay_samples);
    }
    mean /= total;
    double second = 0.0;
    for (const auto& tap : cfg_.taps) {
        const double d = static_cast<double>(tap.delay_samples) - mean;
        second += tap.power * d * d;
    }
    return std::sqrt(second / total) / cfg_.sample_rate_hz;
}

multipath_channel::config indoor_los_profile(double sample_rate_hz, double k_factor_db)
{
    multipath_channel::config cfg;
    cfg.sample_rate_hz = sample_rate_hz;
    cfg.k_factor_db = k_factor_db;
    // Echo delays of ~3 ns and ~7 ns, 15/20 dB down — a short indoor room.
    const auto delay = [&](double seconds) {
        return static_cast<std::size_t>(std::round(seconds * sample_rate_hz));
    };
    cfg.taps = {
        {0, 1.0, 0.0},
        {std::max<std::size_t>(1, delay(3e-9)), from_db(-15.0), 0.0},
        {std::max<std::size_t>(2, delay(7e-9)), from_db(-20.0), 0.0},
    };
    return cfg;
}

} // namespace mmtag::channel
