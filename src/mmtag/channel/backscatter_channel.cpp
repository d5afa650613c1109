#include "mmtag/channel/backscatter_channel.hpp"

#include <algorithm>
#include <stdexcept>

#include "mmtag/channel/atmosphere.hpp"
#include "mmtag/channel/fading.hpp"
#include "mmtag/channel/path_loss.hpp"

namespace mmtag::channel {

backscatter_channel::tag_path::tag_path(const config& cfg)
    : frequency_hz_(cfg.frequency_hz),
      tx_gain_(from_db(cfg.ap_tx_gain_dbi)),
      rx_gain_(from_db(cfg.ap_rx_gain_dbi)),
      backscatter_gain_(from_db(cfg.tag_backscatter_gain_db)),
      aperture_gain_(from_db(cfg.tag_aperture_gain_db)),
      atmospheric_db_per_km_(
          atmospheric_loss_db(1000.0, cfg.frequency_hz, cfg.rain_rate_mm_per_hr)),
      implementation_(std::pow(10.0, -cfg.implementation_loss_db / 20.0))
{
    if (cfg.implementation_loss_db < 0.0) {
        throw std::invalid_argument("backscatter_channel: negative implementation loss");
    }
}

backscatter_channel::tag_path::amplitudes
backscatter_channel::tag_path::at(double distance_m) const
{
    if (distance_m <= 0.0) throw std::invalid_argument("backscatter_channel: distance <= 0");
    // atmospheric_loss_db(d, f, rain) is d [km] times the loss over one km.
    const double atmospheric = from_db(-(distance_m / 1000.0 * atmospheric_db_per_km_));
    const double round_trip_power = backscatter_received_power(
        1.0, tx_gain_, rx_gain_, backscatter_gain_, distance_m, frequency_hz_);
    const double one_way_power =
        one_way_received_power(1.0, tx_gain_, aperture_gain_, distance_m, frequency_hz_);
    amplitudes out;
    // Two-way gaseous loss; implementation loss budgeted once on the tag path.
    out.round_trip = std::sqrt(round_trip_power) * atmospheric * implementation_;
    out.one_way = std::sqrt(one_way_power * atmospheric) * std::sqrt(implementation_);
    return out;
}

backscatter_channel::backscatter_channel(const config& cfg) : cfg_(cfg)
{
    if (cfg.sample_rate_hz <= 0.0) throw std::invalid_argument("backscatter_channel: fs <= 0");
    if (cfg.distance_m <= 0.0) throw std::invalid_argument("backscatter_channel: distance <= 0");

    const double one_way_seconds = cfg.distance_m / speed_of_light;
    one_way_delay_ = static_cast<std::size_t>(std::round(one_way_seconds * cfg.sample_rate_hz));
    round_trip_delay_ = 2 * one_way_delay_;

    const auto path = tag_path(cfg).at(cfg.distance_m);
    round_trip_amplitude_ = path.round_trip;
    one_way_amplitude_ = path.one_way;

    leakage_amplitude_ = std::pow(10.0, cfg.tx_leakage_db / 20.0);

    redraw_fading(cfg.fading_seed);

    const double tx_gain = from_db(cfg.ap_tx_gain_dbi);
    const double rx_gain = from_db(cfg.ap_rx_gain_dbi);
    for (const auto& reflector : cfg.clutter) {
        if (reflector.distance_m <= 0.0 || reflector.rcs_m2 <= 0.0) {
            throw std::invalid_argument("backscatter_channel: invalid clutter entry");
        }
        const double lambda = wavelength(cfg.frequency_hz);
        // Radar equation for a point scatterer of RCS sigma, knocked down by
        // the AP's sidelobe discrimination toward it.
        const double power = tx_gain * rx_gain * lambda * lambda * reflector.rcs_m2 *
                             from_db(-reflector.antenna_discrimination_db) /
                             (std::pow(4.0 * pi, 3.0) * std::pow(reflector.distance_m, 4.0));
        clutter_amplitudes_.push_back(std::sqrt(power));
        const double delay_seconds = 2.0 * reflector.distance_m / speed_of_light;
        clutter_delays_.push_back(
            static_cast<std::size_t>(std::round(delay_seconds * cfg.sample_rate_hz)));
    }
}

void backscatter_channel::redraw_fading(std::uint64_t seed)
{
    if (cfg_.rician_k_db >= 80.0) {
        fading_ = cf64{1.0, 0.0}; // effectively pure LOS
        return;
    }
    runtime::gaussian_source gaussian(seed);
    fading_ = rician_coefficient(cfg_.rician_k_db, gaussian);
}

cvec backscatter_channel::incident_at_tag(std::span<const cf64> tx) const
{
    cvec out(tx.size(), cf64{});
    for (std::size_t k = one_way_delay_; k < tx.size(); ++k) {
        out[k] = one_way_amplitude_ * tx[k - one_way_delay_];
    }
    return out;
}

cvec backscatter_channel::ap_received(std::span<const cf64> tx,
                                      std::span<const cf64> tag_gamma) const
{
    if (tag_gamma.empty()) {
        throw std::invalid_argument("backscatter_channel: empty tag reflection waveform");
    }
    cvec out(tx.size(), cf64{});

    // Direct TX -> RX leakage (zero delay at these scales).
    for (std::size_t k = 0; k < tx.size(); ++k) out[k] = leakage_amplitude_ * tx[k];

    // Static clutter returns.
    for (std::size_t c = 0; c < clutter_delays_.size(); ++c) {
        const std::size_t delay = clutter_delays_[c];
        const double amplitude = clutter_amplitudes_[c];
        for (std::size_t k = delay; k < tx.size(); ++k) {
            out[k] += amplitude * tx[k - delay];
        }
    }

    // The tag path: TX sample (k - d_rt) bounced off reflection state at tag
    // time (k - d1); indices outside the provided waveform clamp.
    const auto gamma_at = [&](std::size_t index) {
        if (index >= tag_gamma.size()) return tag_gamma.back();
        return tag_gamma[index];
    };
    const cf64 tag_gain = round_trip_amplitude_ * fading_;
    for (std::size_t k = round_trip_delay_; k < tx.size(); ++k) {
        const cf64 gamma = gamma_at(k - one_way_delay_);
        out[k] += tag_gain * gamma * tx[k - round_trip_delay_];
    }
    return out;
}

void backscatter_channel::add_tag_burst(std::span<cf64> antenna, std::span<const cf64> tx,
                                        std::span<const cf64> burst, std::size_t start,
                                        double scale) const
{
    if (antenna.size() != tx.size()) {
        throw std::invalid_argument("backscatter_channel: antenna/tx length mismatch");
    }
    // Tag time j reaches the AP at k = j + d1 and reflects TX sample k - d_rt.
    const std::size_t first = std::max(start + one_way_delay_, round_trip_delay_);
    const std::size_t end = std::min(start + burst.size() + one_way_delay_, tx.size());
    const cf64 tag_gain = round_trip_amplitude_ * fading_;
    for (std::size_t k = first; k < end; ++k) {
        const cf64 gamma = burst[k - one_way_delay_ - start] * scale;
        antenna[k] += tag_gain * gamma * tx[k - round_trip_delay_];
    }
}

double backscatter_channel::static_interference_power(double tx_power_w) const
{
    if (tx_power_w <= 0.0) throw std::invalid_argument("backscatter_channel: tx power <= 0");
    double power = leakage_amplitude_ * leakage_amplitude_;
    for (double a : clutter_amplitudes_) power += a * a;
    return tx_power_w * power;
}

} // namespace mmtag::channel
