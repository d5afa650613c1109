// Analytic link budget for the backscatter uplink — the closed-form
// prediction every simulated result is cross-checked against.
#pragma once

#include <cmath>
#include <stdexcept>

#include "mmtag/common.hpp"
#include "mmtag/core/config.hpp"

namespace mmtag::core {

struct link_budget_entry {
    double distance_m = 0.0;
    double incident_at_tag_dbm = 0.0;  ///< power collected by the tag aperture
    double received_at_ap_dbm = 0.0;   ///< tag-path power back at the AP
    double noise_floor_dbm = 0.0;      ///< kTB * NF in the symbol bandwidth
    double snr_db = 0.0;               ///< per-symbol SNR prediction
    double static_interference_dbm = 0.0;
};

class link_budget {
public:
    explicit link_budget(const system_config& cfg);

    /// Budget at one distance (other parameters from the system config).
    [[nodiscard]] link_budget_entry at(double distance_m) const;

    /// received_at_ap_dbm of at(distance_m) in watts, in closed form:
    /// k * exp(-beta * d) / d^4, the d^-4 round-trip spreading times the
    /// two-way atmospheric loss, with k and beta folded at construction from
    /// at(1 m) and the one-way dB/km. Agrees with the dB path to ~1e-14
    /// relative at a fraction of the cost, for loops that sum powers.
    [[nodiscard]] double received_at_ap_w(double distance_m) const
    {
        if (distance_m <= 0.0) throw std::invalid_argument("link_budget: distance <= 0");
        const double d2 = distance_m * distance_m;
        return received_k_w_ * std::exp(-received_beta_per_m_ * distance_m) / (d2 * d2);
    }

    /// Sweep over [start, stop] with `points` samples.
    [[nodiscard]] std::vector<link_budget_entry> sweep(double start_m, double stop_m,
                                                       std::size_t points) const;

    /// Maximum range at which predicted SNR clears `required_snr_db`.
    [[nodiscard]] double max_range_m(double required_snr_db) const;

private:
    // Everything but the distance, folded once at construction.
    channel::backscatter_channel::tag_path path_;
    double tx_power_w_ = 0.0;
    double fading_power_ = 1.0;
    double gamma_loss_db_ = 0.0;
    double noise_floor_dbm_ = 0.0;
    double static_interference_dbm_ = 0.0;
    double received_k_w_ = 0.0;         ///< received_at_ap_w's k [W m^4]
    double received_beta_per_m_ = 0.0;  ///< received_at_ap_w's beta [1/m]
};

} // namespace mmtag::core
