// Quadrature mixer model: ideal complex multiply plus the practical
// impairments that matter at mmWave — conversion loss, LO leakage (the DC
// offset the canceller must handle), and I/Q gain & phase imbalance. The
// buffer operation downconverts the caller's samples in place.
#pragma once

#include <span>

#include "mmtag/common.hpp"

namespace mmtag::rf {

class quadrature_mixer {
public:
    struct config {
        double conversion_loss_db = 7.0;  ///< typical passive mmWave mixer
        double lo_leakage_dbc = -60.0;    ///< LO-to-IF leakage vs LO drive
        double iq_gain_imbalance_db = 0.0;
        double iq_phase_imbalance_deg = 0.0;
    };

    explicit quadrature_mixer(const config& cfg);

    /// Downconverts: output = rf * conj(lo) with impairments applied.
    [[nodiscard]] cf64 downconvert(cf64 rf, cf64 lo) const;

    /// Downconverts a buffer in place: rf[i] becomes downconvert(rf[i], lo[i]).
    void downconvert(std::span<cf64> rf, std::span<const cf64> lo) const;

private:
    [[nodiscard]] cf64 apply_iq_imbalance(cf64 x) const;

    double loss_gain_;
    double leakage_amplitude_;
    bool balanced_; // no I/Q imbalance: mu = 1, nu = 0
    cf64 mu_;       // I/Q imbalance: y = mu x + nu conj(x)
    cf64 nu_;
};

} // namespace mmtag::rf
