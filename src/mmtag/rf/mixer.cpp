#include "mmtag/rf/mixer.hpp"

#include <stdexcept>

namespace mmtag::rf {

quadrature_mixer::quadrature_mixer(const config& cfg)
{
    if (cfg.conversion_loss_db < 0.0) {
        throw std::invalid_argument("quadrature_mixer: conversion loss must be >= 0 dB");
    }
    loss_gain_ = std::pow(10.0, -cfg.conversion_loss_db / 20.0);
    leakage_amplitude_ = std::pow(10.0, cfg.lo_leakage_dbc / 20.0);
    const double gain_alpha = std::pow(10.0, cfg.iq_gain_imbalance_db / 20.0);
    const double phase_beta = deg_to_rad(cfg.iq_phase_imbalance_deg);
    balanced_ = gain_alpha == 1.0 && phase_beta == 0.0;
    // Standard imbalance model: y = mu x + nu conj(x).
    mu_ = 0.5 * (1.0 + gain_alpha * std::polar(1.0, phase_beta));
    nu_ = 0.5 * (1.0 - gain_alpha * std::polar(1.0, phase_beta));
}

cf64 quadrature_mixer::apply_iq_imbalance(cf64 x) const
{
    if (balanced_) return x;
    return mu_ * x + nu_ * std::conj(x);
}

cf64 quadrature_mixer::downconvert(cf64 rf, cf64 lo) const
{
    const cf64 mixed = loss_gain_ * rf * std::conj(lo);
    const cf64 leakage = leakage_amplitude_ * std::abs(lo) * cf64{1.0, 0.0};
    return apply_iq_imbalance(mixed + leakage);
}

void quadrature_mixer::downconvert(std::span<cf64> rf, std::span<const cf64> lo) const
{
    if (rf.size() != lo.size()) {
        throw std::invalid_argument("quadrature_mixer: rf/lo length mismatch");
    }
    for (std::size_t i = 0; i < rf.size(); ++i) rf[i] = downconvert(rf[i], lo[i]);
}

} // namespace mmtag::rf
