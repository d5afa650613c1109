// AP receiver: antenna -> LNA -> self-coherent IQ downconversion -> ADC ->
// self-interference cancellation -> symbol timing -> preamble sync ->
// demodulation -> FEC decode. Produces link metrics alongside the payload.
// The front end copies the capture once and runs every sample stage in that
// one buffer.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "mmtag/common.hpp"
#include "mmtag/ap/canceller.hpp"
#include "mmtag/phy/frame.hpp"
#include "mmtag/rf/adc.hpp"
#include "mmtag/rf/amplifier.hpp"
#include "mmtag/rf/mixer.hpp"
#include "mmtag/rf/noise.hpp"

namespace mmtag::ap {

/// Everything the receiver learned from one capture window.
struct reception {
    bool frame_found = false;
    bool crc_ok = false;
    std::vector<std::uint8_t> payload;
    phy::decoded_header header{};

    double snr_db = -100.0;        ///< data-aided estimate over the sync word
    double evm_db = 0.0;           ///< EVM over the sync word
    double sync_quality = 0.0;     ///< correlation peak-to-sidelobe ratio
    double suppression_db = 0.0;   ///< canceller residual/input power
    double noise_variance = 0.0;   ///< per-symbol noise power after gain norm
    cf64 channel_gain{};           ///< complex end-to-end gain estimate

    cvec symbols;                  ///< normalized symbol stream (diagnostics)
};

/// How the receiver obtains its downconversion LO.
enum class lo_mode {
    /// Mix with the transmitter's own LO stream: unmodulated interference
    /// lands exactly at DC and common phase noise cancels (the mmtag design).
    self_coherent,
    /// Conventional separate synthesizer with its own CFO and phase noise —
    /// the ablation showing why backscatter receivers are built self-coherent.
    independent,
};

class ap_receiver {
public:
    struct config {
        double sample_rate_hz = 2e9;
        std::size_t samples_per_symbol = 400;
        rf::lna::config lna{};
        rf::quadrature_mixer::config mixer{};
        rf::adc::config adc{};
        self_interference_canceller::config canceller{};
        phy::frame_config frame{};
        double min_sync_quality = 2.0;
        /// Fraction of ADC full scale the analog gain targets for the input
        /// RMS (headroom for the modulated signal on top of residual DC).
        double adc_loading = 0.25;

        lo_mode lo = lo_mode::self_coherent;
        /// Independent-LO impairments (ignored in self-coherent mode).
        /// Residual rotation is recovered data-aided from the sync word.
        double independent_cfo_hz = 1e3;
        double independent_linewidth_hz = 100.0;
    };

    ap_receiver(const config& cfg, std::uint64_t seed);

    [[nodiscard]] const config& parameters() const { return cfg_; }

    /// Full receive pipeline over one capture of antenna-plane samples and
    /// the transmitter's LO stream (self-coherent operation).
    [[nodiscard]] reception receive(std::span<const cf64> antenna, std::span<const cf64> lo);

    /// Analog front end + cancellation only: returns the cleaned baseband, a
    /// copy of `antenna` that noise, LNA, mixer, ADC and canceller transform
    /// in place. Exposed for microbenchmarks (R8) and spectrum inspection.
    [[nodiscard]] cvec front_end(std::span<const cf64> antenna, std::span<const cf64> lo,
                                 double* suppression_db = nullptr);

private:
    config cfg_;
    rf::awgn_source antenna_noise_;
    rf::lna lna_;
    rf::quadrature_mixer mixer_;
    rf::adc adc_;
    self_interference_canceller canceller_;
    std::uint64_t lo_seed_ = 0;
    std::uint64_t captures_ = 0;
};

} // namespace mmtag::ap
