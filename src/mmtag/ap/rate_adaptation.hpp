// SNR-driven rate adaptation: choose the densest (modulation, FEC) pair whose
// decoding threshold clears the measured SNR with margin.
#pragma once

#include <span>
#include <vector>

#include "mmtag/common.hpp"
#include "mmtag/phy/frame.hpp"

namespace mmtag::ap {

struct rate_option {
    phy::modulation scheme = phy::modulation::bpsk;
    phy::fec_mode fec = phy::fec_mode::conv_half;
    /// Minimum per-symbol SNR [dB] for quasi-error-free operation
    /// (BER <~ 1e-5 after decoding).
    double required_snr_db = 0.0;
    [[nodiscard]] double efficiency() const;
};

/// The mmtag rate ladder, ordered by increasing spectral efficiency.
/// Thresholds derive from theoretical M-PSK BER at 1e-5 minus measured
/// convolutional coding gain.
[[nodiscard]] const std::vector<rate_option>& rate_table();

class rate_adapter {
public:
    /// `margin_db` backs every threshold off for channel estimation error.
    explicit rate_adapter(double margin_db = 2.0);

    /// Index into rate_table() of the densest option decodable at `snr_db`;
    /// 0 (the most robust option) when even the bottom of the ladder is out
    /// of reach (caller may still fail).
    [[nodiscard]] std::size_t select_index(double snr_db) const;

    /// rate_table()[select_index(snr_db)].
    [[nodiscard]] rate_option select(double snr_db) const;

    /// Smoothed selection: exponential SNR averaging across calls to avoid
    /// flapping on noisy estimates.
    [[nodiscard]] rate_option select_smoothed(double snr_db);

    [[nodiscard]] double smoothed_snr_db() const { return smoothed_snr_db_; }

private:
    double margin_db_;
    double smoothed_snr_db_ = 0.0;
    bool primed_ = false;
};

} // namespace mmtag::ap
