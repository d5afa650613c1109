// SNR-driven rate adaptation: choose the densest (modulation, FEC) pair whose
// decoding threshold clears the measured SNR with margin. Every layer names a
// rate by its rung (index) on the one ordered ladder, rate_table().
#pragma once

#include <cstddef>
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

/// The robust rung (bottom of the ladder): outage probes, degraded sessions, the floor.
inline constexpr std::size_t robust_rung = 0;

/// Payload of an outage probe: a short frame at the robust rung whose CRC
/// pass proves the link usable without a full data frame's airtime.
inline constexpr std::size_t probe_payload_bytes = 4;

class rate_adapter {
public:
    /// `margin_db` backs every threshold off for channel estimation error.
    explicit rate_adapter(double margin_db = 2.0);

    /// Rung of the densest option decodable at `snr_db`; robust_rung when
    /// even the bottom of the ladder is out of reach (caller may still fail).
    [[nodiscard]] std::size_t select_index(double snr_db) const;

    /// Smoothed selection: the rung for an exponential SNR average across
    /// calls, which avoids flapping on noisy estimates.
    [[nodiscard]] std::size_t select_smoothed(double snr_db);

    [[nodiscard]] double smoothed_snr_db() const { return smoothed_snr_db_; }

private:
    double margin_db_;
    double smoothed_snr_db_ = 0.0;
    bool primed_ = false;
};

} // namespace mmtag::ap
