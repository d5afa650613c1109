// Frame preamble: an AGC settling ramp of alternating BPSK symbols followed
// by a 63-chip m-sequence sync word. The sync word's sharp autocorrelation
// gives burst timing; its known symbols double as pilots for carrier phase.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "mmtag/common.hpp"

namespace mmtag::phy {

struct preamble_layout {
    std::size_t agc_symbols = 16;  ///< alternating +1/-1 warm-up
    /// m-sequence degree (sync length 2^deg - 1). 127 chips keep the
    /// peak-to-sidelobe ratio comfortably above the quality gate even when
    /// the payload is BPSK (statistically similar to the sync word).
    std::size_t sync_degree = 7;

    [[nodiscard]] std::size_t sync_symbols() const { return (std::size_t{1} << sync_degree) - 1; }
    [[nodiscard]] std::size_t total_symbols() const { return agc_symbols + sync_symbols(); }
};

/// BPSK preamble symbols for the layout.
[[nodiscard]] cvec make_preamble(const preamble_layout& layout = {});

/// Just the sync-word symbols (the correlation reference). Each degree's
/// word is built once and shared; the reference stays valid for the program.
[[nodiscard]] const cvec& sync_word(const preamble_layout& layout = {});

struct sync_result {
    std::size_t frame_start = 0; ///< first symbol index after the sync word
    double peak_to_sidelobe = 0.0;
    cf64 channel_gain{};         ///< complex gain estimated over the sync word
};

/// Locates the sync word in a symbol-rate stream. Returns std::nullopt when
/// the best correlation peak fails the `min_peak_to_sidelobe` quality gate.
[[nodiscard]] std::optional<sync_result> detect_preamble(std::span<const cf64> symbols,
                                                         const preamble_layout& layout = {},
                                                         double min_peak_to_sidelobe = 2.0);

} // namespace mmtag::phy
