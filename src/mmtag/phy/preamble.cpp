#include "mmtag/phy/preamble.hpp"

#include <array>
#include <mutex>
#include <stdexcept>

#include "mmtag/dsp/pn_sequence.hpp"

namespace mmtag::phy {

namespace {

/// A sync word as complex symbols and as the real chips that correlate
/// against it.
struct sync_reference {
    cvec symbols;
    rvec chips;
};

/// The sync word for `degree`, built on first use and shared after.
const sync_reference& reference_for(std::size_t degree)
{
    constexpr std::size_t max_degree = 16;
    static std::array<std::once_flag, max_degree + 1> built;
    static std::array<sync_reference, max_degree + 1> table;
    if (degree < 3 || degree > max_degree) {
        throw std::invalid_argument("preamble: sync_degree must be in 3..16");
    }
    std::call_once(built[degree], [degree] {
        const auto bits = dsp::m_sequence(static_cast<std::uint32_t>(degree));
        auto& entry = table[degree];
        entry.symbols = dsp::bits_to_bpsk(bits);
        entry.chips.reserve(entry.symbols.size());
        for (const cf64 chip : entry.symbols) entry.chips.push_back(chip.real());
    });
    return table[degree];
}

} // namespace

cvec make_preamble(const preamble_layout& layout)
{
    cvec symbols;
    symbols.reserve(layout.total_symbols());
    for (std::size_t i = 0; i < layout.agc_symbols; ++i) {
        symbols.emplace_back(i % 2 == 0 ? 1.0 : -1.0, 0.0);
    }
    const cvec& sync = sync_word(layout);
    symbols.insert(symbols.end(), sync.begin(), sync.end());
    return symbols;
}

const cvec& sync_word(const preamble_layout& layout)
{
    return reference_for(layout.sync_degree).symbols;
}

std::optional<sync_result> detect_preamble(std::span<const cf64> symbols,
                                           const preamble_layout& layout,
                                           double min_peak_to_sidelobe)
{
    const sync_reference& sync = reference_for(layout.sync_degree);
    const cvec& reference = sync.symbols;
    if (symbols.size() < reference.size()) return std::nullopt;
    const rvec correlation = dsp::correlate_magnitude(symbols, sync.chips);
    double quality = 0.0;
    const std::size_t sync_start = dsp::correlation_peak(correlation, &quality);
    if (quality < min_peak_to_sidelobe) return std::nullopt;

    // Complex gain over the sync word: least squares against the reference.
    cf64 cross{};
    double reference_power = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
        cross += symbols[sync_start + i] * std::conj(reference[i]);
        reference_power += std::norm(reference[i]);
    }
    sync_result result;
    result.frame_start = sync_start + reference.size();
    result.peak_to_sidelobe = quality;
    result.channel_gain = cross / reference_power;
    return result;
}

} // namespace mmtag::phy
