#include "mmtag/dsp/timing_recovery.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace mmtag::dsp {

std::size_t best_symbol_offset(std::span<const cf64> samples, std::size_t samples_per_symbol)
{
    if (samples_per_symbol == 0) {
        throw std::invalid_argument("best_symbol_offset: samples_per_symbol must be >= 1");
    }
    // One pass over the symbol periods scores every offset: offset o's
    // symbol j is samples [o + j sps, o + (j + 1) sps), summed in sample
    // order into o's own accumulator, then its energy is added in symbol
    // order, exactly as integrate_and_dump followed by a sum would.
    const std::size_t sps = samples_per_symbol;
    const double scale = static_cast<double>(sps);
    struct offset_score {
        cf64 symbol{};
        double energy = 0.0;
    };
    std::vector<offset_score> scores(sps);
    for (std::size_t start = 0; start + sps <= samples.size(); start += sps) {
        // Offsets whose symbol at this period still fits in the capture.
        const std::size_t offsets = std::min(sps, samples.size() - start - sps + 1);
        const cf64* window = samples.data() + start;
        for (std::size_t k = 0; k < sps; ++k) {
            for (std::size_t o = 0; o < offsets; ++o) scores[o].symbol += window[k + o];
        }
        for (std::size_t o = 0; o < offsets; ++o) {
            scores[o].energy += std::norm(scores[o].symbol / scale);
            scores[o].symbol = cf64{};
        }
    }
    std::size_t best = 0;
    double best_metric = -1.0;
    for (std::size_t offset = 0; offset < sps; ++offset) {
        double energy = scores[offset].energy;
        const std::size_t symbols =
            offset < samples.size() ? (samples.size() - offset) / sps : 0;
        if (symbols != 0) energy /= static_cast<double>(symbols);
        if (energy > best_metric) {
            best_metric = energy;
            best = offset;
        }
    }
    return best;
}

} // namespace mmtag::dsp
