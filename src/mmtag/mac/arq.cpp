#include "mmtag/mac/arq.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mmtag/runtime/gaussian_source.hpp"

namespace mmtag::mac {

double arq_stats::delivery_ratio() const
{
    if (frames_offered == 0) return 0.0;
    return static_cast<double>(frames_delivered) / static_cast<double>(frames_offered);
}

stop_and_wait_arq::stop_and_wait_arq(const arq_config& cfg) : cfg_(cfg)
{
    if (cfg.max_retries == 0) throw std::invalid_argument("arq: max_retries must be >= 1");
    if (cfg.frame_time_s <= 0.0 || cfg.ack_time_s < 0.0 ||
        !std::isfinite(cfg.frame_time_s) || !std::isfinite(cfg.ack_time_s)) {
        throw std::invalid_argument("arq: invalid timing");
    }
    if (cfg.initial_backoff_s < 0.0 || cfg.max_backoff_s < 0.0 ||
        !std::isfinite(cfg.initial_backoff_s) || !std::isfinite(cfg.max_backoff_s)) {
        throw std::invalid_argument("arq: backoff times must be finite and >= 0");
    }
    if (!(cfg.backoff_factor >= 1.0) || !std::isfinite(cfg.backoff_factor)) {
        throw std::invalid_argument("arq: backoff_factor must be >= 1");
    }
    if (!(cfg.ack_loss >= 0.0 && cfg.ack_loss <= 1.0)) {
        throw std::invalid_argument("arq: ack_loss must be in [0, 1]");
    }
}

double stop_and_wait_arq::backoff_delay_s(std::size_t attempt) const
{
    if (attempt == 0 || cfg_.initial_backoff_s <= 0.0) return 0.0;
    // pow overflows to inf once the ladder outgrows double range (attempt
    // counters saturate far later than the cap engages); the explicit
    // non-finite check keeps the returned wait finite for *any* attempt
    // index, including SIZE_MAX.
    const double grown =
        cfg_.initial_backoff_s *
        std::pow(cfg_.backoff_factor, static_cast<double>(attempt - 1));
    if (!std::isfinite(grown) || grown > cfg_.max_backoff_s) return cfg_.max_backoff_s;
    return grown;
}

arq_stats stop_and_wait_arq::run(std::size_t frame_count, double frame_success,
                                 std::uint64_t seed) const
{
    if (!(frame_success >= 0.0 && frame_success <= 1.0)) {
        throw std::invalid_argument("arq: frame_success must be in [0, 1]");
    }
    runtime::gaussian_source rng(seed);

    arq_stats stats;
    stats.frames_offered = frame_count;
    for (std::size_t f = 0; f < frame_count; ++f) {
        bool receiver_has_frame = false;
        for (std::size_t attempt = 0; attempt < cfg_.max_retries; ++attempt) {
            const double wait = backoff_delay_s(attempt);
            stats.backoff_wait_s += wait;
            stats.airtime_s += wait + cfg_.frame_time_s + cfg_.ack_time_s;
            ++stats.transmissions;
            if (rng.unit() >= frame_success) continue; // frame corrupted
            if (receiver_has_frame) ++stats.duplicates_discarded;
            else {
                receiver_has_frame = true;
                ++stats.frames_delivered;
            }
            // The sender only stops once it sees the implicit ACK.
            if (cfg_.ack_loss <= 0.0 || rng.unit() >= cfg_.ack_loss) break;
        }
    }
    return stats;
}

} // namespace mmtag::mac
