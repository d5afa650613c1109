#include "mmtag/channel/blockage.hpp"

#include <algorithm>
#include <stdexcept>

namespace mmtag::channel {

blockage_process::blockage_process(const config& cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed)
{
    if (cfg.sample_rate_hz <= 0.0) throw std::invalid_argument("blockage: fs <= 0");
    if (cfg.mean_clear_s <= 0.0 || cfg.mean_blocked_s <= 0.0) {
        throw std::invalid_argument("blockage: dwell times must be > 0");
    }
    if (cfg.blockage_loss_db < 0.0) throw std::invalid_argument("blockage: negative loss");
    if (cfg.transition_s <= 0.0) throw std::invalid_argument("blockage: transition <= 0");
    blocked_amplitude_ = std::pow(10.0, -cfg.blockage_loss_db / 20.0);
    slew_per_sample_ =
        (1.0 - blocked_amplitude_) / (cfg.transition_s * cfg.sample_rate_hz);
    schedule_next();
}

void blockage_process::schedule_next()
{
    const double mean = blocked_ ? cfg_.mean_blocked_s : cfg_.mean_clear_s;
    next_toggle_s_ = time_s_ + rng_.exponential(1.0 / mean);
}

double blockage_process::step()
{
    if (time_s_ >= next_toggle_s_) {
        blocked_ = !blocked_;
        schedule_next();
    }
    const double target = blocked_ ? blocked_amplitude_ : 1.0;
    if (level_ < target) level_ = std::min(target, level_ + slew_per_sample_);
    else if (level_ > target) level_ = std::max(target, level_ - slew_per_sample_);
    time_s_ += 1.0 / cfg_.sample_rate_hz;
    return level_;
}

} // namespace mmtag::channel
