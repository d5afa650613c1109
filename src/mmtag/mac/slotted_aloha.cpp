#include "mmtag/mac/slotted_aloha.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mmtag/runtime/gaussian_source.hpp"

namespace mmtag::mac {

double inventory_stats::efficiency() const
{
    if (slots_used == 0) return 0.0;
    return static_cast<double>(tags_identified) / static_cast<double>(slots_used);
}

aloha_inventory::aloha_inventory(const aloha_config& cfg) : cfg_(cfg)
{
    if (cfg.max_q > 15 || cfg.min_q > cfg.max_q || cfg.initial_q < cfg.min_q ||
        cfg.initial_q > cfg.max_q) {
        throw std::invalid_argument("aloha_inventory: inconsistent Q bounds");
    }
    if (!(cfg.singleton_success > 0.0 && cfg.singleton_success <= 1.0)) {
        throw std::invalid_argument("aloha_inventory: singleton_success must be in (0, 1]");
    }
    if (cfg.q_step <= 0.0) throw std::invalid_argument("aloha_inventory: q_step must be > 0");
}

inventory_stats aloha_inventory::run(std::size_t tag_count, std::uint64_t seed) const
{
    inventory_stats stats;
    stats.tags_total = tag_count;
    if (tag_count == 0) return stats;

    runtime::gaussian_source rng(seed);

    std::size_t remaining = tag_count;
    double q_float = static_cast<double>(cfg_.initial_q);

    for (std::size_t round = 0; round < cfg_.max_rounds && remaining > 0; ++round) {
        ++stats.rounds;
        const auto q = static_cast<unsigned>(std::lround(q_float));
        const std::size_t slot_count = std::size_t{1} << std::clamp(q, cfg_.min_q, cfg_.max_q);

        // Occupancy: each unidentified tag draws a slot uniformly.
        std::vector<std::size_t> occupancy(slot_count, 0);
        for (std::size_t t = 0; t < remaining; ++t) ++occupancy[rng.below(slot_count)];

        for (std::size_t occupants : occupancy) {
            ++stats.slots_used;
            if (occupants == 0) {
                ++stats.idle_slots;
                q_float = std::max(q_float - cfg_.q_step,
                                   static_cast<double>(cfg_.min_q));
            } else if (occupants == 1) {
                ++stats.singleton_slots;
                if (rng.unit() < cfg_.singleton_success) {
                    ++stats.tags_identified;
                    --remaining;
                }
            } else {
                ++stats.collision_slots;
                q_float = std::min(q_float + cfg_.q_step,
                                   static_cast<double>(cfg_.max_q));
            }
        }
    }
    return stats;
}

double aloha_inventory::theoretical_peak_efficiency(std::size_t tag_count)
{
    if (tag_count == 0) return 0.0;
    if (tag_count == 1) return 1.0;
    const double n = static_cast<double>(tag_count);
    return std::pow(1.0 - 1.0 / n, n - 1.0);
}

} // namespace mmtag::mac
