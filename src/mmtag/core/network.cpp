#include "mmtag/core/network.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "mmtag/core/link_budget.hpp"
#include "mmtag/core/metrics.hpp"

namespace mmtag::core {

std::vector<tag_descriptor> uniform_population(std::size_t count, double min_range_m,
                                               double max_range_m, std::uint64_t seed)
{
    if (count == 0) throw std::invalid_argument("uniform_population: count must be >= 1");
    if (!(min_range_m > 0.0) || !(max_range_m >= min_range_m)) {
        throw std::invalid_argument("uniform_population: invalid range bounds");
    }
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> range_dist(min_range_m, max_range_m);
    std::uniform_real_distribution<double> angle_dist(-35.0, 35.0);
    std::vector<tag_descriptor> tags;
    tags.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        tags.push_back({static_cast<std::uint32_t>(i), range_dist(rng),
                        deg_to_rad(angle_dist(rng))});
    }
    return tags;
}

network::network(const system_config& base, std::vector<tag_descriptor> tags)
    : base_(base), tags_(std::move(tags))
{
    validate(base_);
    if (tags_.empty()) throw std::invalid_argument("network: no tags");
}

std::vector<tag_link_state> network::evaluate_links(std::size_t frame_payload_bytes) const
{
    std::vector<tag_link_state> links;
    links.reserve(tags_.size());
    const ap::rate_adapter adapter(2.0);

    for (const auto& tag : tags_) {
        system_config cfg = base_;
        cfg.distance_m = tag.distance_m;
        cfg.tag_incidence_rad = tag.incidence_rad;
        const link_budget budget(cfg);
        const link_budget_entry entry = budget.at(tag.distance_m);

        tag_link_state state;
        state.tag = tag;
        state.snr_db = entry.snr_db;
        state.rate = ap::rate_table()[adapter.select_index(entry.snr_db)];

        // Residual BER at the operating point: uncoded theory at the SNR
        // surplus over the option's threshold keeps the model conservative.
        const double eff = state.rate.efficiency();
        const double ebn0_db = entry.snr_db - to_db(std::max(eff, 1e-3));
        const double ber = phy::theoretical_ber(state.rate.scheme, ebn0_db);
        const std::size_t frame_bits = (frame_payload_bytes + 4) * 8;
        state.frame_success =
            entry.snr_db >= state.rate.required_snr_db
                ? 1.0 - per_from_ber(std::min(ber, 0.5), frame_bits)
                : 0.0;
        links.push_back(state);
    }
    return links;
}

network_report network::run(std::uint64_t seed, std::size_t frame_payload_bytes) const
{
    network_report report;
    report.links = evaluate_links(frame_payload_bytes);

    double success_sum = 0.0;
    report.min_snr_db = report.links.front().snr_db;
    report.max_snr_db = report.links.front().snr_db;
    for (const auto& link : report.links) {
        success_sum += link.frame_success;
        report.min_snr_db = std::min(report.min_snr_db, link.snr_db);
        report.max_snr_db = std::max(report.max_snr_db, link.snr_db);
    }
    const double mean_success = success_sum / static_cast<double>(report.links.size());

    // Inventory with the population's mean singleton success.
    mac::aloha_config aloha_cfg;
    aloha_cfg.singleton_success = std::clamp(mean_success, 0.01, 1.0);
    const mac::aloha_inventory inventory(aloha_cfg);
    report.inventory = inventory.run(tags_.size(), seed);

    // Steady-state TDMA at the population's median rate.
    std::vector<double> rates;
    rates.reserve(report.links.size());
    for (const auto& link : report.links) {
        rates.push_back(link.rate.efficiency() * base_.symbol_rate_hz);
    }
    std::nth_element(rates.begin(), rates.begin() + rates.size() / 2, rates.end());
    const double median_rate = rates[rates.size() / 2];

    mac::tdma_config tdma_cfg;
    tdma_cfg.frame_payload_bytes = frame_payload_bytes;
    tdma_cfg.phy_rate_bps = std::max(median_rate, 1.0);
    const mac::tdma_scheduler scheduler(tdma_cfg);
    report.tdma = scheduler.metrics(tags_.size());

    // Aggregate goodput: slot goodput weighted by each tag's delivery rate.
    double aggregate = 0.0;
    for (auto& link : report.links) {
        link.goodput_bps = report.tdma.per_tag_goodput_bps * link.frame_success;
        aggregate += link.goodput_bps;
    }
    report.aggregate_goodput_bps = aggregate;
    return report;
}

} // namespace mmtag::core
