#include "mmtag/fault/multi_tag_faults.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

namespace mmtag::fault {

multi_tag_plan::multi_tag_plan(const multi_tag_config& cfg, std::size_t tag_count,
                               std::size_t faulted_count, std::uint64_t seed)
    : cfg_(cfg),
      tag_count_(tag_count),
      faulted_count_(faulted_count),
      seed_(seed),
      shared_(cfg.horizon_s, {})
{
    if (tag_count == 0) throw std::invalid_argument("multi_tag_plan: no tags");
    if (faulted_count > tag_count) {
        throw std::invalid_argument("multi_tag_plan: faulted_count > tag_count");
    }
    if (cfg.horizon_s <= 0.0) {
        throw std::invalid_argument("multi_tag_plan: horizon must be > 0");
    }
    if (!(cfg.active_fraction > 0.0 && cfg.active_fraction <= 1.0)) {
        throw std::invalid_argument("multi_tag_plan: active_fraction must be in (0, 1]");
    }
    if (cfg.storm_rate_hz < 0.0 || cfg.background_rate_hz < 0.0 ||
        cfg.brownout_period_s < 0.0) {
        throw std::invalid_argument("multi_tag_plan: negative rate or period");
    }
    if (cfg.storm_rate_hz > 0.0 && cfg.storm_span == 0) {
        throw std::invalid_argument("multi_tag_plan: storm_span must be >= 1");
    }

    const double active_end = cfg.horizon_s * cfg.active_fraction;
    std::mt19937_64 rng(seed * 0xA24BAED4963EE407ULL + 0x9FB21C651E98DF25ULL);
    std::uniform_real_distribution<double> unit(0.0, 1.0);

    // Correlated blockage storms: every tag in the covered span receives the
    // identical event, so their sessions see the same onset and depth.
    if (cfg.storm_rate_hz > 0.0 && faulted_count > 0) {
        std::exponential_distribution<double> gap(cfg.storm_rate_hz);
        std::uniform_int_distribution<std::size_t> origin(0, faulted_count - 1);
        double t = gap(rng);
        while (t < active_end) {
            storm drawn;
            drawn.event.kind = fault_kind::blockage;
            drawn.event.start_s = t;
            drawn.event.duration_s = cfg.storm_duration_s;
            drawn.event.magnitude =
                cfg.storm_depth_db_min +
                unit(rng) * (cfg.storm_depth_db_max - cfg.storm_depth_db_min);
            drawn.first_tag = origin(rng);
            storms_.push_back(drawn);
            t += gap(rng);
        }
        std::stable_sort(storms_.begin(), storms_.end(), [](const storm& a, const storm& b) {
            return a.first_tag < b.first_tag;
        });
    }

    // The interferer keeps its absolute start; a horizon that ends first (a
    // soak of a few short rounds) leaves it no frame to overlap, so it is
    // dropped instead of rejected by the schedule.
    std::vector<fault_event> shared_events;
    if (cfg.interferer_duration_s > 0.0 && cfg.interferer_start_s < cfg.horizon_s) {
        fault_event cw;
        cw.kind = fault_kind::interferer;
        cw.start_s = cfg.interferer_start_s;
        cw.duration_s = cfg.interferer_duration_s;
        cw.magnitude = cfg.interferer_rel_db;
        shared_events.push_back(cw);
    }
    shared_ = fault_schedule(cfg.horizon_s, std::move(shared_events));
}

fault_schedule multi_tag_plan::tag_schedule(std::size_t tag) const
{
    if (tag >= tag_count_) throw std::out_of_range("multi_tag_plan: tag out of range");
    if (tag >= faulted_count_) return fault_schedule(cfg_.horizon_s, {});
    const double active_end = cfg_.horizon_s * cfg_.active_fraction;
    std::vector<fault_event> events;

    // The storms whose span [first_tag, first_tag + storm_span) covers the
    // tag. Their order here is irrelevant: normalisation sorts the list.
    const std::size_t lowest_first = tag + 1 > cfg_.storm_span ? tag + 1 - cfg_.storm_span : 0;
    auto it = std::lower_bound(
        storms_.begin(), storms_.end(), lowest_first,
        [](const storm& s, std::size_t first) { return s.first_tag < first; });
    for (; it != storms_.end() && it->first_tag <= tag; ++it) events.push_back(it->event);

    // Rolling brownouts: tag j's harvester dips at j*stagger + k*period.
    if (cfg_.brownout_period_s > 0.0 && cfg_.brownout_duration_s > 0.0) {
        double onset = static_cast<double>(tag) * cfg_.brownout_stagger_s;
        for (; onset < active_end; onset += cfg_.brownout_period_s) {
            fault_event dip;
            dip.kind = fault_kind::brownout;
            dip.start_s = onset;
            dip.duration_s = cfg_.brownout_duration_s;
            events.push_back(dip);
        }
    }

    // Independent background noise: per-tag kinds only, so a background
    // draw never fabricates a shared-channel fault.
    if (cfg_.background_rate_hz > 0.0) {
        fault_schedule::config background;
        background.horizon_s = active_end;
        background.event_rate_hz = cfg_.background_rate_hz;
        background.mean_duration_s = cfg_.background_mean_duration_s;
        background.dropout_weight = 0.0;
        background.lo_step_weight = 0.0;
        background.interferer_weight = 0.0;
        const fault_schedule drawn(background, seed_ * 0x2545F4914F6CDD1DULL + tag + 1);
        events.insert(events.end(), drawn.events().begin(), drawn.events().end());
    }
    return fault_schedule(cfg_.horizon_s, std::move(events));
}

double multi_tag_plan::last_fault_end_s() const
{
    double last_end_s = 0.0;
    for (const auto& event : shared_.events()) last_end_s = std::max(last_end_s, event.end_s());
    for (std::size_t tag = 0; tag < faulted_count_; ++tag) {
        const fault_schedule schedule = tag_schedule(tag);
        for (const auto& event : schedule.events()) {
            last_end_s = std::max(last_end_s, event.end_s());
        }
    }
    return last_end_s;
}

} // namespace mmtag::fault
