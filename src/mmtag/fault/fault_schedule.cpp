#include "mmtag/fault/fault_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mmtag/runtime/gaussian_source.hpp"

namespace mmtag::fault {

const char* fault_kind_name(fault_kind kind)
{
    switch (kind) {
    case fault_kind::blockage: return "blockage";
    case fault_kind::carrier_dropout: return "carrier_dropout";
    case fault_kind::lo_step: return "lo_step";
    case fault_kind::interferer: return "interferer";
    case fault_kind::brownout: return "brownout";
    }
    return "unknown";
}

fault_schedule::fault_schedule(const config& cfg, std::uint64_t seed)
    : cfg_(cfg), seed_(seed)
{
    if (cfg.horizon_s <= 0.0) {
        throw std::invalid_argument("fault_schedule: horizon must be > 0");
    }
    if (cfg.event_rate_hz < 0.0) {
        throw std::invalid_argument("fault_schedule: event rate must be >= 0");
    }
    if (cfg.min_duration_s <= 0.0 || cfg.max_duration_s < cfg.min_duration_s) {
        throw std::invalid_argument("fault_schedule: invalid duration bounds");
    }
    const double weights[] = {cfg.blockage_weight, cfg.dropout_weight,
                              cfg.lo_step_weight, cfg.interferer_weight,
                              cfg.brownout_weight};
    double total_weight = 0.0;
    int last_kind = 0; // the last kind with a positive weight
    for (int k = 0; k < 5; ++k) {
        if (weights[k] < 0.0) throw std::invalid_argument("fault_schedule: negative weight");
        total_weight += weights[k];
        if (weights[k] > 0.0) last_kind = k;
    }
    if (cfg.event_rate_hz == 0.0) return;
    if (total_weight <= 0.0) {
        throw std::invalid_argument("fault_schedule: all kinds disabled");
    }

    runtime::gaussian_source rng(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
    double t = rng.exponential(cfg.event_rate_hz);
    while (t < cfg.horizon_s) {
        // Walk the cumulative weights: a zero-weight kind is never picked,
        // and a product rounded up to the total lands on the last one.
        double pick = rng.unit() * total_weight;
        int kind = 0;
        while (kind < last_kind && pick >= weights[kind]) pick -= weights[kind++];
        fault_event event;
        event.kind = static_cast<fault_kind>(kind);
        event.start_s = t;
        event.duration_s = std::clamp(rng.exponential(1.0 / cfg.mean_duration_s),
                                      cfg.min_duration_s, cfg.max_duration_s);
        switch (event.kind) {
        case fault_kind::blockage:
            event.magnitude = rng.uniform(cfg.blockage_depth_db_min, cfg.blockage_depth_db_max);
            break;
        case fault_kind::carrier_dropout:
            event.magnitude = cfg.dropout_depth_db;
            break;
        case fault_kind::lo_step:
            event.magnitude = rng.uniform(cfg.lo_step_hz_min, cfg.lo_step_hz_max);
            break;
        case fault_kind::interferer:
            event.magnitude = rng.uniform(cfg.interferer_db_min, cfg.interferer_db_max);
            break;
        case fault_kind::brownout:
            event.magnitude = 0.0;
            break;
        }
        events_.push_back(event);
        t += rng.exponential(cfg.event_rate_hz);
    }
}

fault_schedule::fault_schedule(double horizon_s, std::vector<fault_event> events)
    : seed_(0), events_(normalize(std::move(events)))
{
    if (horizon_s <= 0.0) {
        throw std::invalid_argument("fault_schedule: horizon must be > 0");
    }
    cfg_ = config{};
    cfg_.horizon_s = horizon_s;
    cfg_.event_rate_hz = 0.0; // nothing was generated; the list is the truth
    for (const auto& event : events_) {
        if (event.start_s >= horizon_s) {
            throw std::invalid_argument("fault_schedule: event starts beyond horizon");
        }
    }
}

std::vector<fault_event> fault_schedule::normalize(std::vector<fault_event> events)
{
    for (const auto& event : events) {
        if (!std::isfinite(event.start_s) || !std::isfinite(event.duration_s) ||
            !std::isfinite(event.magnitude)) {
            throw std::invalid_argument("fault_schedule: non-finite event field");
        }
        if (event.start_s < 0.0 || event.duration_s < 0.0) {
            throw std::invalid_argument("fault_schedule: negative event time");
        }
    }
    // Zero-duration bounded events are no-ops by construction (overlaps()
    // uses half-open windows); drop them rather than carry dead weight.
    // Zero-duration lo_steps stay: the step itself is the fault.
    std::erase_if(events, [](const fault_event& e) {
        return e.duration_s <= 0.0 && e.kind != fault_kind::lo_step;
    });
    std::sort(events.begin(), events.end(), [](const fault_event& a, const fault_event& b) {
        if (a.start_s != b.start_s) return a.start_s < b.start_s;
        if (a.kind != b.kind) return a.kind < b.kind;
        if (a.duration_s != b.duration_s) return a.duration_s < b.duration_s;
        return a.magnitude < b.magnitude;
    });
    // Merge rule for same-kind overlap (and touching intervals): union the
    // window, keep the deepest magnitude — exactly what the injector's
    // deepest-event-wins aggregation would report anyway, so merged and
    // unmerged schedules impair identically.
    std::vector<fault_event> merged;
    merged.reserve(events.size());
    for (const auto& event : events) {
        fault_event* prior = nullptr;
        if (event.kind != fault_kind::lo_step) {
            for (auto it = merged.rbegin(); it != merged.rend(); ++it) {
                if (it->kind != event.kind) continue;
                if (it->end_s() >= event.start_s) prior = &*it;
                break;
            }
        }
        if (prior != nullptr) {
            prior->duration_s = std::max(prior->end_s(), event.end_s()) - prior->start_s;
            prior->magnitude = std::max(prior->magnitude, event.magnitude);
        } else {
            merged.push_back(event);
        }
    }
    return merged;
}

std::size_t fault_schedule::count(fault_kind kind) const
{
    return static_cast<std::size_t>(
        std::count_if(events_.begin(), events_.end(),
                      [kind](const fault_event& e) { return e.kind == kind; }));
}

} // namespace mmtag::fault
