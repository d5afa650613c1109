#include "mmtag/net/network_supervisor.hpp"

#include <stdexcept>

#include "mmtag/obs/metrics_registry.hpp"

namespace mmtag::net {

network_supervisor::network_supervisor(const supervisor_config& cfg,
                                       std::size_t tag_count)
    : cfg_(cfg)
{
    if (tag_count == 0) {
        throw std::invalid_argument("network_supervisor: no tags");
    }
    sessions_.reserve(tag_count);
    for (std::size_t id = 0; id < tag_count; ++id) {
        sessions_.emplace_back(static_cast<std::uint32_t>(id), cfg.session);
    }
}

const tag_session& network_supervisor::session(std::uint32_t tag_id) const
{
    if (tag_id >= sessions_.size()) {
        throw std::invalid_argument("network_supervisor: unknown tag id");
    }
    return sessions_[tag_id];
}

tag_session& network_supervisor::session_mut(std::uint32_t tag_id)
{
    return const_cast<tag_session&>(session(tag_id));
}

std::size_t network_supervisor::healthy_count() const
{
    std::size_t count = 0;
    for (const auto& s : sessions_) {
        if (s.schedulable()) ++count;
    }
    return count;
}

std::size_t network_supervisor::current_round() const
{
    if (round_ == 0) {
        throw std::logic_error("network_supervisor: record before plan_round");
    }
    return round_ - 1;
}

// Bumps the net/... observability counters for transitions logged since
// `before` (the caller snapshots the log size around each mutation).
void network_supervisor::note_transitions(const tag_session& session,
                                          std::size_t before) const
{
    if (cfg_.metrics == nullptr) return;
    const auto& log = session.transitions();
    for (std::size_t i = before; i < log.size(); ++i) {
        cfg_.metrics->get_counter("net/transitions").add();
        const auto& t = log[i];
        if (t.to == session_state::degraded) {
            cfg_.metrics->get_counter("net/degraded").add();
        } else if (t.to == session_state::quarantined &&
                   t.from == session_state::degraded) {
            cfg_.metrics->get_counter("net/quarantined").add();
        } else if (t.to == session_state::active &&
                   t.from == session_state::probing) {
            cfg_.metrics->get_counter("net/readmitted").add();
            cfg_.metrics
                ->get_histogram("net/readmit_latency_rounds", obs::rounds_bounds())
                .observe(static_cast<double>(
                    session.readmit_latencies_rounds().back()));
        }
    }
}

round_plan network_supervisor::plan_round()
{
    const std::size_t n = sessions_.size();
    round_plan plan;
    plan.round = round_;

    // Probe grants: due quarantined sessions enter PROBING for this round.
    for (auto& s : sessions_) {
        if (!s.probe_due(round_)) continue;
        const std::size_t before = s.transitions().size();
        s.begin_probe(round_);
        note_transitions(s, before);
        plan.probes.push_back(s.tag_id());
    }

    // Budget-conserving reallocation: the same number of data slots every
    // round, dealt round-robin over schedulable sessions starting at a
    // rotating offset so any remainder (and any sub-budget regime) moves
    // across the population instead of pinning to the same tags.
    std::vector<std::size_t> eligible;
    eligible.reserve(n);
    const auto add_schedulable = [&](std::size_t first, std::size_t last) {
        for (std::size_t idx = first; idx < last; ++idx) {
            if (sessions_[idx].schedulable()) eligible.push_back(idx);
        }
    };
    add_schedulable(rotation_, n);
    add_schedulable(0, rotation_);
    if (!eligible.empty()) {
        const std::size_t budget = cfg_.slot_budget != 0 ? cfg_.slot_budget : n;
        const std::size_t base = budget / eligible.size();
        const std::size_t extra = budget % eligible.size();
        plan.shares.reserve(eligible.size());
        for (std::size_t j = 0; j < eligible.size(); ++j) {
            const auto& s = sessions_[eligible[j]];
            const std::size_t slots = base + (j < extra ? 1 : 0);
            if (slots == 0) continue;
            plan.shares.push_back({s.tag_id(), slots});
            if (s.state() == session_state::degraded) {
                plan.robust.push_back(s.tag_id());
            }
        }
    }

    if (cfg_.metrics != nullptr) {
        cfg_.metrics->get_counter("net/rounds").add();
        cfg_.metrics->get_counter("net/probe_slots").add(plan.probes.size());
        cfg_.metrics->get_gauge("net/healthy_tags")
            .set(static_cast<double>(healthy_count()));
    }

    ++round_;
    rotation_ = (rotation_ + 1) % n;
    return plan;
}

bool network_supervisor::record_data(std::uint32_t tag_id, bool delivered)
{
    auto& s = session_mut(tag_id);
    // A session that quarantined on an earlier outcome this round still owns
    // its remaining scheduled slots; the AP discards those outcomes.
    if (!s.schedulable()) {
        (void)current_round(); // still reject record-before-plan
        return false;
    }
    const std::size_t before = s.transitions().size();
    s.record_data(delivered, current_round());
    note_transitions(s, before);
    return true;
}

void network_supervisor::record_probe(std::uint32_t tag_id, bool delivered)
{
    auto& s = session_mut(tag_id);
    const std::size_t before = s.transitions().size();
    s.record_probe(delivered, current_round());
    note_transitions(s, before);
}

} // namespace mmtag::net
