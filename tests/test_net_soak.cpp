// Network supervisor scheduling (budget conservation, degraded-mode
// reallocation, rotation fairness, probe grants) and the chaos soak harness:
// every invariant checker fails loudly on a fabricated bad trace, and the
// full soak replays byte-identically for --jobs 1 vs --jobs 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "mmtag/net/network_supervisor.hpp"
#include "mmtag/net/soak_harness.hpp"
#include "mmtag/net/tag_session.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/runtime/thread_pool.hpp"

namespace {

using namespace mmtag;
using net::network_supervisor;
using net::round_plan;
using net::session_state;
using net::soak_config;
using net::soak_trace;
using net::supervisor_config;

std::size_t total_slots(const round_plan& plan)
{
    std::size_t slots = 0;
    for (const auto& share : plan.shares) slots += share.slots;
    return slots;
}

/// Fails every data frame for `tag` until its session leaves the plan.
void kill_tag(network_supervisor& sup, std::uint32_t tag)
{
    while (sup.session(tag).schedulable()) {
        auto plan = sup.plan_round();
        for (const auto& share : plan.shares) {
            for (std::size_t s = 0; s < share.slots; ++s) {
                if (!sup.session(share.tag_id).schedulable()) break;
                sup.record_data(share.tag_id, share.tag_id != tag);
            }
        }
    }
}

TEST(network_supervisor, conserves_the_slot_budget_when_tags_die)
{
    network_supervisor sup(supervisor_config{}, 6);
    EXPECT_EQ(total_slots(sup.plan_round()), 6u) << "default budget = tag count";

    kill_tag(sup, 0);
    kill_tag(sup, 1);
    EXPECT_EQ(sup.healthy_count(), 4u);

    const auto plan = sup.plan_round();
    EXPECT_EQ(total_slots(plan), 6u)
        << "dead tags' slots are re-dealt to the healthy ones, not dropped";
    for (const auto& share : plan.shares) {
        EXPECT_NE(share.tag_id, 0u);
        EXPECT_NE(share.tag_id, 1u);
    }
}

TEST(network_supervisor, rotates_the_remainder_across_the_population)
{
    supervisor_config cfg;
    cfg.slot_budget = 3; // 5 tags, 3 slots: every round leaves 2 tags out
    network_supervisor sup(cfg, 5);

    std::vector<std::size_t> granted(5, 0);
    for (std::size_t round = 0; round < 10; ++round) {
        const auto plan = sup.plan_round();
        EXPECT_EQ(total_slots(plan), 3u);
        for (const auto& share : plan.shares) {
            granted[share.tag_id] += share.slots;
            sup.record_data(share.tag_id, true);
        }
    }
    // 30 slots over 5 tags with a rotating offset: everyone gets an equal cut.
    for (const std::size_t count : granted) EXPECT_EQ(count, 6u);
}

TEST(network_supervisor, marks_degraded_sessions_robust)
{
    network_supervisor sup(supervisor_config{}, 3);
    auto plan = sup.plan_round();
    sup.record_data(0, false);
    sup.record_data(1, true);
    sup.record_data(2, true);
    plan = sup.plan_round();
    sup.record_data(0, false); // second miss: 0 degrades
    sup.record_data(1, true);
    sup.record_data(2, true);

    plan = sup.plan_round();
    ASSERT_EQ(plan.robust.size(), 1u);
    EXPECT_EQ(plan.robust.front(), 0u);
    EXPECT_EQ(total_slots(plan), 3u) << "degraded sessions keep their slots";
}

TEST(network_supervisor, probes_and_readmits_a_quarantined_tag)
{
    obs::metrics_registry metrics;
    supervisor_config cfg;
    cfg.metrics = &metrics;
    network_supervisor sup(cfg, 2);
    kill_tag(sup, 0);
    EXPECT_EQ(sup.session(0).state(), session_state::quarantined);

    bool readmitted = false;
    for (std::size_t round = 0; round < 10 && !readmitted; ++round) {
        const auto plan = sup.plan_round();
        for (const auto& share : plan.shares) sup.record_data(share.tag_id, true);
        for (const std::uint32_t tag : plan.probes) {
            sup.record_probe(tag, true);
            readmitted = sup.session(tag).state() == session_state::active;
        }
    }
    EXPECT_TRUE(readmitted);
    EXPECT_EQ(metrics.get_counter("net/readmitted").value(), 1u);
    EXPECT_GE(metrics.get_counter("net/probe_slots").value(), 2u)
        << "readmit_streak consecutive probe grants";
}

TEST(network_supervisor, discards_outcomes_after_a_mid_round_quarantine)
{
    // Tag 0 enters a round one failure short of quarantine and holds several
    // slots: the first outcome quarantines it, the rest must be discarded
    // (returning false), not throw.
    supervisor_config cfg;
    cfg.slot_budget = 6;
    network_supervisor sup(cfg, 2);
    for (std::size_t round = 0; round < 2; ++round) {
        const auto plan = sup.plan_round();
        for (const auto& share : plan.shares) {
            for (std::size_t s = 0; s < share.slots; ++s) {
                if (share.tag_id != 0) {
                    EXPECT_TRUE(sup.record_data(share.tag_id, true));
                } else if (sup.session(0).schedulable()) {
                    sup.record_data(0, false);
                } else {
                    EXPECT_FALSE(sup.record_data(0, false));
                }
            }
        }
    }
    EXPECT_EQ(sup.session(0).state(), session_state::quarantined);
}

// ---------------------------------------------------------------------------
// Invariant checkers against fabricated traces: each must fail loudly.

soak_trace healthy_trace(std::size_t tags, std::size_t rounds)
{
    soak_trace trace;
    trace.tag_count = tags;
    trace.rounds.resize(rounds);
    for (std::size_t r = 0; r < rounds; ++r) {
        auto& rec = trace.rounds[r];
        rec.start_clock_s = static_cast<double>(r) * 1e-3;
        rec.states.assign(tags, 0);
        rec.scheduled.assign(tags, 1);
        rec.delivered.assign(tags, 1);
        rec.probed.assign(tags, 0);
        rec.probe_ok.assign(tags, 0);
    }
    return trace;
}

TEST(soak_invariants, legality_rejects_an_illegal_edge)
{
    auto trace = healthy_trace(2, 4);
    EXPECT_TRUE(net::check_transition_legality(trace).passed);

    trace.transitions.push_back(
        {0, {session_state::active, session_state::quarantined, 1}});
    const auto verdict = net::check_transition_legality(trace);
    EXPECT_FALSE(verdict.passed);
    EXPECT_NE(verdict.detail.find("illegal"), std::string::npos);
}

TEST(soak_invariants, legality_rejects_a_non_chronological_log)
{
    auto trace = healthy_trace(2, 4);
    trace.transitions.push_back(
        {1, {session_state::active, session_state::degraded, 3}});
    trace.transitions.push_back(
        {1, {session_state::degraded, session_state::active, 1}});
    EXPECT_FALSE(net::check_transition_legality(trace).passed);
}

TEST(soak_invariants, starvation_trips_after_a_dry_window)
{
    auto trace = healthy_trace(3, 8);
    for (std::size_t r = 2; r < 8; ++r) trace.rounds[r].scheduled[1] = 0;
    for (std::size_t r = 2; r < 8; ++r) trace.rounds[r].delivered[1] = 0;
    EXPECT_TRUE(net::check_no_starvation(trace, 7).passed);
    const auto verdict = net::check_no_starvation(trace, 6);
    EXPECT_FALSE(verdict.passed);
    EXPECT_NE(verdict.detail.find("tag 1"), std::string::npos);
}

TEST(soak_invariants, starvation_ignores_unschedulable_rounds)
{
    auto trace = healthy_trace(2, 8);
    for (std::size_t r = 0; r < 8; ++r) {
        trace.rounds[r].states[0] =
            static_cast<std::uint8_t>(session_state::quarantined);
        trace.rounds[r].scheduled[0] = 0;
        trace.rounds[r].delivered[0] = 0;
    }
    EXPECT_TRUE(net::check_no_starvation(trace, 3).passed)
        << "a quarantined tag is not starved, it is quarantined";
}

TEST(soak_invariants, conservation_rejects_overdelivery_and_bad_totals)
{
    auto trace = healthy_trace(2, 3);
    EXPECT_TRUE(net::check_frame_conservation(trace, {3, 3}).passed);
    EXPECT_FALSE(net::check_frame_conservation(trace, {3, 4}).passed)
        << "totals must equal the trace sum";

    trace.rounds[1].delivered[0] = 2; // 2 delivered from 1 slot
    EXPECT_FALSE(net::check_frame_conservation(trace, {4, 3}).passed);

    auto probe_trace = healthy_trace(2, 3);
    probe_trace.rounds[0].probe_ok[1] = 1; // outcome without a probe slot
    EXPECT_FALSE(net::check_frame_conservation(probe_trace, {3, 3}).passed);

    auto ragged = healthy_trace(2, 3);
    ragged.rounds[2].states.pop_back();
    EXPECT_FALSE(net::check_frame_conservation(ragged, {3, 3}).passed);
}

TEST(soak_invariants, bounded_recovery_rejects_a_stuck_quarantine)
{
    const net::session_config session; // max_readmit_rounds = 6
    auto trace = healthy_trace(2, 20);
    trace.last_fault_end_s = 2.5e-3; // first clean round: 3
    EXPECT_TRUE(net::check_bounded_recovery(trace, session, 2.0).passed);

    // Tag 1 still quarantined two rounds past the deadline (3 + 12 = 15).
    trace.rounds[17].states[1] =
        static_cast<std::uint8_t>(session_state::quarantined);
    const auto verdict = net::check_bounded_recovery(trace, session, 2.0);
    EXPECT_FALSE(verdict.passed);
    EXPECT_NE(verdict.detail.find("tag 1"), std::string::npos);
}

TEST(soak_invariants, bounded_recovery_fails_loudly_when_unobservable)
{
    const net::session_config session;
    auto trace = healthy_trace(2, 10);
    trace.last_fault_end_s = 8.5e-3; // deadline lands past the soak end
    const auto verdict = net::check_bounded_recovery(trace, session, 2.0);
    EXPECT_FALSE(verdict.passed);
    EXPECT_NE(verdict.detail.find("increase rounds"), std::string::npos)
        << "an unobservable invariant must not silently pass";
}

TEST(soak_invariants, graceful_degradation_compares_healthy_shares)
{
    EXPECT_TRUE(net::check_graceful_degradation({0, 50, 50}, {40, 50, 50}, 1, 0.9)
                    .passed);
    EXPECT_FALSE(net::check_graceful_degradation({0, 30, 50}, {40, 50, 50}, 1, 0.9)
                     .passed)
        << "healthy tags lost 20% of their fault-free delivery";
    EXPECT_FALSE(
        net::check_graceful_degradation({0, 0, 0}, {40, 0, 0}, 1, 0.9).passed)
        << "a dead reference arm is a broken scenario, not degradation";
    EXPECT_FALSE(
        net::check_graceful_degradation({0, 1}, {1, 1, 1}, 1, 0.9).passed);
}

// ---------------------------------------------------------------------------
// Full soak: replay determinism and a passing small configuration.

soak_config small_soak()
{
    soak_config cfg;
    cfg.tag_count = 4;
    cfg.faulted_count = 1;
    cfg.rounds = 36;
    cfg.payload_bytes = 8;
    cfg.trials = 1;
    cfg.seed = 5;
    cfg.fault_seed = 7;
    return cfg;
}

TEST(soak_harness, replays_byte_identically_for_any_job_count)
{
    const soak_config cfg = small_soak();
    runtime::thread_pool serial(1);
    runtime::thread_pool wide(8);
    obs::metrics_registry serial_metrics;
    obs::metrics_registry wide_metrics;

    const auto a = net::run_soak(cfg, serial, &serial_metrics);
    const auto b = net::run_soak(cfg, wide, &wide_metrics);

    EXPECT_EQ(a.to_json().dump(2), b.to_json().dump(2));
    EXPECT_EQ(a.all_passed(), b.all_passed());
    ASSERT_EQ(a.invariants.size(), b.invariants.size());
    for (std::size_t i = 0; i < a.invariants.size(); ++i) {
        EXPECT_EQ(a.invariants[i].passed, b.invariants[i].passed) << a.invariants[i].name;
        EXPECT_EQ(a.invariants[i].detail, b.invariants[i].detail);
    }
    EXPECT_EQ(serial_metrics.to_json_string(obs::metric_view::deterministic, 2),
              wide_metrics.to_json_string(obs::metric_view::deterministic, 2));
}

TEST(soak_harness, small_soak_passes_every_invariant)
{
    const soak_config cfg = small_soak();
    runtime::thread_pool pool(0);
    const auto report = net::run_soak(cfg, pool);

    for (const auto& inv : report.invariants) {
        EXPECT_TRUE(inv.passed) << inv.name << ": " << inv.detail;
    }
    EXPECT_TRUE(report.all_passed());
    EXPECT_GE(report.healthy_share_min_observed, cfg.healthy_share_min);

    // The faulted tag actually faults: it delivers less than its reference.
    EXPECT_LT(report.delivered_per_tag[0], report.reference_per_tag[0]);
    // And the fault-free reference arm is clean for every tag.
    for (std::size_t tag = 0; tag < cfg.tag_count; ++tag) {
        EXPECT_EQ(report.reference_per_tag[tag], cfg.rounds * cfg.trials);
    }
}

TEST(soak_harness, trial_arms_are_independent_tasks)
{
    // run_soak_trial is the task body; the reference arm must not see faults.
    const soak_config cfg = small_soak();
    const auto reference = net::run_soak_trial(cfg, 0, false, nullptr);
    EXPECT_EQ(reference.trace.last_fault_end_s, 0.0);
    EXPECT_TRUE(reference.trace.transitions.empty())
        << "a clean link never demotes a session";

    const auto faulted = net::run_soak_trial(cfg, 0, true, nullptr);
    EXPECT_GT(faulted.trace.last_fault_end_s, 0.0);
    EXPECT_FALSE(faulted.trace.transitions.empty());
}

TEST(soak_harness, rejects_degenerate_configs)
{
    runtime::thread_pool pool(1);
    soak_config cfg = small_soak();
    cfg.trials = 0;
    EXPECT_THROW((void)net::run_soak(cfg, pool), std::invalid_argument);
    cfg = small_soak();
    cfg.rounds = 0;
    EXPECT_THROW((void)net::run_soak(cfg, pool), std::invalid_argument);
    cfg = small_soak();
    cfg.faulted_count = cfg.tag_count + 1;
    EXPECT_THROW((void)net::run_soak(cfg, pool), std::invalid_argument);
    cfg = small_soak();
    cfg.tag_count = 0;
    cfg.faulted_count = 0;
    EXPECT_THROW((void)net::run_soak(cfg, pool), std::invalid_argument);
    cfg = small_soak();
    cfg.payload_bytes = 0;
    EXPECT_THROW((void)net::run_soak(cfg, pool), std::invalid_argument);
    cfg = small_soak();
    cfg.min_range_m = cfg.max_range_m + 1.0;
    EXPECT_THROW((void)net::run_soak(cfg, pool), std::invalid_argument);
    EXPECT_NO_THROW(net::validate(small_soak()));
}

} // namespace
