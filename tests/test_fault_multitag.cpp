// fault_schedule event normalization (the documented merge rule) and the
// multi-tag chaos plan: correlated storms, rolling brownouts, healthy-tag
// isolation, and same-seed determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "mmtag/fault/fault_schedule.hpp"
#include "mmtag/fault/multi_tag_faults.hpp"

namespace {

using mmtag::fault::fault_event;
using mmtag::fault::fault_kind;
using mmtag::fault::fault_schedule;
using mmtag::fault::multi_tag_config;
using mmtag::fault::multi_tag_plan;

fault_event event(fault_kind kind, double start_s, double duration_s,
                  double magnitude = 1.0)
{
    fault_event out;
    out.kind = kind;
    out.start_s = start_s;
    out.duration_s = duration_s;
    out.magnitude = magnitude;
    return out;
}

TEST(fault_schedule_normalize, drops_zero_duration_except_lo_step)
{
    const auto out = fault_schedule::normalize({
        event(fault_kind::blockage, 1e-3, 0.0, 12.0),
        event(fault_kind::brownout, 2e-3, 0.0),
        event(fault_kind::lo_step, 3e-3, 0.0, 100e3),
    });
    // A zero-length window can never overlap a frame, but an lo_step persists
    // until re-lock, so only it survives.
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out.front().kind, fault_kind::lo_step);
    EXPECT_DOUBLE_EQ(out.front().start_s, 3e-3);
}

TEST(fault_schedule_normalize, merges_overlapping_same_kind_to_union_and_deepest)
{
    const auto out = fault_schedule::normalize({
        event(fault_kind::blockage, 1e-3, 2e-3, 10.0),
        event(fault_kind::blockage, 2e-3, 3e-3, 18.0), // overlaps the first
        event(fault_kind::blockage, 5e-3, 1e-3, 4.0),  // touches the merged end
    });
    ASSERT_EQ(out.size(), 1u);
    EXPECT_DOUBLE_EQ(out.front().start_s, 1e-3);
    EXPECT_DOUBLE_EQ(out.front().end_s(), 6e-3);
    EXPECT_DOUBLE_EQ(out.front().magnitude, 18.0)
        << "deepest magnitude wins, matching the injector's aggregation";
}

TEST(fault_schedule_normalize, never_merges_across_kinds_or_lo_steps)
{
    const auto across = fault_schedule::normalize({
        event(fault_kind::blockage, 1e-3, 2e-3, 10.0),
        event(fault_kind::brownout, 1e-3, 2e-3),
    });
    EXPECT_EQ(across.size(), 2u) << "different kinds never merge";

    const auto steps = fault_schedule::normalize({
        event(fault_kind::lo_step, 1e-3, 2e-3, 100e3),
        event(fault_kind::lo_step, 2e-3, 2e-3, 200e3),
    });
    EXPECT_EQ(steps.size(), 2u)
        << "which lo_step is latest is semantic; they must not merge";
}

TEST(fault_schedule_normalize, disjoint_events_stay_separate_and_sorted)
{
    auto out = fault_schedule::normalize({
        event(fault_kind::blockage, 6e-3, 1e-3, 9.0),
        event(fault_kind::blockage, 1e-3, 2e-3, 10.0), // gap in (3, 6) ms
    });
    ASSERT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out[0].start_s, 1e-3);
    EXPECT_DOUBLE_EQ(out[1].start_s, 6e-3);

    // Normalizing a normalized list is a no-op.
    const auto again = fault_schedule::normalize(out);
    ASSERT_EQ(again.size(), out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_DOUBLE_EQ(again[i].start_s, out[i].start_s);
        EXPECT_DOUBLE_EQ(again[i].duration_s, out[i].duration_s);
        EXPECT_DOUBLE_EQ(again[i].magnitude, out[i].magnitude);
    }
}

TEST(fault_schedule_normalize, rejects_non_finite_and_negative_fields)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW((void)fault_schedule::normalize({event(fault_kind::blockage, nan, 1e-3)}),
                 std::invalid_argument);
    EXPECT_THROW((void)fault_schedule::normalize({event(fault_kind::blockage, 0.0, inf)}),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)fault_schedule::normalize({event(fault_kind::blockage, -1e-3, 1e-3)}),
        std::invalid_argument);
    EXPECT_THROW(
        (void)fault_schedule::normalize({event(fault_kind::blockage, 0.0, -1e-3)}),
        std::invalid_argument);
    EXPECT_THROW(
        (void)fault_schedule::normalize({event(fault_kind::blockage, 0.0, 1e-3, nan)}),
        std::invalid_argument);
    // Negative magnitudes are legal: an lo_step can detune downward.
    EXPECT_EQ(
        fault_schedule::normalize({event(fault_kind::lo_step, 0.0, 0.0, -100e3)}).size(),
        1u);
}

TEST(fault_schedule_explicit_ctor, bounds_events_to_the_horizon)
{
    const fault_schedule ok(10e-3, {event(fault_kind::blockage, 9e-3, 5e-3, 12.0)});
    EXPECT_EQ(ok.count(fault_kind::blockage), 1u)
        << "events may end past the horizon, just not start there";

    EXPECT_THROW(fault_schedule(10e-3, {event(fault_kind::blockage, 10e-3, 1e-3)}),
                 std::invalid_argument);
    EXPECT_THROW(fault_schedule(10e-3, {event(fault_kind::blockage, 11e-3, 1e-3)}),
                 std::invalid_argument);
}

multi_tag_config plan_config()
{
    multi_tag_config cfg;
    cfg.horizon_s = 50e-3;
    cfg.storm_rate_hz = 80.0;
    cfg.storm_span = 3;
    return cfg;
}

TEST(multi_tag_plan, same_seed_reproduces_the_exact_timelines)
{
    const multi_tag_plan a(plan_config(), 6, 3, 77);
    const multi_tag_plan b(plan_config(), 6, 3, 77);
    ASSERT_EQ(a.tag_count(), b.tag_count());
    for (std::size_t tag = 0; tag < a.tag_count(); ++tag) {
        const fault_schedule sa = a.tag_schedule(tag);
        const fault_schedule sb = b.tag_schedule(tag);
        const auto& ea = sa.events();
        const auto& eb = sb.events();
        ASSERT_EQ(ea.size(), eb.size()) << "tag " << tag;
        for (std::size_t i = 0; i < ea.size(); ++i) {
            EXPECT_EQ(ea[i].kind, eb[i].kind);
            EXPECT_DOUBLE_EQ(ea[i].start_s, eb[i].start_s);
            EXPECT_DOUBLE_EQ(ea[i].duration_s, eb[i].duration_s);
            EXPECT_DOUBLE_EQ(ea[i].magnitude, eb[i].magnitude);
        }
    }
    EXPECT_DOUBLE_EQ(a.last_fault_end_s(), b.last_fault_end_s());

    const multi_tag_plan c(plan_config(), 6, 3, 78);
    bool any_difference = false;
    for (std::size_t tag = 0; tag < 3 && !any_difference; ++tag) {
        const fault_schedule sa = a.tag_schedule(tag);
        const fault_schedule sc = c.tag_schedule(tag);
        const auto& ea = sa.events();
        const auto& ec = sc.events();
        if (ea.size() != ec.size()) {
            any_difference = true;
            break;
        }
        for (std::size_t i = 0; i < ea.size(); ++i) {
            any_difference = any_difference || ea[i].start_s != ec[i].start_s ||
                             ea[i].magnitude != ec[i].magnitude;
        }
    }
    EXPECT_TRUE(any_difference) << "a different seed draws a different plan";
}

TEST(multi_tag_plan, healthy_tags_have_empty_schedules)
{
    const multi_tag_plan plan(plan_config(), 6, 2, 11);
    for (std::size_t tag = 0; tag < 6; ++tag) {
        if (tag < 2) continue;
        EXPECT_TRUE(plan.tag_schedule(tag).events().empty()) << "tag " << tag;
    }
    // The faulted ones actually draw something at these rates.
    EXPECT_FALSE(plan.tag_schedule(0).events().empty());
    EXPECT_EQ(plan.faulted_count(), 2u);
    EXPECT_THROW((void)plan.tag_schedule(6), std::out_of_range);
}

TEST(multi_tag_plan, storms_shadow_a_contiguous_span_with_one_event)
{
    // Storms only: disable everything else so per-tag blockage events are
    // exactly the storm pattern.
    multi_tag_config cfg = plan_config();
    cfg.brownout_period_s = 0.0;
    cfg.interferer_duration_s = 0.0;
    cfg.background_rate_hz = 0.0;
    const multi_tag_plan plan(cfg, 6, 4, 21);

    // Every storm shadows a contiguous span with the *same* event: an onset
    // appearing on several tags must carry the same duration and depth on
    // all of them (one body, one shadow). Span groups start at a uniformly
    // drawn origin, so scan every faulted-tag pair for shared onsets.
    //
    // Normalisation merges storms that overlap on one tag into one event:
    // it keeps the first onset, lasts longer than one storm and carries the
    // deeper depth. A merged event shares its onset with the lone storm on a
    // tag outside the other storm's span, so it must cover that storm, not
    // equal it.
    std::size_t total_events = 0;
    std::size_t shared_events = 0;
    for (std::size_t tag = 0; tag < 4; ++tag) {
        const fault_schedule schedule = plan.tag_schedule(tag);
        const auto& events = schedule.events();
        total_events += events.size();
        for (const auto& ev : events) {
            EXPECT_EQ(ev.kind, fault_kind::blockage);
            EXPECT_LT(ev.start_s, cfg.horizon_s * cfg.active_fraction)
                << "faults must leave the recovery tail quiet";
            EXPECT_GE(ev.duration_s, cfg.storm_duration_s);
            EXPECT_GE(ev.magnitude, cfg.storm_depth_db_min);
            EXPECT_LE(ev.magnitude, cfg.storm_depth_db_max);
            const bool ev_merged = ev.duration_s != cfg.storm_duration_s;
            for (std::size_t other_tag = tag + 1; other_tag < 4; ++other_tag) {
                const fault_schedule other_schedule = plan.tag_schedule(other_tag);
                for (const auto& other : other_schedule.events()) {
                    if (other.start_s != ev.start_s) continue;
                    ++shared_events;
                    const bool other_merged = other.duration_s != cfg.storm_duration_s;
                    if (!ev_merged && !other_merged) {
                        EXPECT_DOUBLE_EQ(other.magnitude, ev.magnitude);
                    } else if (ev_merged != other_merged) {
                        const auto& merged = ev_merged ? ev : other;
                        const auto& lone = ev_merged ? other : ev;
                        EXPECT_GT(merged.duration_s, lone.duration_s);
                        EXPECT_GE(merged.magnitude, lone.magnitude);
                    }
                }
            }
        }
    }
    EXPECT_GT(total_events, 0u);
    EXPECT_GT(shared_events, 0u)
        << "no two tags ever shared a storm — the events are not correlated";
}

TEST(multi_tag_plan, brownouts_roll_with_the_configured_stagger)
{
    multi_tag_config cfg = plan_config();
    cfg.storm_rate_hz = 0.0;
    cfg.interferer_duration_s = 0.0;
    cfg.background_rate_hz = 0.0;
    cfg.brownout_period_s = 20e-3;
    cfg.brownout_stagger_s = 3e-3;
    const multi_tag_plan plan(cfg, 4, 3, 5);

    for (std::size_t tag = 0; tag < 3; ++tag) {
        const fault_schedule schedule = plan.tag_schedule(tag);
        const auto& events = schedule.events();
        ASSERT_FALSE(events.empty()) << "tag " << tag;
        for (std::size_t k = 0; k < events.size(); ++k) {
            EXPECT_EQ(events[k].kind, fault_kind::brownout);
            EXPECT_DOUBLE_EQ(events[k].start_s,
                             static_cast<double>(tag) * cfg.brownout_stagger_s +
                                 static_cast<double>(k) * cfg.brownout_period_s);
            EXPECT_DOUBLE_EQ(events[k].duration_s, cfg.brownout_duration_s);
        }
    }
}

TEST(multi_tag_plan, shared_channel_carries_the_persistent_interferer)
{
    multi_tag_config cfg = plan_config();
    cfg.storm_rate_hz = 0.0;
    cfg.brownout_period_s = 0.0;
    cfg.background_rate_hz = 0.0;
    const multi_tag_plan plan(cfg, 3, 1, 9);

    ASSERT_EQ(plan.shared().events().size(), 1u);
    const auto& cw = plan.shared().events().front();
    EXPECT_EQ(cw.kind, fault_kind::interferer);
    EXPECT_DOUBLE_EQ(cw.start_s, cfg.interferer_start_s);
    EXPECT_DOUBLE_EQ(cw.duration_s, cfg.interferer_duration_s);
    EXPECT_DOUBLE_EQ(cw.magnitude, cfg.interferer_rel_db);
    EXPECT_DOUBLE_EQ(plan.last_fault_end_s(), cw.end_s());
}

TEST(multi_tag_plan, drops_a_shared_interferer_starting_past_the_horizon)
{
    // A soak of one or two short rounds measures a horizon that ends before
    // the interferer's absolute start: the plan drops the event (it could
    // overlap no frame) instead of failing the schedule.
    multi_tag_config cfg = plan_config();
    cfg.horizon_s = 4e-3;
    cfg.interferer_start_s = 10e-3;
    const multi_tag_plan late(cfg, 3, 1, 9);
    EXPECT_TRUE(late.shared().events().empty());
    cfg.interferer_start_s = cfg.horizon_s;
    EXPECT_TRUE(multi_tag_plan(cfg, 3, 1, 9).shared().events().empty());

    cfg.interferer_start_s = 1e-3; // starts inside: kept, even if it outlasts
    const multi_tag_plan inside(cfg, 3, 1, 9);
    ASSERT_EQ(inside.shared().events().size(), 1u);
    EXPECT_DOUBLE_EQ(inside.shared().events().front().start_s, 1e-3);
}

TEST(multi_tag_plan, rejects_degenerate_configurations)
{
    EXPECT_THROW(multi_tag_plan(plan_config(), 4, 5, 1), std::invalid_argument)
        << "faulted_count > tag_count";
    multi_tag_config cfg = plan_config();
    cfg.horizon_s = 0.0;
    EXPECT_THROW(multi_tag_plan(cfg, 4, 2, 1), std::invalid_argument);
    cfg = plan_config();
    cfg.active_fraction = 1.5;
    EXPECT_THROW(multi_tag_plan(cfg, 4, 2, 1), std::invalid_argument);
    cfg = plan_config();
    cfg.storm_span = 0;
    EXPECT_THROW(multi_tag_plan(cfg, 4, 2, 1), std::invalid_argument);
}

} // namespace
