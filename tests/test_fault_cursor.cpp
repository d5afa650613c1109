// fault_injector's lookup cursors against a brute-force full scan: every
// impairment field and the fault/* counter snapshot must match, query by
// query, on multi_tag_plan timelines (shared and per-tag) and on a dense
// all-kinds schedule whose LO steps exercise the persistent-offset cursor.
// Query sequences run forward (slot by slot, with window ends that go back
// when a short slot follows a long one), in random order, and interleaved
// with clear_lo_steps re-locks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/fault/multi_tag_faults.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/runtime/result_writer.hpp"

namespace {

using namespace mmtag;
using fault::fault_event;
using fault::fault_injector;
using fault::fault_kind;
using fault::fault_schedule;
using fault::impairment;

/// The injector's semantics spelled out as a scan over every event, with
/// the same counters: the reference the cursors must reproduce.
class full_scan {
public:
    full_scan(const fault_schedule& schedule, obs::metrics_registry& metrics)
        : events_(schedule.events()), metrics_(metrics)
    {
    }

    impairment at(double start_s, double duration_s)
    {
        const double end_s = start_s + duration_s;
        impairment out;
        double blockage_db = 0.0;
        double dropout_db = 0.0;
        for (const fault_event& event : events_) {
            if (!event.overlaps(start_s, end_s)) continue;
            switch (event.kind) {
            case fault_kind::blockage:
                blockage_db = std::max(blockage_db, event.magnitude);
                break;
            case fault_kind::carrier_dropout:
                dropout_db = std::max(dropout_db, event.magnitude);
                break;
            case fault_kind::interferer:
                out.interferer_rel_db = std::max(out.interferer_rel_db, event.magnitude);
                break;
            case fault_kind::brownout: out.tag_powered = false; break;
            case fault_kind::lo_step: break;
            }
            metrics_.get_counter(std::string("fault/") + fault::fault_kind_name(event.kind))
                .add();
        }
        if (blockage_db > 0.0) out.tag_amplitude = std::pow(10.0, -blockage_db / 20.0);
        if (dropout_db > 0.0) out.carrier_amplitude = std::pow(10.0, -dropout_db / 20.0);
        out.lo_offset_hz = lo_offset_hz(end_s);
        if (out.any()) metrics_.get_counter("fault/impaired_windows").add();
        return out;
    }

    double lo_offset_hz(double time_s) const
    {
        double offset = 0.0;
        for (const fault_event& event : events_) {
            if (event.kind != fault_kind::lo_step) continue;
            if (event.start_s <= time_s && event.start_s > cleared_until_s_) {
                offset = event.magnitude;
            }
        }
        return offset;
    }

    void clear_lo_steps(double time_s)
    {
        cleared_until_s_ = std::max(cleared_until_s_, time_s);
        metrics_.get_counter("fault/lo_relocks").add();
    }

private:
    std::vector<fault_event> events_;
    obs::metrics_registry& metrics_;
    double cleared_until_s_ = 0.0;
};

struct query {
    double start_s = 0.0;
    double duration_s = 0.0;
    bool relock = false; ///< clear_lo_steps(start_s) before the lookup
};

/// Compares the injector with the full scan over `queries`, field by field
/// and counter by counter.
void expect_matches_full_scan(const fault_schedule& schedule,
                              const std::vector<query>& queries)
{
    obs::metrics_registry cursor_metrics;
    obs::metrics_registry scan_metrics;
    fault_injector injector(schedule);
    injector.attach_metrics(&cursor_metrics);
    full_scan reference(schedule, scan_metrics);
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const query& q = queries[i];
        if (q.relock) {
            injector.clear_lo_steps(q.start_s);
            reference.clear_lo_steps(q.start_s);
        }
        const impairment got = injector.at(q.start_s, q.duration_s);
        const impairment want = reference.at(q.start_s, q.duration_s);
        ASSERT_EQ(got.tag_amplitude, want.tag_amplitude) << "query " << i;
        ASSERT_EQ(got.carrier_amplitude, want.carrier_amplitude) << "query " << i;
        ASSERT_EQ(got.lo_offset_hz, want.lo_offset_hz) << "query " << i;
        ASSERT_EQ(got.interferer_rel_db, want.interferer_rel_db) << "query " << i;
        ASSERT_EQ(got.tag_powered, want.tag_powered) << "query " << i;
        ASSERT_EQ(injector.lo_offset_hz(q.start_s), reference.lo_offset_hz(q.start_s))
            << "query " << i;
    }
    EXPECT_EQ(cursor_metrics.to_json().dump(), scan_metrics.to_json().dump());
}

/// Back-to-back slots over [0, horizon * 1.1): durations cycle through a
/// short and a long slot, so starts rise while window ends sometimes fall.
std::vector<query> forward_slots(double horizon_s, double slot_s)
{
    std::vector<query> out;
    const double durations[] = {slot_s, 3.7 * slot_s, 0.4 * slot_s};
    double t = 0.0;
    for (std::size_t i = 0; t < 1.1 * horizon_s; ++i) {
        const double d = durations[i % 3];
        out.push_back({t, (i % 5 == 0) ? 4.0 * d : d, false});
        t += d;
    }
    return out;
}

std::vector<query> random_order(std::vector<query> queries, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::shuffle(queries.begin(), queries.end(), rng);
    return queries;
}

/// Forward slots with a re-lock every `period` queries and an occasional
/// jump back in time.
std::vector<query> with_relocks(std::vector<query> queries, std::size_t period)
{
    for (std::size_t i = period; i < queries.size(); i += period) {
        queries[i].relock = true;
        if (i >= 2 * period) std::swap(queries[i - period / 2], queries[i - 1]);
    }
    return queries;
}

fault::multi_tag_config chaos_config()
{
    fault::multi_tag_config cfg;
    cfg.horizon_s = 0.2;
    cfg.storm_rate_hz = 80.0;
    cfg.background_rate_hz = 150.0;
    cfg.background_mean_duration_s = 1e-3;
    cfg.interferer_start_s = 0.03;
    cfg.interferer_duration_s = 0.05;
    return cfg;
}

fault_schedule all_kinds_schedule()
{
    fault_schedule::config cfg;
    cfg.horizon_s = 0.2;
    cfg.event_rate_hz = 800.0;
    cfg.mean_duration_s = 3e-3;
    return fault_schedule(cfg, 77);
}

std::vector<fault_schedule> schedules_under_test()
{
    const fault::multi_tag_plan plan(chaos_config(), 8, 5, 1234);
    std::vector<fault_schedule> out{plan.shared(), all_kinds_schedule()};
    for (std::size_t tag = 0; tag < 6; ++tag) out.push_back(plan.tag_schedule(tag));
    return out;
}

TEST(multi_tag_plan, chaos_timeline_is_unchanged)
{
    // Recorded from the plan that draws every uniform, integer and
    // exponential from runtime::gaussian_source. Tag 3 of this plan carries
    // storms, rolling brownouts and a background draw, so any change to how
    // a timeline is drawn or keyed moves these values.
    const fault::multi_tag_plan plan(chaos_config(), 8, 5, 1234);
    const fault_schedule schedule = plan.tag_schedule(3);
    const auto& events = schedule.events();
    ASSERT_EQ(events.size(), 21u);
    EXPECT_EQ(schedule.count(fault::fault_kind::blockage), 16u);
    EXPECT_EQ(schedule.count(fault::fault_kind::brownout), 5u);
    EXPECT_EQ(events.front().start_s, 0.0014123813124973029);
    EXPECT_EQ(events.back().start_s, 0.11209775596993551);
    EXPECT_EQ(plan.last_fault_end_s(), 0.1214758977905631);
}

TEST(fault_cursor, schedules_under_test_cover_every_kind)
{
    std::size_t kinds_seen[5] = {};
    for (const auto& schedule : schedules_under_test()) {
        for (const auto& event : schedule.events()) {
            ++kinds_seen[static_cast<std::size_t>(event.kind)];
        }
    }
    for (const std::size_t count : kinds_seen) EXPECT_GT(count, 0u);
}

TEST(fault_cursor, forward_queries_match_a_full_scan)
{
    for (const auto& schedule : schedules_under_test()) {
        expect_matches_full_scan(schedule, forward_slots(0.2, 90e-6));
    }
}

TEST(fault_cursor, out_of_order_queries_match_a_full_scan)
{
    std::uint64_t seed = 5;
    for (const auto& schedule : schedules_under_test()) {
        expect_matches_full_scan(schedule, random_order(forward_slots(0.2, 400e-6), ++seed));
    }
}

TEST(fault_cursor, relocks_match_a_full_scan)
{
    for (const auto& schedule : schedules_under_test()) {
        expect_matches_full_scan(schedule, with_relocks(forward_slots(0.2, 90e-6), 37));
        expect_matches_full_scan(schedule,
                                 with_relocks(random_order(forward_slots(0.2, 400e-6), 3), 11));
    }
}

} // namespace
