// Discrete-event engine determinism: identical seeds replay byte-identically
// across --jobs 1 vs 8 (event logs, hashes, and emitted JSON), the event
// queue breaks time ties by creation order, and the accounting invariants
// (frame conservation, event counts) hold under faults.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/scale/des_engine.hpp"
#include "mmtag/scale/topology.hpp"

namespace {

using namespace mmtag;
using scale::des_event;
using scale::event_kind;
using scale::event_queue;
using scale::scale_config;
using scale::scale_result;

/// One cache directory per test binary run: the first run_scale generates
/// the (deliberately coarse) table, every later call hits the cache.
const std::string& shared_cache_dir()
{
    static const std::string dir = [] {
        namespace fs = std::filesystem;
        const fs::path path = fs::temp_directory_path() / "mmtag_des_test_cache";
        fs::remove_all(path);
        fs::create_directories(path);
        return path.string();
    }();
    return dir;
}

scale_config small_config()
{
    scale_config cfg;
    cfg.topology.tag_count = 40;
    cfg.topology.ap_count = 2;
    cfg.frames = 8;
    cfg.faulted = 4;
    cfg.trials = 4;
    cfg.record_event_log = true;
    // Coarse calibration grid: engine behaviour, not statistics, is under
    // test, and generation happens once thanks to the shared cache dir.
    cfg.phy.frames_per_point = 8;
    return cfg;
}

TEST(ScaleDes, EventQueueBreaksTiesByCreationOrder)
{
    event_queue queue;
    // Fabricated tie: three events at the same instant, pushed after a
    // later-time event to make heap order diverge from push order.
    des_event late;
    late.time_s = 2.0;
    late.tag = 99;
    queue.push(late);
    for (std::uint32_t tag = 0; tag < 3; ++tag) {
        des_event ev;
        ev.time_s = 1.0;
        ev.tag = tag;
        ev.kind = event_kind::data_slot;
        queue.push(ev);
    }
    EXPECT_EQ(queue.size(), 4u);
    for (std::uint32_t tag = 0; tag < 3; ++tag) {
        const des_event ev = queue.pop();
        EXPECT_DOUBLE_EQ(ev.time_s, 1.0);
        EXPECT_EQ(ev.tag, tag); // creation order, not heap order
    }
    EXPECT_EQ(queue.pop().tag, 99u);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.pushed(), 4u);
}

TEST(ScaleDes, EventQueueSequenceIsMonotonic)
{
    event_queue queue;
    des_event ev;
    ev.time_s = 5.0;
    const std::uint64_t first = queue.push(ev);
    ev.time_s = 3.0;
    const std::uint64_t second = queue.push(ev);
    EXPECT_LT(first, second);
    EXPECT_EQ(queue.pop().seq, second); // earlier time pops first
    EXPECT_EQ(queue.pop().seq, first);
}

TEST(ScaleDes, JobsDoNotChangeResults)
{
    const auto cfg = small_config();
    // Warm the cache so both runs load the same table from disk.
    (void)scale::run_scale(cfg, 1, nullptr, shared_cache_dir());

    obs::metrics_registry metrics_a;
    obs::metrics_registry metrics_b;
    const scale_result a = scale::run_scale(cfg, 1, &metrics_a, shared_cache_dir());
    const scale_result b = scale::run_scale(cfg, 8, &metrics_b, shared_cache_dir());

    // Byte-identical emitted JSON is the contract the benches rely on.
    EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
    EXPECT_EQ(a.event_log_hash, b.event_log_hash);
    ASSERT_EQ(a.event_logs.size(), cfg.trials);
    ASSERT_EQ(b.event_logs.size(), cfg.trials);
    for (std::size_t trial = 0; trial < cfg.trials; ++trial) {
        EXPECT_EQ(a.event_logs[trial], b.event_logs[trial]) << "trial " << trial;
        EXPECT_FALSE(a.event_logs[trial].empty());
    }
    EXPECT_EQ(metrics_a.to_json().dump(), metrics_b.to_json().dump());
}

TEST(ScaleDes, AccountingInvariantsHold)
{
    const auto cfg = small_config();
    const scale_result r = scale::run_scale(cfg, 1, nullptr, shared_cache_dir());

    std::uint64_t delivered = 0;
    ASSERT_EQ(r.delivered_per_tag.size(), cfg.topology.tag_count);
    for (std::size_t t = 0; t < r.delivered_per_tag.size(); ++t) {
        EXPECT_LE(r.delivered_per_tag[t], r.attempts_per_tag[t]);
        delivered += r.delivered_per_tag[t];
    }
    EXPECT_EQ(delivered, r.delivered);
    EXPECT_LE(r.delivered, r.data_slots);
    EXPECT_EQ(r.events, r.rounds + r.data_slots + r.probe_slots);
    EXPECT_EQ(r.rounds, cfg.frames * cfg.topology.ap_count * cfg.trials);
    EXPECT_GT(r.sim_time_s, 0.0);
    EXPECT_GT(r.delivered, 0u);
    EXPECT_GT(r.fairness_index(), 0.0);
    EXPECT_LE(r.fairness_index(), 1.0 + 1e-12);
}

TEST(ScaleDes, FaultsDriveQuarantineAndReadmission)
{
    auto cfg = small_config();
    cfg.frames = 40; // long enough for the probe backoff to re-admit
    cfg.trials = 1;
    const scale_result r = scale::run_scale(cfg, 1, nullptr, shared_cache_dir());
    EXPECT_GT(r.transitions, 0u);
    EXPECT_GT(r.readmissions, 0u);
    EXPECT_EQ(r.readmit_latency_count, r.readmissions);
    EXPECT_GE(static_cast<double>(r.readmit_latency_max_rounds),
              r.readmit_latency_mean_rounds);
}

TEST(ScaleDes, SeedChangesOutcomes)
{
    auto cfg = small_config();
    cfg.trials = 1;
    const scale_result a = scale::run_scale(cfg, 1, nullptr, shared_cache_dir());
    cfg.seed ^= 0xdecafbad;
    const scale_result b = scale::run_scale(cfg, 1, nullptr, shared_cache_dir());
    EXPECT_NE(a.event_log_hash, b.event_log_hash);
}

TEST(ScaleDes, TrialRunsAreReproducible)
{
    const auto cfg = small_config();
    const auto topo = scale::make_deployment(cfg.topology, cfg.scenario);
    auto table_cfg = cfg.phy;
    table_cfg.scenario = cfg.scenario;
    table_cfg.payload_bytes = cfg.payload_bytes;
    const auto cache =
        scale::phy_table::load_or_generate(table_cfg, 1, shared_cache_dir());
    const auto a = scale::run_scale_trial(cfg, topo, cache.table, 2, nullptr);
    const auto b = scale::run_scale_trial(cfg, topo, cache.table, 2, nullptr);
    EXPECT_EQ(a.event_log_hash, b.event_log_hash);
    EXPECT_EQ(a.event_log, b.event_log);
    EXPECT_EQ(a.delivered, b.delivered);
}

TEST(ScaleDes, RejectsZeroTrials)
{
    auto cfg = small_config();
    cfg.trials = 0;
    EXPECT_THROW((void)scale::run_scale(cfg, 1, nullptr, shared_cache_dir()),
                 std::invalid_argument);
}

TEST(ScaleDes, ValidateCoversEveryCountBeforeCalibration)
{
    EXPECT_NO_THROW(scale::validate(small_config()));
    const auto rejects = [](auto mutate) {
        auto cfg = small_config();
        mutate(cfg);
        EXPECT_THROW(scale::validate(cfg), std::invalid_argument);
    };
    rejects([](scale::scale_config& c) { c.topology.tag_count = 0; });
    rejects([](scale::scale_config& c) { c.topology.ap_count = 0; });
    rejects([](scale::scale_config& c) { c.topology.floor_m = 0.0; });
    rejects([](scale::scale_config& c) { c.faulted = c.topology.tag_count + 1; });
    rejects([](scale::scale_config& c) { c.payload_bytes = 0; });
    rejects([](scale::scale_config& c) { c.frames = 0; });
}

} // namespace
