// Discrete-event engine determinism: identical seeds replay byte-identically
// across --jobs 1 vs 8 (hashes, per-tag counts and emitted JSON), a change
// confined to one cell leaves every other cell's outcomes alone, pinned
// golden values guard the engine's exact output, and the accounting
// invariants (frame conservation, event counts) hold under faults.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/runtime/trial_rng.hpp"
#include "mmtag/scale/des_engine.hpp"
#include "mmtag/scale/topology.hpp"

namespace {

using namespace mmtag;
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
    // Coarse calibration grid: engine behaviour, not statistics, is under
    // test, and generation happens once thanks to the shared cache dir.
    cfg.phy.frames_per_point = 8;
    return cfg;
}

TEST(ScaleDes, GoldenEventLogIsUnchanged)
{
    // Recorded from the per-cell round-loop engine (draws keyed by cell and
    // per-cell slot index, binary event records) with fault plans and
    // calibration payloads drawn from runtime::gaussian_source: any change
    // to event order, packet draws or the hashed record moves these values.
    const auto cfg = small_config();
    const scale_result r = scale::run_scale(cfg, 1, nullptr, shared_cache_dir());
    EXPECT_EQ(r.events, 1346u);
    EXPECT_EQ(r.event_log_hash, 0x47ca5ac0bbb7b1c1ULL);
    EXPECT_EQ(r.delivered, 869u);
    ASSERT_EQ(r.delivered_per_tag.size(), cfg.topology.tag_count);
    EXPECT_EQ(r.delivered_per_tag[0], 19u);
    EXPECT_EQ(r.delivered_per_tag[7], 24u);
    EXPECT_EQ(r.delivered_per_tag[39], 20u);
}

TEST(ScaleDes, ResultRecordsTheDesModelRevision)
{
    const scale_result r = scale::run_scale(small_config(), 1, nullptr, shared_cache_dir());
    const auto doc = r.to_json();
    const auto* revision = doc.find("des_model_revision");
    ASSERT_NE(revision, nullptr);
    EXPECT_EQ(revision->as_number(), static_cast<double>(scale::des_model_revision));
    EXPECT_EQ(scale::des_model_revision, 2u);
}

TEST(ScaleDes, CellsAreIndependent)
{
    // Lower every cell-1 tag's SINR to the bottom of its rung's band. No
    // rung moves, so the nominal schedule length, and with it the fault
    // plan, is unchanged. Cell 1 then loses more slots, and no cell-0 tag
    // may notice.
    auto cfg = small_config();
    cfg.trials = 1;
    const auto topo = scale::make_deployment(cfg.topology, cfg.scenario);
    ASSERT_EQ(topo.cells.size(), 2u);
    ASSERT_FALSE(topo.cells[0].empty());
    auto table_cfg = cfg.phy;
    table_cfg.scenario = cfg.scenario;
    table_cfg.payload_bytes = cfg.payload_bytes;
    const auto cache = scale::phy_table::load_or_generate(table_cfg, 1, shared_cache_dir());

    const ap::rate_adapter adapter(cfg.margin_db);
    auto changed = topo;
    for (const std::size_t t : topo.cells[1]) {
        double& sinr_db = changed.tags[t].sinr_db;
        const std::size_t rung = adapter.select_index(sinr_db);
        while (adapter.select_index(sinr_db - 0.01) == rung && sinr_db > -40.0) {
            sinr_db -= 0.01;
        }
    }

    const auto a = scale::run_scale_trial(cfg, topo, cache.table, 0, nullptr);
    const auto b = scale::run_scale_trial(cfg, changed, cache.table, 0, nullptr);
    std::uint64_t cell1_a = 0;
    std::uint64_t cell1_b = 0;
    for (const std::size_t t : topo.cells[1]) {
        cell1_a += a.delivered_per_tag[t];
        cell1_b += b.delivered_per_tag[t];
    }
    EXPECT_GT(cell1_a, cell1_b);
    for (const std::size_t t : topo.cells[0]) {
        EXPECT_EQ(a.attempts_per_tag[t], b.attempts_per_tag[t]) << "tag " << t;
        EXPECT_EQ(a.delivered_per_tag[t], b.delivered_per_tag[t]) << "tag " << t;
    }
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
    EXPECT_EQ(a.attempts_per_tag, b.attempts_per_tag);
    EXPECT_EQ(a.delivered_per_tag, b.delivered_per_tag);
    EXPECT_GT(a.events, 0u);
    EXPECT_EQ(metrics_a.to_json().dump(), metrics_b.to_json().dump());
}

TEST(ScaleDes, SingleTrialJobsDoNotChangeResults)
{
    // One trial is where the cells, not the trials, spread over the pool.
    auto cfg = small_config();
    cfg.trials = 1;
    obs::metrics_registry metrics_a;
    obs::metrics_registry metrics_b;
    const scale_result a = scale::run_scale(cfg, 1, &metrics_a, shared_cache_dir());
    const scale_result b = scale::run_scale(cfg, 4, &metrics_b, shared_cache_dir());
    EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
    EXPECT_EQ(metrics_a.to_json().dump(), metrics_b.to_json().dump());
    EXPECT_GT(a.events, 0u);
}

TEST(ScaleDes, SerialTrialMatchesRunScale)
{
    // run_scale_trial runs one trial's cells inline; run_scale shards them.
    // Both must fold to the same trial.
    auto cfg = small_config();
    cfg.trials = 1;
    const scale_result sharded = scale::run_scale(cfg, 4, nullptr, shared_cache_dir());
    const auto topo = scale::make_deployment(cfg.topology, cfg.scenario);
    auto table_cfg = cfg.phy;
    table_cfg.scenario = cfg.scenario;
    table_cfg.payload_bytes = cfg.payload_bytes;
    const auto cache = scale::phy_table::load_or_generate(table_cfg, 1, shared_cache_dir());
    const auto serial = scale::run_scale_trial(cfg, topo, cache.table, 0, nullptr);

    EXPECT_EQ(runtime::mix64(scale::fnv1a64_offset ^ serial.event_log_hash),
              sharded.event_log_hash);
    EXPECT_EQ(serial.events, sharded.events);
    EXPECT_EQ(serial.data_slots, sharded.data_slots);
    EXPECT_EQ(serial.probe_slots, sharded.probe_slots);
    EXPECT_EQ(serial.delivered, sharded.delivered);
    EXPECT_EQ(serial.transitions, sharded.transitions);
    EXPECT_EQ(serial.readmissions, sharded.readmissions);
    EXPECT_EQ(serial.delivered_per_tag, sharded.delivered_per_tag);
    EXPECT_EQ(serial.attempts_per_tag, sharded.attempts_per_tag);
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
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.attempts_per_tag, b.attempts_per_tag);
    EXPECT_EQ(a.delivered_per_tag, b.delivered_per_tag);
    EXPECT_EQ(a.readmit_latencies_rounds, b.readmit_latencies_rounds);
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
