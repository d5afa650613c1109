// Discrete-event engine determinism: identical seeds replay byte-identically
// across --jobs 1 vs 8 (event logs, hashes, and emitted JSON), events run in
// (time, creation order) across cells, a pinned golden log guards the
// engine's exact output, and the accounting invariants (frame conservation,
// event counts) hold under faults.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mmtag/obs/metrics_registry.hpp"
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
    cfg.record_event_log = true;
    // Coarse calibration grid: engine behaviour, not statistics, is under
    // test, and generation happens once thanks to the shared cache dir.
    cfg.phy.frames_per_point = 8;
    return cfg;
}

using scale::fnv1a64;

struct log_line {
    std::uint64_t seq = 0;
    double time_s = 0.0;
    std::uint32_t ap = 0;
    std::string kind;
};

std::vector<log_line> parse_log(const std::string& log)
{
    std::vector<log_line> lines;
    std::istringstream in(log);
    std::string text;
    while (std::getline(in, text)) {
        std::istringstream fields(text);
        log_line line;
        fields >> line.seq >> line.time_s >> line.ap >> line.kind;
        lines.push_back(line);
    }
    return lines;
}

TEST(ScaleDes, SimultaneousEventsAcrossCellsRunInCreationOrder)
{
    auto cfg = small_config();
    cfg.trials = 1;
    const scale_result r = scale::run_scale(cfg, 1, nullptr, shared_cache_dir());
    ASSERT_EQ(r.event_logs.size(), 1u);
    const auto lines = parse_log(r.event_logs[0]);
    ASSERT_EQ(lines.size(), r.events);

    // Both cells start at t = 0: their round_begins (created in cell order)
    // run first, then each cell's first slot, again in creation order.
    ASSERT_GE(lines.size(), 4u);
    EXPECT_EQ(lines[0].seq, 0u);
    EXPECT_EQ(lines[0].ap, 0u);
    EXPECT_EQ(lines[0].kind, "round");
    EXPECT_EQ(lines[1].seq, 1u);
    EXPECT_EQ(lines[1].ap, 1u);
    EXPECT_EQ(lines[1].kind, "round");
    EXPECT_EQ(lines[2].ap, 0u);
    EXPECT_EQ(lines[3].ap, 1u);
    EXPECT_EQ(lines[3].time_s, 0.0);
    EXPECT_LT(lines[2].seq, lines[3].seq);

    // Along the whole log (time, seq) rises strictly, seq rises within each
    // cell, and every sequence number runs exactly once.
    std::set<std::uint64_t> seen;
    std::vector<std::int64_t> last_seq(cfg.topology.ap_count, -1);
    std::size_t cross_cell_ties = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_TRUE(seen.insert(lines[i].seq).second) << "seq " << lines[i].seq;
        ASSERT_LT(lines[i].ap, cfg.topology.ap_count);
        if (i > 0) {
            const auto& prev = lines[i - 1];
            EXPECT_TRUE(prev.time_s < lines[i].time_s ||
                        (prev.time_s == lines[i].time_s && prev.seq < lines[i].seq))
                << "line " << i;
            if (prev.time_s == lines[i].time_s && prev.ap != lines[i].ap) ++cross_cell_ties;
        }
        const auto seq = static_cast<std::int64_t>(lines[i].seq);
        EXPECT_LT(last_seq[lines[i].ap], seq) << "line " << i;
        last_seq[lines[i].ap] = seq;
    }
    EXPECT_GE(cross_cell_ties, 2u);
    ASSERT_FALSE(seen.empty());
    EXPECT_EQ(*seen.rbegin(), r.events - 1);
}

TEST(ScaleDes, GoldenEventLogIsUnchanged)
{
    // Recorded from the engine's first (global event heap) implementation:
    // any change to event order, sequence numbering, packet draws or the
    // log line format moves these values.
    const auto cfg = small_config();
    const scale_result r = scale::run_scale(cfg, 1, nullptr, shared_cache_dir());
    EXPECT_EQ(r.events, 1344u);
    EXPECT_EQ(r.event_log_hash, 0xe160353b14ce9e48ULL);
    ASSERT_EQ(r.event_logs.size(), cfg.trials);
    const std::string& log = r.event_logs[0];
    EXPECT_EQ(log.size(), 9906u);
    EXPECT_EQ(fnv1a64(log), 0x8e60d0d1919bd03bULL);
    const std::string head = "0 0.000000000 0 round 0 0 -1\n"
                             "1 0.000000000 1 round 0 0 -1\n"
                             "2 0.000000000 0 data 0 3 0\n"
                             "24 0.000000000 1 data 3 2 1\n"
                             "3 0.000072000 0 data 1 3 1\n"
                             "25 0.000081600 1 data 4 3 1\n";
    EXPECT_EQ(log.substr(0, head.size()), head);
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
