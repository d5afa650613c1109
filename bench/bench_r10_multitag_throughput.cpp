// R10 — Network throughput vs population.
// Two arms, both on the parallel Monte-Carlo runtime:
//
//  * analytic: tags scattered over range and orientation share the channel
//    via TDMA after inventory (budget-driven PHY, populations to 20). Each
//    point now averages many counter-seeded random placements instead of a
//    single layout. Expected shape: aggregate goodput stays near the
//    single-link ceiling (slotting overhead only) while per-tag goodput
//    divides by N; far/rotated tags run lower rates and drag the aggregate.
//
//  * sampled: the sample-accurate multitag_simulator runs one full slotted
//    capture per trial (every tag's reflection superposed on one AP
//    capture) and counts actually-delivered payload bits over the capture
//    airtime — the heavyweight cross-check that slotting really separates
//    tags at the waveform level, and the workload the --jobs speedup
//    summary is about.
#include <algorithm>

#include "bench_util.hpp"
#include "mmtag/core/multitag_simulator.hpp"
#include "mmtag/core/network.hpp"
#include "mmtag/phy/bitio.hpp"
#include "mmtag/runtime/gaussian_source.hpp"
#include "mmtag/runtime/result_writer.hpp"
#include "mmtag/runtime/sweep_runner.hpp"

using namespace mmtag;

namespace {

constexpr std::size_t kAnalyticPopulations[] = {1, 2, 4, 8, 12, 16, 20};
constexpr std::size_t kAnalyticTrials = 12;
constexpr std::size_t kSampledPopulations[] = {1, 2, 4, 8};
constexpr std::size_t kSampledTrials = 4;
constexpr std::size_t kSampledPayloadBytes = 24;

/// Order-preserving mergeable aggregate for both arms.
struct throughput_aggregate {
    double aggregate_bps_sum = 0.0;
    double per_tag_bps_sum = 0.0;
    double cycle_s_sum = 0.0;
    double slots_sum = 0.0;
    double min_snr_db = 1e9;
    double max_snr_db = -1e9;
    std::size_t delivered = 0;
    std::size_t offered = 0;
    std::size_t samples = 0;

    void merge(const throughput_aggregate& other)
    {
        aggregate_bps_sum += other.aggregate_bps_sum;
        per_tag_bps_sum += other.per_tag_bps_sum;
        cycle_s_sum += other.cycle_s_sum;
        slots_sum += other.slots_sum;
        min_snr_db = std::min(min_snr_db, other.min_snr_db);
        max_snr_db = std::max(max_snr_db, other.max_snr_db);
        delivered += other.delivered;
        offered += other.offered;
        samples += other.samples;
    }

    [[nodiscard]] double mean_aggregate_bps() const
    {
        return samples > 0 ? aggregate_bps_sum / static_cast<double>(samples) : 0.0;
    }
    [[nodiscard]] double mean_per_tag_bps() const
    {
        return samples > 0 ? per_tag_bps_sum / static_cast<double>(samples) : 0.0;
    }
    [[nodiscard]] double delivery_ratio() const
    {
        return offered > 0 ? static_cast<double>(delivered) / static_cast<double>(offered)
                           : 0.0;
    }
};

/// Deterministic spread used by the sampled arm (the original R10 layout).
std::vector<core::tag_descriptor> spread_tags(std::size_t count)
{
    std::vector<core::tag_descriptor> tags;
    for (std::uint32_t i = 0; i < count; ++i) {
        const double frac =
            count == 1 ? 0.0
                       : static_cast<double>(i) / static_cast<double>(count - 1);
        tags.push_back({i, 1.5 + 4.5 * frac, deg_to_rad(-25.0 + 50.0 * frac)});
    }
    return tags;
}

throughput_aggregate analytic_trial(std::size_t tag_count, std::uint64_t seed)
{
    runtime::gaussian_source rng(runtime::substream(seed, 0));
    std::vector<core::tag_descriptor> tags;
    for (std::uint32_t i = 0; i < tag_count; ++i) {
        tags.push_back({i, rng.uniform(1.5, 6.0), deg_to_rad(rng.uniform(-25.0, 25.0))});
    }
    const core::network net(bench::bench_scenario(), tags);
    const auto report = net.run(runtime::substream(seed, 1));

    throughput_aggregate agg;
    agg.aggregate_bps_sum = report.aggregate_goodput_bps;
    agg.per_tag_bps_sum = report.tdma.per_tag_goodput_bps;
    agg.cycle_s_sum = report.tdma.cycle_time_s;
    agg.slots_sum = static_cast<double>(report.inventory.slots_used);
    agg.min_snr_db = report.min_snr_db;
    agg.max_snr_db = report.max_snr_db;
    agg.delivered = report.inventory.tags_identified;
    agg.offered = report.inventory.tags_total;
    agg.samples = 1;
    return agg;
}

throughput_aggregate sampled_trial(std::size_t tag_count, std::uint64_t seed)
{
    auto cfg = bench::bench_scenario();
    cfg.seed = seed;
    core::multitag_simulator sim(cfg, spread_tags(tag_count));

    // Captures are bounded at 4 slots (the slot receiver's canceller
    // pre-roll is sized from the whole capture) and banded by range: a
    // 1.5 m tag returns ~24 dB more backscatter power than a 6 m one, and
    // that near-far spread inside a single capture window swamps the far
    // slot — so, like a real TDMA scheduler grouping similar-RSSI tags,
    // each capture only mixes tags within a 1.5x distance band. The clock
    // accumulates across all captures.
    constexpr std::size_t kSlotsPerCapture = 4;
    constexpr double kRangeBandRatio = 1.5;
    const auto tags = spread_tags(tag_count); // sorted by distance already
    const double slot_s = sim.burst_duration_s(kSampledPayloadBytes) + 20e-6;
    throughput_aggregate agg;
    std::size_t delivered_bits = 0;
    for (std::size_t first = 0; first < tag_count;) {
        std::size_t count = 1;
        while (first + count < tag_count && count < kSlotsPerCapture &&
               tags[first + count].distance_m <=
                   kRangeBandRatio * tags[first].distance_m) {
            ++count;
        }
        std::vector<core::tag_burst> bursts;
        for (std::size_t slot = 0; slot < count; ++slot) {
            bursts.push_back({.tag_index = first + slot,
                              .payload = phy::random_bytes(
                                  kSampledPayloadBytes,
                                  runtime::substream(seed, 2 + first + slot)),
                              .start_s = static_cast<double>(slot) * slot_s});
        }
        first += count;
        const auto outcomes = sim.run(bursts);
        for (const auto& outcome : outcomes) {
            if (outcome.delivered) {
                ++agg.delivered;
                delivered_bits += kSampledPayloadBytes * 8;
            }
            agg.min_snr_db = std::min(agg.min_snr_db, outcome.snr_db);
            agg.max_snr_db = std::max(agg.max_snr_db, outcome.snr_db);
        }
        agg.offered += outcomes.size();
    }
    const double capture_s = sim.clock_s();
    agg.cycle_s_sum = capture_s;
    agg.aggregate_bps_sum =
        capture_s > 0.0 ? static_cast<double>(delivered_bits) / capture_s : 0.0;
    agg.per_tag_bps_sum = agg.aggregate_bps_sum / static_cast<double>(tag_count);
    agg.samples = 1;
    return agg;
}

} // namespace

int main(int argc, char** argv)
{
    const auto opts = bench::bench_options::parse(argc, argv);
    bench::banner("R10", "TDMA network goodput vs number of tags", opts.csv);

    runtime::result_writer results("R10", "TDMA network goodput vs number of tags",
                                   {"section", "tags"}, opts.seed);

    // Analytic arm: populations to 20, averaged over random placements.
    runtime::sweep_options analytic;
    analytic.jobs = opts.jobs;
    analytic.base_seed = opts.seed;
    analytic.trials_per_point = kAnalyticTrials;
    analytic.progress = runtime::stderr_progress();
    const auto analytic_out = runtime::run_sweep<throughput_aggregate>(
        analytic, std::size(kAnalyticPopulations),
        [&](std::size_t point, std::size_t, std::uint64_t seed) {
            return analytic_trial(kAnalyticPopulations[point], seed);
        });

    bench::table analytic_table({"tags", "mean_slots", "cycle_ms", "per_tag_Mbps",
                                 "aggregate_Mbps", "min_snr_dB", "max_snr_dB"},
                                opts.csv);
    for (std::size_t point = 0; point < std::size(kAnalyticPopulations); ++point) {
        const auto& agg = analytic_out.points[point].aggregate;
        const double n = static_cast<double>(agg.samples);
        analytic_table.add_row(
            {std::to_string(kAnalyticPopulations[point]),
             bench::fmt("%.1f", agg.slots_sum / n),
             bench::fmt("%.3f", agg.cycle_s_sum / n * 1e3),
             bench::fmt("%.3f", agg.mean_per_tag_bps() / 1e6),
             bench::fmt("%.2f", agg.mean_aggregate_bps() / 1e6),
             bench::fmt("%.1f", agg.min_snr_db), bench::fmt("%.1f", agg.max_snr_db)});
        auto axis = runtime::json_value::object();
        axis.set("section", runtime::json_value::string("analytic"));
        axis.set("tags", runtime::json_value::unsigned_integer(kAnalyticPopulations[point]));
        auto metrics = runtime::json_value::object();
        metrics.set("aggregate_goodput_bps",
                    runtime::json_value::number(agg.mean_aggregate_bps()));
        metrics.set("per_tag_goodput_bps",
                    runtime::json_value::number(agg.mean_per_tag_bps()));
        metrics.set("mean_inventory_slots", runtime::json_value::number(agg.slots_sum / n));
        metrics.set("min_snr_db", runtime::json_value::number(agg.min_snr_db));
        metrics.set("max_snr_db", runtime::json_value::number(agg.max_snr_db));
        metrics.set("inventory_completion",
                    runtime::json_value::number(agg.delivery_ratio()));
        results.add_point(std::move(axis), kAnalyticTrials, std::move(metrics));
    }
    analytic_table.print();

    // Sampled arm: full slotted captures at the waveform level.
    runtime::sweep_options sampled;
    sampled.jobs = opts.jobs;
    sampled.base_seed = runtime::substream(opts.seed, 0x5a);
    sampled.trials_per_point = kSampledTrials;
    sampled.progress = runtime::stderr_progress();
    const auto sampled_out = runtime::run_sweep<throughput_aggregate>(
        sampled, std::size(kSampledPopulations),
        [&](std::size_t point, std::size_t, std::uint64_t seed) {
            return sampled_trial(kSampledPopulations[point], seed);
        });

    if (!opts.csv) std::printf("\nsample-accurate slotted captures:\n\n");
    bench::table sampled_table(
        {"tags", "delivery", "capture_ms", "aggregate_Mbps", "min_snr_dB"}, opts.csv);
    for (std::size_t point = 0; point < std::size(kSampledPopulations); ++point) {
        const auto& agg = sampled_out.points[point].aggregate;
        const double n = static_cast<double>(agg.samples);
        sampled_table.add_row({std::to_string(kSampledPopulations[point]),
                               bench::fmt("%.3f", agg.delivery_ratio()),
                               bench::fmt("%.3f", agg.cycle_s_sum / n * 1e3),
                               bench::fmt("%.3f", agg.mean_aggregate_bps() / 1e6),
                               bench::fmt("%.1f", agg.min_snr_db)});
        auto axis = runtime::json_value::object();
        axis.set("section", runtime::json_value::string("sampled"));
        axis.set("tags", runtime::json_value::unsigned_integer(kSampledPopulations[point]));
        auto metrics = runtime::json_value::object();
        metrics.set("aggregate_goodput_bps",
                    runtime::json_value::number(agg.mean_aggregate_bps()));
        metrics.set("delivery_ratio", runtime::json_value::number(agg.delivery_ratio()));
        metrics.set("mean_capture_s", runtime::json_value::number(agg.cycle_s_sum / n));
        metrics.set("min_snr_db", runtime::json_value::number(agg.min_snr_db));
        results.add_point(std::move(axis), kSampledTrials, std::move(metrics));
    }
    sampled_table.print();

    const double wall_s = analytic_out.wall_s + sampled_out.wall_s;
    const std::size_t trials = analytic_out.trials + sampled_out.trials;
    bench::write_results(results, opts,
                         std::size(kAnalyticPopulations) + std::size(kSampledPopulations),
                         trials, trials, wall_s, sampled_out.jobs);
    return 0;
}
