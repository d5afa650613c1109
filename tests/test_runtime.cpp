// The parallel Monte-Carlo runtime: shard pool semantics, the frozen
// counter-based seeding scheme, the jobs-invariance determinism contract,
// replay under injected faults on the parallel path, and the stability of
// the JSON result schema.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mmtag/core/link_simulator.hpp"
#include "mmtag/core/metrics.hpp"
#include "mmtag/core/multitag_simulator.hpp"
#include "mmtag/core/config.hpp"
#include "mmtag/core/supervised_link.hpp"
#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/phy/bitio.hpp"
#include "mmtag/runtime/result_writer.hpp"
#include "mmtag/runtime/sweep_runner.hpp"
#include "mmtag/runtime/thread_pool.hpp"
#include "mmtag/runtime/trial_rng.hpp"

#include "json_checker.hpp"

namespace mmtag::runtime {
namespace {

// ---------------------------------------------------------------- thread_pool

TEST(thread_pool, runs_every_index_exactly_once)
{
    constexpr std::size_t count = 1000;
    std::vector<std::atomic<int>> hits(count);
    thread_pool pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    pool.parallel_for(count, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(thread_pool, single_job_runs_inline_in_order)
{
    thread_pool pool(1);
    EXPECT_EQ(pool.jobs(), 1u);
    std::vector<std::size_t> order;
    pool.parallel_for(16, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), std::this_thread::get_id());
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(thread_pool, empty_range_and_reuse)
{
    thread_pool pool(3);
    pool.parallel_for(0, [&](std::size_t) { FAIL() << "body ran for count 0"; });
    std::atomic<std::size_t> total{0};
    pool.parallel_for(7, [&](std::size_t) { total.fetch_add(1); });
    pool.parallel_for(5, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 12u);
}

TEST(thread_pool, propagates_first_exception)
{
    thread_pool pool(4);
    EXPECT_THROW(pool.parallel_for(64,
                                   [&](std::size_t i) {
                                       if (i == 13) {
                                           throw std::runtime_error("boom");
                                       }
                                   }),
                 std::runtime_error);
    // Pool must survive a failed batch.
    std::atomic<std::size_t> total{0};
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 8u);
}

TEST(thread_pool, nested_parallel_for_throws_instead_of_deadlocking)
{
    thread_pool pool(4);
    std::atomic<std::size_t> nested_throws{0};
    pool.parallel_for(16, [&](std::size_t) {
        try {
            pool.parallel_for(2, [](std::size_t) {});
        } catch (const std::logic_error&) {
            nested_throws.fetch_add(1);
        }
    });
    // Every body observed the guard; none deadlocked waiting on itself.
    EXPECT_EQ(nested_throws.load(), 16u);
    // The pool stays usable after the rejected nested calls.
    std::atomic<std::size_t> total{0};
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 8u);
}

TEST(thread_pool, nested_call_throws_on_inline_pool_too)
{
    // jobs == 1 has no worker threads, but the contract is identical.
    thread_pool pool(1);
    bool threw = false;
    pool.parallel_for(4, [&](std::size_t) {
        try {
            pool.parallel_for(1, [](std::size_t) {});
        } catch (const std::logic_error&) {
            threw = true;
        }
    });
    EXPECT_TRUE(threw);
    std::size_t ran = 0;
    pool.parallel_for(3, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran, 3u);
}

TEST(thread_pool, guard_clears_after_exceptional_batch)
{
    // An exception escaping a body must not leave the busy flag stuck.
    thread_pool pool(2);
    EXPECT_THROW(pool.parallel_for(
                     4, [&](std::size_t) { throw std::runtime_error("boom"); }),
                 std::runtime_error);
    std::atomic<std::size_t> total{0};
    pool.parallel_for(4, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 4u);
}

TEST(thread_pool, resolve_jobs_auto_is_positive)
{
    EXPECT_GE(resolve_jobs(0), 1u);
    EXPECT_EQ(resolve_jobs(1), 1u);
    EXPECT_EQ(resolve_jobs(6), 6u);
    thread_pool pool(0);
    EXPECT_GE(pool.jobs(), 1u);
}

// ------------------------------------------------------------------ trial_rng

TEST(trial_rng, constants_are_frozen)
{
    // mix64 is the SplitMix64 output function; mix64(0) is the well-known
    // first output of a seed-0 splitmix stream. Recorded BENCH_*.json
    // baselines depend on these values never changing.
    EXPECT_EQ(mix64(0), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(trial_seed(1, 0, 0), mix64(mix64(mix64(1))));
    EXPECT_EQ(substream(7, 0), mix64(7 ^ 0xa0761d6478bd642fULL));
}

TEST(trial_rng, seeds_are_deterministic_and_distinct)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t point = 0; point < 16; ++point) {
        for (std::uint64_t trial = 0; trial < 16; ++trial) {
            const auto seed = trial_seed(42, point, trial);
            EXPECT_EQ(seed, trial_seed(42, point, trial));
            EXPECT_TRUE(seen.insert(seed).second)
                << "collision at point " << point << " trial " << trial;
        }
    }
    // Different base seeds give unrelated streams.
    EXPECT_NE(trial_seed(1, 0, 0), trial_seed(2, 0, 0));
    // Substreams of one trial differ from the trial seed and each other.
    const auto seed = trial_seed(1, 3, 5);
    EXPECT_NE(substream(seed, 0), seed);
    EXPECT_NE(substream(seed, 0), substream(seed, 1));
}

// ----------------------------------------------------------------- run_sweep

/// Cheap deterministic stand-in workload: counts pseudo-random "errors".
core::error_counter synthetic_trial(std::size_t point, std::uint64_t seed)
{
    core::error_counter counter;
    std::uint64_t x = seed;
    for (std::size_t block = 0; block < 8; ++block) {
        x = mix64(x);
        counter.add_bits(64 + point, static_cast<std::size_t>(x % 5));
    }
    return counter;
}

TEST(sweep_runner, shapes_and_counts)
{
    sweep_options options;
    options.jobs = 2;
    options.base_seed = 9;
    options.trials_per_point = 3;
    std::atomic<std::size_t> progress_calls{0};
    options.progress = [&](std::size_t done, std::size_t total) {
        EXPECT_LE(done, total);
        progress_calls.fetch_add(1);
    };
    const auto out = run_sweep<core::error_counter>(
        options, 4,
        [](std::size_t point, std::size_t, std::uint64_t seed) {
            return synthetic_trial(point, seed);
        });
    EXPECT_EQ(out.points.size(), 4u);
    EXPECT_EQ(out.trials, 12u);
    EXPECT_EQ(out.jobs, 2u);
    EXPECT_EQ(progress_calls.load(), 12u);
    EXPECT_GE(out.wall_s, 0.0);
    for (const auto& point : out.points) {
        EXPECT_EQ(point.aggregate.bits() % 8, 0u); // 3 trials x 8 blocks
        EXPECT_GE(point.busy_s, 0.0);
    }
}

TEST(sweep_runner, rejects_zero_trials)
{
    sweep_options options;
    options.trials_per_point = 0;
    EXPECT_THROW(run_sweep<core::error_counter>(
                     options, 1,
                     [](std::size_t, std::size_t, std::uint64_t) {
                         return core::error_counter{};
                     }),
                 std::invalid_argument);
}

TEST(sweep_runner, jobs_invariant_error_counts)
{
    const auto run_with = [](std::size_t jobs) {
        sweep_options options;
        options.jobs = jobs;
        options.base_seed = 77;
        options.trials_per_point = 6;
        return run_sweep<core::error_counter>(
            options, 5,
            [](std::size_t point, std::size_t, std::uint64_t seed) {
                return synthetic_trial(point, seed);
            });
    };
    const auto serial = run_with(1);
    const auto parallel = run_with(8);
    ASSERT_EQ(serial.points.size(), parallel.points.size());
    for (std::size_t p = 0; p < serial.points.size(); ++p) {
        EXPECT_EQ(serial.points[p].aggregate.bits(), parallel.points[p].aggregate.bits());
        EXPECT_EQ(serial.points[p].aggregate.bit_errors(),
                  parallel.points[p].aggregate.bit_errors());
    }
}

// ----------------------------------------------------------- progress printer

/// Drives a progress callback and returns everything it wrote to a tmpfile.
std::string capture_progress(bool tty, std::size_t total)
{
    std::FILE* stream = std::tmpfile();
    EXPECT_NE(stream, nullptr);
    auto progress = progress_printer(stream, tty);
    for (std::size_t done = 1; done <= total; ++done) progress(done, total);
    std::fflush(stream);
    std::rewind(stream);
    std::string captured;
    char buffer[256];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, stream)) > 0) {
        captured.append(buffer, n);
    }
    std::fclose(stream);
    return captured;
}

TEST(progress_printer, tty_mode_rewrites_and_terminates_with_newline)
{
    const std::string captured = capture_progress(/*tty=*/true, 3);
    // Carriage-return frames while running...
    EXPECT_NE(captured.find("\rsweep: 1/3 trials"), std::string::npos);
    EXPECT_NE(captured.find("\rsweep: 3/3 trials"), std::string::npos);
    // ...and the completion line is newline-terminated so the shell prompt
    // (or the next printf) starts on a fresh line.
    ASSERT_FALSE(captured.empty());
    EXPECT_EQ(captured.back(), '\n');
}

TEST(progress_printer, non_tty_mode_prints_plain_decile_lines)
{
    const std::string captured = capture_progress(/*tty=*/false, 20);
    // No '\r' frames anywhere: piped logs stay line-oriented.
    EXPECT_EQ(captured.find('\r'), std::string::npos);
    // One line per completed decile, each newline-terminated.
    EXPECT_NE(captured.find("sweep: 2/20 trials (10%)\n"), std::string::npos);
    EXPECT_NE(captured.find("sweep: 20/20 trials (100%)\n"), std::string::npos);
    std::size_t lines = 0;
    for (const char c : captured) lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, 10u);
    EXPECT_EQ(captured.back(), '\n');
}

TEST(progress_printer, non_tty_mode_skips_repeat_deciles)
{
    // Repeated callbacks within the same decile stay silent.
    std::FILE* stream = std::tmpfile();
    ASSERT_NE(stream, nullptr);
    auto progress = progress_printer(stream, /*tty=*/false);
    progress(1, 100);
    progress(5, 100);
    progress(10, 100);
    progress(10, 100);
    std::fflush(stream);
    std::rewind(stream);
    std::string captured;
    char buffer[256];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, stream)) > 0) {
        captured.append(buffer, n);
    }
    std::fclose(stream);
    EXPECT_EQ(captured, "sweep: 10/100 trials (10%)\n");
}

// --------------------------------------------- determinism regression (R5ish)

/// A miniature R5-style sweep over real link simulations, rendered through
/// the result_writer; the aggregates JSON must be byte-identical no matter
/// how many jobs executed it.
std::string link_sweep_aggregates(std::size_t jobs)
{
    constexpr double kDistances[] = {2.0, 4.0};
    sweep_options options;
    options.jobs = jobs;
    options.base_seed = 5;
    options.trials_per_point = 3;
    const auto out = run_sweep<core::link_report>(
        options, std::size(kDistances),
        [&](std::size_t point, std::size_t, std::uint64_t seed) {
            auto cfg = core::fast_scenario();
            cfg.distance_m = kDistances[point];
            cfg.seed = seed;
            core::link_simulator sim(cfg);
            return sim.run_trials(2, 16);
        });
    result_writer results("TEST", "determinism regression", {"distance_m"}, 5);
    for (std::size_t point = 0; point < std::size(kDistances); ++point) {
        auto axis = json_value::object();
        axis.set("distance_m", json_value::number(kDistances[point]));
        results.add_point(std::move(axis), options.trials_per_point,
                          result_writer::metrics(out.points[point].aggregate));
    }
    return results.aggregates_json();
}

TEST(determinism, link_sweep_json_is_byte_identical_across_jobs)
{
    const auto serial = link_sweep_aggregates(1);
    EXPECT_EQ(serial, link_sweep_aggregates(8));
    EXPECT_EQ(serial, link_sweep_aggregates(3));
    // And stable across repeat runs of the same configuration.
    EXPECT_EQ(serial, link_sweep_aggregates(1));
}

TEST(determinism, faulted_trials_replay_on_parallel_path)
{
    // The faults CLI path: (trial x arm) tasks over the pool, each with its
    // own simulator and counter-derived fault schedule. Running the grid
    // under 1 and 4 jobs must produce identical reports slot for slot.
    const auto run_grid = [](std::size_t jobs) {
        constexpr std::size_t trials = 3;
        fault::fault_schedule::config sched_cfg;
        sched_cfg.horizon_s = 0.03;
        sched_cfg.event_rate_hz = 200.0;
        sched_cfg.mean_duration_s = 1e-3;
        std::vector<ap::supervised_report> reports(trials);
        thread_pool pool(jobs);
        pool.parallel_for(trials, [&](std::size_t t) {
            auto cfg = core::fast_scenario();
            cfg.distance_m = 4.0;
            cfg.seed = 11;
            core::link_simulator link(cfg);
            fault::fault_injector faults{
                fault::fault_schedule(sched_cfg, 42 + t)};
            reports[t] = core::run_supervised_link(link, &faults, {}, 30, 16);
        });
        return reports;
    };
    const auto serial = run_grid(1);
    const auto parallel = run_grid(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t t = 0; t < serial.size(); ++t) {
        EXPECT_EQ(serial[t].frames_offered, parallel[t].frames_offered);
        EXPECT_EQ(serial[t].frames_delivered, parallel[t].frames_delivered);
        EXPECT_EQ(serial[t].recovery.outages, parallel[t].recovery.outages);
        EXPECT_EQ(serial[t].recovery.reacquisitions,
                  parallel[t].recovery.reacquisitions);
        EXPECT_DOUBLE_EQ(serial[t].elapsed_s, parallel[t].elapsed_s);
        EXPECT_DOUBLE_EQ(serial[t].goodput_bps, parallel[t].goodput_bps);
    }
}

// ----------------------------------------------------------------- JSON model

using testutil::json_checker;

TEST(json_model, serialization_is_ordered_and_escaped)
{
    auto doc = json_value::object();
    doc.set("zeta", json_value::integer(-3));
    doc.set("alpha", json_value::string("line\n\"quoted\"\\"));
    doc.set("flag", json_value::boolean(true));
    auto arr = json_value::array();
    arr.push(json_value::number(0.5));
    arr.push(json_value::null());
    doc.set("items", std::move(arr));
    // Insertion order, not alphabetical; escapes applied.
    EXPECT_EQ(doc.dump(),
              "{\"zeta\":-3,\"alpha\":\"line\\n\\\"quoted\\\"\\\\\","
              "\"flag\":true,\"items\":[0.5,null]}");
    EXPECT_TRUE(json_checker(doc.dump()).valid());
    EXPECT_TRUE(json_checker(doc.dump(2)).valid());
    // Duplicate keys overwrite in place (stable position).
    doc.set("zeta", json_value::integer(9));
    EXPECT_EQ(doc.dump().find("\"zeta\":9"), 1u);
}

TEST(json_model, numbers_round_trip)
{
    for (const double v : {0.0, 1.0, -1.5, 1.0 / 3.0, 3.333e-5, 1e20, 123456.789}) {
        auto value = json_value::number(v);
        const auto text = value.dump();
        EXPECT_DOUBLE_EQ(std::stod(text), v) << text;
    }
    EXPECT_EQ(json_value::unsigned_integer(18446744073709551615ULL).dump(),
              "18446744073709551615");
}

TEST(result_writer, documents_are_schema_valid)
{
    result_writer results("R99", "schema test", {"x"}, 4);
    core::error_counter counter;
    counter.add_bits(1000, 3);
    auto axis = json_value::object();
    axis.set("x", json_value::number(1.0));
    results.add_point(std::move(axis), 2, result_writer::metrics(counter));

    const auto aggregates = results.aggregates_json();
    EXPECT_TRUE(json_checker(aggregates).valid()) << aggregates;
    EXPECT_NE(aggregates.find("\"schema\": \"mmtag.bench.result/1\""),
              std::string::npos);
    EXPECT_NE(aggregates.find("\"id\": \"R99\""), std::string::npos);
    EXPECT_NE(aggregates.find("\"axes\""), std::string::npos);
    EXPECT_NE(aggregates.find("\"trials\": 2"), std::string::npos);
    // The run section only appears in the full document.
    EXPECT_EQ(aggregates.find("\"run\""), std::string::npos);

    const auto document = results.document(1.5, 4, 8.0);
    EXPECT_TRUE(json_checker(document).valid()) << document;
    EXPECT_NE(document.find("\"run\""), std::string::npos);
    EXPECT_NE(document.find("\"jobs\": 4"), std::string::npos);
    EXPECT_NE(document.find("\"git\":"), std::string::npos);

    EXPECT_EQ(default_output_path("R99"), "bench/out/BENCH_R99.json");
}

TEST(result_writer, zero_observation_ratios_serialize_as_null)
{
    // A point with no observed bits/frames must not claim BER 0.0 (or emit
    // bare nan): the ratio metrics are null, the count metrics stay 0, and
    // the document still parses.
    result_writer results("R98", "zero observations", {"x"}, 1);
    auto axis = json_value::object();
    axis.set("x", json_value::number(0.0));
    results.add_point(std::move(axis), 1,
                      result_writer::metrics(core::error_counter{}));
    auto axis2 = json_value::object();
    axis2.set("x", json_value::number(1.0));
    results.add_point(std::move(axis2), 1, result_writer::metrics(core::link_report{}));

    const auto document = results.document(0.1, 1, 10.0);
    EXPECT_TRUE(json_checker(document).valid()) << document;
    EXPECT_NE(document.find("\"ber\": null"), std::string::npos) << document;
    EXPECT_NE(document.find("\"per\": null"), std::string::npos) << document;
    EXPECT_NE(document.find("\"mean_snr_db\": null"), std::string::npos) << document;
    EXPECT_NE(document.find("\"bits\": 0"), std::string::npos) << document;
    EXPECT_EQ(document.find("nan"), std::string::npos) << document;
    EXPECT_EQ(document.find("inf"), std::string::npos) << document;

    // Populated counters keep numeric ratios.
    core::error_counter counter;
    counter.add_bits(100, 1);
    const auto populated = result_writer::metrics(counter).dump();
    EXPECT_EQ(populated.find("\"ber\":null"), std::string::npos) << populated;
    EXPECT_NE(populated.find("\"ber\":0.01"), std::string::npos) << populated;
}

TEST(result_writer, metrics_snapshot_switches_schema_to_v2)
{
    result_writer results("R97", "schema v2", {"x"}, 2);
    auto axis = json_value::object();
    axis.set("x", json_value::number(1.0));
    core::error_counter counter;
    counter.add_bits(8, 0);
    results.add_point(std::move(axis), 1, result_writer::metrics(counter));

    // Without a metrics snapshot the document stays on schema /1, with no
    // sweep-wide "metrics" or "profile" members — byte-compatible with old
    // consumers. (Per-point "metrics" objects exist in both schemas, so the
    // registry snapshot is detected by its "counters" section.)
    const auto v1 = results.document(0.1, 1, 10.0);
    EXPECT_NE(v1.find("\"schema\": \"mmtag.bench.result/1\""), std::string::npos);
    EXPECT_EQ(v1.find("\"counters\""), std::string::npos);
    EXPECT_EQ(v1.find("\"profile\""), std::string::npos);

    auto snapshot = json_value::object();
    auto counters = json_value::object();
    counters.set("link/frames", json_value::unsigned_integer(8));
    snapshot.set("counters", std::move(counters));
    results.set_metrics(std::move(snapshot));

    const auto v2 = results.document(0.1, 1, 10.0);
    EXPECT_TRUE(json_checker(v2).valid()) << v2;
    EXPECT_NE(v2.find("\"schema\": \"mmtag.bench.result/2\""), std::string::npos);
    EXPECT_NE(v2.find("\"link/frames\": 8"), std::string::npos);
    EXPECT_EQ(v2.find("\"profile\""), std::string::npos);
    // The sweep-wide snapshot is part of the deterministic half.
    const auto aggregates = results.aggregates_json();
    EXPECT_NE(aggregates.find("\"schema\": \"mmtag.bench.result/2\""),
              std::string::npos);
    EXPECT_NE(aggregates.find("\"link/frames\": 8"), std::string::npos);
    EXPECT_EQ(aggregates.find("\"profile\""), std::string::npos);

    EXPECT_THROW(results.set_metrics(json_value::array()), std::invalid_argument);
}

} // namespace
} // namespace mmtag::runtime
