// Observability layer: metric merge exactness (the additive-sufficient-
// statistics contract), view filtering, scoped timers, the event tracer's
// Chrome JSON output, and the --jobs invariance of metric snapshots and
// trace event counts when folded through the sweep runner.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/obs/scoped_timer.hpp"
#include "mmtag/obs/trace.hpp"
#include "mmtag/runtime/result_writer.hpp"
#include "mmtag/runtime/sweep_runner.hpp"
#include "mmtag/runtime/thread_pool.hpp"

#include "json_checker.hpp"

namespace mmtag::obs {
namespace {

using testutil::json_checker;

// ------------------------------------------------------------------- metrics

TEST(metrics_registry, counter_gauge_histogram_basics)
{
    metrics_registry registry;
    EXPECT_TRUE(registry.empty());

    registry.get_counter("a/events").add();
    registry.get_counter("a/events").add(4);
    EXPECT_EQ(registry.find_counter("a/events")->value(), 5u);

    auto& g = registry.get_gauge("a/level");
    g.set(2.0);
    g.set(-1.0);
    g.set(4.0);
    EXPECT_EQ(g.count(), 3u);
    EXPECT_DOUBLE_EQ(g.last(), 4.0);
    EXPECT_DOUBLE_EQ(g.min(), -1.0);
    EXPECT_DOUBLE_EQ(g.max(), 4.0);
    EXPECT_DOUBLE_EQ(g.sum(), 5.0);
    EXPECT_DOUBLE_EQ(g.mean(), 5.0 / 3.0);

    const double bounds[] = {1.0, 2.0, 4.0};
    auto& h = registry.get_histogram("a/latency", bounds);
    h.observe(0.5);  // bucket 0
    h.observe(2.0);  // bucket 1 (inclusive upper bound)
    h.observe(3.0);  // bucket 2
    h.observe(99.0); // overflow
    ASSERT_EQ(h.counts().size(), 4u);
    EXPECT_EQ(h.counts()[0], 1u);
    EXPECT_EQ(h.counts()[1], 1u);
    EXPECT_EQ(h.counts()[2], 1u);
    EXPECT_EQ(h.counts()[3], 1u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 104.5);

    EXPECT_EQ(registry.size(), 3u);
    EXPECT_EQ(registry.find_counter("missing"), nullptr);
    registry.clear();
    EXPECT_TRUE(registry.empty());
}

TEST(metrics_registry, merge_equals_sequential_accumulation)
{
    // The merge() contract: folding two partial registries must be
    // bit-identical to observing everything into one registry — with
    // exactly-representable values even the double sums match bytewise,
    // which is what the --jobs invariance of `--metrics` output rests on.
    const double bounds[] = {1.0, 10.0};
    metrics_registry sequential;
    metrics_registry part_a;
    metrics_registry part_b;
    const double values_a[] = {0.5, 2.0, 64.0};
    const double values_b[] = {1.0, 0.25, 512.0};
    for (const double v : values_a) {
        sequential.get_counter("n").add();
        sequential.get_gauge("g").set(v);
        sequential.get_histogram("h", bounds).observe(v);
        part_a.get_counter("n").add();
        part_a.get_gauge("g").set(v);
        part_a.get_histogram("h", bounds).observe(v);
    }
    for (const double v : values_b) {
        sequential.get_counter("n").add();
        sequential.get_gauge("g").set(v);
        sequential.get_histogram("h", bounds).observe(v);
        part_b.get_counter("n").add();
        part_b.get_gauge("g").set(v);
        part_b.get_histogram("h", bounds).observe(v);
    }
    metrics_registry merged;
    merged.merge(part_a);
    merged.merge(part_b);
    EXPECT_EQ(merged.to_json_string(), sequential.to_json_string());
    // `last` follows merge order: part_b's final value wins.
    EXPECT_DOUBLE_EQ(merged.find_gauge("g")->last(), 512.0);
}

TEST(metrics_registry, histogram_bound_mismatch_throws)
{
    const double bounds_a[] = {1.0, 2.0};
    const double bounds_b[] = {1.0, 3.0};
    metrics_registry registry;
    registry.get_histogram("h", bounds_a);
    EXPECT_THROW(registry.get_histogram("h", bounds_b), std::invalid_argument);

    metrics_registry other;
    other.get_histogram("h", bounds_b);
    EXPECT_THROW(registry.merge(other), std::invalid_argument);
}

TEST(metrics_registry, views_split_timing_from_deterministic)
{
    metrics_registry registry;
    registry.get_counter("link/frames").add(3);
    registry.get_histogram("time/multitag_capture", time_bounds_s()).observe(1e-3);

    EXPECT_TRUE(metrics_registry::is_timing_name("time/multitag_capture"));
    EXPECT_FALSE(metrics_registry::is_timing_name("link/frames"));

    const auto deterministic =
        registry.to_json_string(metric_view::deterministic);
    EXPECT_NE(deterministic.find("link/frames"), std::string::npos);
    EXPECT_EQ(deterministic.find("time/multitag_capture"), std::string::npos);

    const auto all = registry.to_json_string(metric_view::all);
    EXPECT_NE(all.find("link/frames"), std::string::npos);
    EXPECT_NE(all.find("time/multitag_capture"), std::string::npos);
    EXPECT_TRUE(json_checker(all).valid()) << all;
}

TEST(metrics_registry, non_finite_values_serialize_as_null)
{
    metrics_registry registry;
    registry.get_gauge("g").set(std::numeric_limits<double>::infinity());
    const auto text = registry.to_json_string();
    EXPECT_TRUE(json_checker(text).valid()) << text;
    EXPECT_NE(text.find("null"), std::string::npos);
    EXPECT_EQ(text.find("inf"), std::string::npos) << text;
    EXPECT_EQ(text.find("nan"), std::string::npos) << text;
}

// -------------------------------------------------------------- scoped timer

TEST(scoped_timer, records_into_time_histogram)
{
    metrics_registry registry;
    {
        MMTAG_SCOPED_TIMER(&registry, "time/block");
    }
    const auto* h = registry.find_histogram("time/block");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 1u);
    EXPECT_GE(h->sum(), 0.0);
}

TEST(scoped_timer, null_registry_is_a_no_op)
{
    {
        MMTAG_SCOPED_TIMER(static_cast<metrics_registry*>(nullptr), "time/none");
        MMTAG_SCOPED_TIMER(static_cast<metrics_registry*>(nullptr), "time/none");
    }
    SUCCEED();
}

// -------------------------------------------------------------------- tracer

TEST(tracer, session_collects_and_emits_chrome_json)
{
    tracer::start();
    EXPECT_TRUE(tracer::active());
    trace_instant("test.instant", "test", "{\"k\": 1}");
    {
        const trace_span span("test.span", "test");
    }
    tracer::stop();
    EXPECT_FALSE(tracer::active());

    const auto events = tracer::events();
    ASSERT_EQ(events.size(), 2u);
    const auto counts = tracer::event_counts();
    EXPECT_EQ(counts.at("test.instant"), 1u);
    EXPECT_EQ(counts.at("test.span"), 1u);

    const auto json = tracer::to_json();
    EXPECT_TRUE(json_checker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"test.instant\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"k\": 1"), std::string::npos);
}

TEST(tracer, inactive_emissions_are_dropped_silently)
{
    ASSERT_FALSE(tracer::active());
    trace_instant("test.orphan", "test");
    tracer::start();
    tracer::stop();
    EXPECT_EQ(tracer::event_counts().count("test.orphan"), 0u);
}

TEST(tracer, ring_overflow_counts_drops)
{
    tracer::start(/*events_per_thread=*/8);
    for (int i = 0; i < 32; ++i) trace_instant("test.burst", "test");
    tracer::stop();
    EXPECT_EQ(tracer::events().size(), 8u);
    EXPECT_EQ(tracer::dropped(), 24u);
}

TEST(tracer, write_creates_parseable_file)
{
    tracer::start();
    trace_instant("test.file", "test");
    tracer::stop();
    const auto path =
        std::filesystem::temp_directory_path() / "mmtag_obs_test_trace.json";
    ASSERT_TRUE(tracer::write(path.string()));
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    EXPECT_TRUE(json_checker(text).valid()) << text;
    std::filesystem::remove(path);
}

// ---------------------------------------------------- jobs invariance (sweep)

/// Sweep aggregate carrying a registry, mirroring the CLI's observed_report.
struct metered_trial {
    metrics_registry metrics;
    void merge(const metered_trial& other) { metrics.merge(other.metrics); }
};

metered_trial synthetic_metered_trial(std::size_t point, std::uint64_t seed)
{
    metered_trial out;
    out.metrics.get_counter("trial/runs").add();
    out.metrics.get_counter("trial/seed_bits").add(seed % 97);
    out.metrics.get_gauge("trial/level").set(static_cast<double>(seed % 17));
    const double bounds[] = {8.0, 32.0, 64.0};
    out.metrics.get_histogram("trial/mod", bounds)
        .observe(static_cast<double>((seed >> 8) % 100));
    out.metrics.get_counter("trial/point").add(point);
    // Wall-clock component: must never reach the deterministic view.
    out.metrics.get_histogram("time/trial", time_bounds_s()).observe(1e-4);
    return out;
}

std::string metered_sweep_snapshot(std::size_t jobs)
{
    runtime::sweep_options options;
    options.jobs = jobs;
    options.base_seed = 99;
    options.trials_per_point = 5;
    const auto out = runtime::run_sweep<metered_trial>(
        options, 4, [](std::size_t point, std::size_t, std::uint64_t seed) {
            return synthetic_metered_trial(point, seed);
        });
    metrics_registry merged;
    for (const auto& point : out.points) merged.merge(point.aggregate.metrics);
    return merged.to_json_string(metric_view::deterministic, 2);
}

TEST(obs_determinism, metric_snapshots_are_byte_identical_across_jobs)
{
    const auto serial = metered_sweep_snapshot(1);
    EXPECT_TRUE(json_checker(serial).valid()) << serial;
    EXPECT_EQ(serial, metered_sweep_snapshot(8));
    EXPECT_EQ(serial, metered_sweep_snapshot(3));
    // Timer data exists but stays out of the deterministic view.
    EXPECT_EQ(serial.find("time/trial"), std::string::npos);
    EXPECT_NE(serial.find("trial/runs"), std::string::npos);
}

std::map<std::string, std::uint64_t> traced_sweep_counts(std::size_t jobs)
{
    tracer::start();
    runtime::sweep_options options;
    options.jobs = jobs;
    options.base_seed = 7;
    options.trials_per_point = 4;
    (void)runtime::run_sweep<metered_trial>(
        options, 3, [](std::size_t point, std::size_t, std::uint64_t seed) {
            trace_instant("test.trial_body", "test");
            return synthetic_metered_trial(point, seed);
        });
    tracer::stop();
    return tracer::event_counts();
}

TEST(obs_determinism, trace_event_counts_are_jobs_invariant)
{
    // Timestamps and thread ids legitimately differ; the event *counts* per
    // name must not. Worker-thread rings are drained by the pool at batch
    // end, so nothing is lost on the parallel path.
    const auto serial = traced_sweep_counts(1);
    const auto parallel = traced_sweep_counts(8);
    EXPECT_EQ(serial.at("test.trial_body"), 12u);
    EXPECT_EQ(serial.at("sweep.trial"), 12u);
    EXPECT_EQ(serial.at("sweep.point"), 3u);
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(tracer::dropped(), 0u);
}

} // namespace
} // namespace mmtag::obs
