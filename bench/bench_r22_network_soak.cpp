// R22 — Network-scale chaos soak: graceful degradation under multi-tag
// faults (extension). A 6-tag network runs the network supervisor's session
// state machines through correlated blockage storms, rolling brownouts, and
// a persistent interferer while the number of faulted tags sweeps 0..3.
// Expected shape: the faulted tags lose delivery roughly in proportion to
// the injected outage time, while the never-faulted tags keep their
// fault-free share (the graceful-degradation invariant bounds the loss at
// 10%) and every quarantined session re-admits within the documented probe
// bound. Each soak cell also re-checks the full invariant set — transition
// legality, no starvation, frame conservation, bounded recovery — so the
// bench doubles as a resilience regression gate.
//
// Each cell's (trial x arm) grid fans out across the runtime thread pool
// inside net::run_soak; results fold in trial order and are bit-identical
// for any --jobs value.
#include <chrono>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mmtag/net/soak_harness.hpp"
#include "mmtag/runtime/result_writer.hpp"
#include "mmtag/runtime/thread_pool.hpp"

using namespace mmtag;

int main(int argc, char** argv)
{
    const auto opts = bench::bench_options::parse(
        argc, argv, {{"rounds", 36}, {"trials", 1}, {"fault-seed", 42}});

    constexpr std::size_t tag_count = 6;
    constexpr std::size_t max_faulted = 3;
    const std::size_t trials = opts.extra("trials");
    std::vector<net::soak_config> configs;
    for (std::size_t faulted = 0; faulted <= max_faulted; ++faulted) {
        net::soak_config cfg;
        cfg.tag_count = tag_count;
        cfg.faulted_count = faulted;
        cfg.rounds = opts.extra("rounds");
        cfg.trials = trials;
        cfg.seed = opts.seed;
        cfg.fault_seed = opts.extra("fault-seed");
        bench::validate_or_exit([&] { net::validate(cfg); });
        configs.push_back(cfg);
    }
    bench::banner("R22", "network chaos soak: degradation and re-admission vs faulted tags",
                  opts.csv);

    std::vector<net::soak_report> reports;
    const auto start = std::chrono::steady_clock::now();
    runtime::thread_pool pool(opts.jobs);
    for (const auto& cfg : configs) reports.push_back(net::run_soak(cfg, pool));
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    runtime::result_writer results(
        "R22", "network chaos soak: degradation and re-admission vs faulted tags",
        {"faulted_tags"}, opts.seed);
    bench::table out({"faulted", "faulted_delivery", "healthy_share", "transitions",
                      "readmissions", "max_readmit", "invariants"},
                     opts.csv);
    bool all_passed = true;
    for (std::size_t faulted = 0; faulted <= max_faulted; ++faulted) {
        const auto& report = reports[faulted];
        all_passed = all_passed && report.all_passed();

        // Delivery ratio over the faulted tags (1.0 when none are faulted).
        std::uint64_t faulted_delivered = 0;
        std::uint64_t faulted_reference = 0;
        for (std::size_t tag = 0; tag < faulted; ++tag) {
            faulted_delivered += report.delivered_per_tag[tag];
            faulted_reference += report.reference_per_tag[tag];
        }
        const double faulted_delivery =
            faulted_reference > 0 ? static_cast<double>(faulted_delivered) /
                                        static_cast<double>(faulted_reference)
                                  : 1.0;
        std::size_t invariants_passed = 0;
        for (const auto& inv : report.invariants) {
            if (inv.passed) ++invariants_passed;
        }
        out.add_row(
            {bench::fmt("%.0f", static_cast<double>(faulted)),
             bench::fmt("%.3f", faulted_delivery),
             report.healthy_share_min_observed >= 0.0
                 ? bench::fmt("%.3f", report.healthy_share_min_observed)
                 : std::string("n/a"),
             bench::fmt("%.0f", static_cast<double>(report.transitions)),
             bench::fmt("%.0f", static_cast<double>(report.readmissions)),
             bench::fmt("%.0f", static_cast<double>(report.max_readmit_rounds)),
             std::to_string(invariants_passed) + "/" +
                 std::to_string(report.invariants.size())});

        auto axis = runtime::json_value::object();
        axis.set("faulted_tags", runtime::json_value::unsigned_integer(faulted));
        auto metrics = runtime::json_value::object();
        metrics.set("faulted_delivery", runtime::json_value::number(faulted_delivery));
        metrics.set("healthy_share_min",
                    runtime::json_value::number(report.healthy_share_min_observed));
        metrics.set("transitions",
                    runtime::json_value::unsigned_integer(report.transitions));
        metrics.set("readmissions",
                    runtime::json_value::unsigned_integer(report.readmissions));
        metrics.set("max_readmit_rounds",
                    runtime::json_value::unsigned_integer(report.max_readmit_rounds));
        for (const auto& inv : report.invariants) {
            metrics.set("invariant_" + inv.name,
                        runtime::json_value::boolean(inv.passed));
        }
        results.add_point(std::move(axis), trials, std::move(metrics));
    }
    out.print();

    const std::size_t tasks = 2 * trials * (max_faulted + 1);
    bench::write_results(results, opts, max_faulted + 1, tasks, tasks, wall_s, pool.jobs());
    // The soak is a resilience gate, not just a report: a tripped invariant
    // is a bench failure.
    return all_passed ? 0 : 1;
}
