#include "mmtag/cli/commands.hpp"

#include <chrono>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/core/link_budget.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/core/metrics.hpp"
#include "mmtag/core/network.hpp"
#include "mmtag/core/supervised_link.hpp"
#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/mac/slotted_aloha.hpp"
#include "mmtag/net/soak_harness.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/obs/trace.hpp"
#include "mmtag/runtime/json_io.hpp"
#include "mmtag/runtime/result_writer.hpp"
#include "mmtag/scale/des_engine.hpp"
#include "mmtag/runtime/sweep_runner.hpp"
#include "mmtag/runtime/thread_pool.hpp"

namespace mmtag::cli {

namespace {

/// What the harness hands a command's run step.
struct run_context {
    std::size_t jobs = 0;                     ///< --jobs (Monte-Carlo commands)
    obs::metrics_registry* metrics = nullptr; ///< collect here; null without --metrics
};

/// What a run step hands back to the harness.
struct run_result {
    int exit_code = 0;
    std::size_t tasks = 0; ///< pool tasks, for the runtime line
    std::size_t jobs = 0;  ///< executors the run used
    /// Renders the --json document; called only when a path was given.
    std::function<std::string()> document{};
};

using run_step = std::function<run_result(const run_context&)>;

/// One mmtag_sim command. `parse` reads every option, validates it and
/// builds every config the command will run; it prints nothing and throws
/// std::invalid_argument on bad input. The step it returns does the work.
struct command {
    const char* name;
    const char* help; ///< usage lines for the command's own options
    run_step (*parse)(const option_set&);
    /// Monte-Carlo commands also take --jobs N (this default), --metrics[=FILE]
    /// and --trace FILE, and the harness prints their runtime line.
    bool monte_carlo = false;
    std::size_t default_jobs = 0;
    bool json = false; ///< also takes --json PATH
};

/// The fault schedule covers the first 120 ms of link time: the default 300
/// frames end inside it, and --mean-duration may not exceed it.
constexpr double fault_horizon_s = 0.12;
/// --fault-rate cap. The schedule stores about rate x 0.12 s events before
/// any output; at 10k events/s (1,200 events, a fault every 0.1 ms against a
/// 0.2 ms minimum duration) the link is already faulted throughout.
constexpr double max_fault_rate_hz = 1e4;

std::size_t get_size(const option_set& options, const char* key, std::size_t fallback)
{
    return static_cast<std::size_t>(options.get_uint(key, fallback));
}

/// Reads --scheme/--fec into `cfg`'s frame (transmit and receive).
void read_frame_options(const option_set& options, core::system_config& cfg)
{
    if (options.has("scheme")) {
        cfg.modulator.frame.scheme = parse_modulation(options.get_string("scheme", ""));
    }
    if (options.has("fec")) {
        cfg.modulator.frame.fec = parse_fec(options.get_string("fec", ""));
    }
    cfg.receiver.frame = cfg.modulator.frame;
}

void require_positive(std::size_t value, const char* key)
{
    if (value == 0) throw std::invalid_argument(std::string("--") + key + " must be >= 1");
}

run_step parse_link(const option_set& options)
{
    const std::string preset = options.get_string("preset", "default");
    core::system_config cfg;
    if (preset == "default") cfg = core::fast_scenario();
    else if (preset == "warehouse") cfg = core::warehouse_scenario();
    else if (preset == "wearable") cfg = core::wearable_scenario();
    else throw std::invalid_argument("--preset must be default, warehouse, or wearable");
    cfg.distance_m = options.get_double("distance", cfg.distance_m);
    cfg.tag_incidence_rad = deg_to_rad(options.get_double("angle", 0.0));
    read_frame_options(options, cfg);
    cfg.seed = options.get_uint("seed", 1);
    cfg.rician_k_db = options.get_double("k-factor", 100.0);
    const std::string reflector = options.get_string("reflector", "van-atta");
    if (reflector == "plate") cfg.reflector = core::reflector_kind::flat_plate;
    else if (reflector != "van-atta") {
        throw std::invalid_argument("--reflector must be van-atta or plate");
    }
    const std::size_t frames = get_size(options, "frames", 10);
    const std::size_t payload = get_size(options, "payload", 32);
    require_positive(frames, "frames");
    require_positive(payload, "payload");
    core::validate(cfg);

    return [=](const run_context&) {
        core::link_simulator sim(cfg);
        const auto report = sim.run_trials(frames, payload);
        std::printf("link: %.1f m, %.0f deg, %s/%s, %zu frames x %zu B\n", cfg.distance_m,
                    rad_to_deg(cfg.tag_incidence_rad),
                    phy::modulation_name(cfg.modulator.frame.scheme).c_str(),
                    phy::fec_mode_name(cfg.modulator.frame.fec), frames, payload);
        std::printf("  snr      %.1f dB\n", report.mean_snr_db);
        std::printf("  evm      %.1f dB\n", report.mean_evm_db);
        std::printf("  ber      %s\n",
                    core::format_ber(report.ber, frames * payload * 8).c_str());
        std::printf("  per      %.3f\n", report.per);
        std::printf("  goodput  %.3f Mb/s\n", report.goodput_bps / 1e6);
        std::printf("  energy   %.2f nJ/bit\n", report.tag_energy_per_bit_j * 1e9);
        return run_result{.exit_code = report.per < 1.0 ? 0 : 2};
    };
}

run_step parse_budget(const option_set& options)
{
    auto cfg = core::fast_scenario();
    cfg.transmitter.tx_power_dbm = options.get_double("tx-power", 27.0);
    cfg.van_atta.element_count = get_size(options, "elements", 8);
    const double start = options.get_double("start", 0.5);
    const double stop = options.get_double("stop", 10.0);
    const std::size_t points = get_size(options, "points", 8);
    if (points < 2) throw std::invalid_argument("--points must be >= 2");
    if (!(start > 0.0)) throw std::invalid_argument("--start must be > 0");
    if (!(stop > start)) throw std::invalid_argument("--stop must be > --start");
    core::validate(cfg);
    // Builds the reflector the budget reads: a bad --elements throws here.
    (void)core::make_channel_config(cfg);

    return [=](const run_context&) {
        const core::link_budget budget(cfg);
        std::printf("%-10s %-14s %-14s %-10s\n", "range_m", "at_tag_dBm", "at_AP_dBm",
                    "SNR_dB");
        for (const auto& entry : budget.sweep(start, stop, points)) {
            std::printf("%-10.2f %-14.1f %-14.1f %-10.1f\n", entry.distance_m,
                        entry.incident_at_tag_dbm, entry.received_at_ap_dbm, entry.snr_db);
        }
        for (const auto& option : ap::rate_table()) {
            std::printf("max range %-7s %-9s: %.1f m\n",
                        phy::modulation_name(option.scheme).c_str(),
                        phy::fec_mode_name(option.fec),
                        budget.max_range_m(option.required_snr_db + 2.0));
        }
        return run_result{};
    };
}

run_step parse_network(const option_set& options)
{
    const std::size_t tag_count = get_size(options, "tags", 20);
    const double max_range = options.get_double("max-range", 8.0);
    const std::size_t payload = get_size(options, "payload", 256);
    const std::uint64_t seed = options.get_uint("seed", 1);
    require_positive(tag_count, "tags");
    const auto tags = core::uniform_population(tag_count, 1.0, max_range, seed);

    return [=](const run_context&) {
        const core::network net(core::fast_scenario(), tags);
        const auto report = net.run(seed, payload);
        std::printf("network: %zu tags within %.1f m\n", tag_count, max_range);
        std::printf("  inventory  %zu/%zu in %zu slots (%.0f%% efficiency)\n",
                    report.inventory.tags_identified, report.inventory.tags_total,
                    report.inventory.slots_used, 100.0 * report.inventory.efficiency());
        std::printf("  snr range  %.1f .. %.1f dB\n", report.min_snr_db,
                    report.max_snr_db);
        std::printf("  tdma       %.3f ms cycle, %.2f Mb/s aggregate\n",
                    report.tdma.cycle_time_s * 1e3, report.aggregate_goodput_bps / 1e6);
        return run_result{.exit_code = report.inventory.complete() ? 0 : 2};
    };
}

run_step parse_inventory(const option_set& options)
{
    const std::size_t tag_count = get_size(options, "tags", 50);
    const std::size_t seeds = get_size(options, "seeds", 10);
    mac::aloha_config cfg;
    cfg.singleton_success = options.get_double("success", 0.98);
    require_positive(tag_count, "tags");
    require_positive(seeds, "seeds");
    const mac::aloha_inventory inventory(cfg);

    return [=](const run_context&) {
        double slots = 0.0;
        double efficiency = 0.0;
        std::size_t incomplete = 0;
        for (std::size_t s = 0; s < seeds; ++s) {
            const auto stats = inventory.run(tag_count, 100 + s);
            slots += static_cast<double>(stats.slots_used);
            efficiency += stats.efficiency();
            if (!stats.complete()) ++incomplete;
        }
        std::printf("inventory: %zu tags, %zu seeds, PHY success %.2f\n", tag_count,
                    seeds, cfg.singleton_success);
        std::printf("  mean slots       %.1f\n", slots / static_cast<double>(seeds));
        std::printf("  mean efficiency  %.3f (1/e ideal %.3f)\n",
                    efficiency / static_cast<double>(seeds),
                    mac::aloha_inventory::theoretical_peak_efficiency(tag_count));
        std::printf("  incomplete runs  %zu\n", incomplete);
        return run_result{.exit_code = incomplete == 0 ? 0 : 2};
    };
}

run_step parse_faults(const option_set& options)
{
    fault::fault_schedule::config sched_cfg;
    sched_cfg.horizon_s = fault_horizon_s;
    sched_cfg.event_rate_hz = options.get_double("fault-rate", 150.0);
    const double mean_duration_ms = options.get_double("mean-duration", 2.0);
    sched_cfg.mean_duration_s = mean_duration_ms * 1e-3;
    const std::size_t frames = get_size(options, "frames", 300);
    const std::size_t payload = get_size(options, "payload", 24);
    auto cfg = core::fast_scenario();
    cfg.distance_m = options.get_double("distance", 4.0);
    cfg.seed = options.get_uint("seed", 11);
    const std::uint64_t fault_seed = options.get_uint("fault-seed", 42);
    const std::size_t trials = get_size(options, "trials", 1);
    if (!(sched_cfg.event_rate_hz >= 0.0 && sched_cfg.event_rate_hz <= max_fault_rate_hz)) {
        throw std::invalid_argument("--fault-rate must be in [0, 10000] events/s");
    }
    if (!(mean_duration_ms > 0.0 && sched_cfg.mean_duration_s <= fault_horizon_s)) {
        throw std::invalid_argument("--mean-duration must be in (0, 120] ms");
    }
    require_positive(frames, "frames");
    require_positive(payload, "payload");
    require_positive(trials, "trials");
    core::validate(cfg);
    const fault::fault_schedule schedule(sched_cfg, fault_seed);

    return [=](const run_context& context) {
        std::printf("faults: %.0f events/s, mean %.1f ms, %zu frames x %zu B, "
                    "fault seed %llu, %zu trial%s\n",
                    sched_cfg.event_rate_hz, mean_duration_ms, frames, payload,
                    static_cast<unsigned long long>(fault_seed), trials,
                    trials == 1 ? "" : "s");
        for (const auto kind :
             {fault::fault_kind::blockage, fault::fault_kind::carrier_dropout,
              fault::fault_kind::lo_step, fault::fault_kind::interferer,
              fault::fault_kind::brownout}) {
            std::printf("  %-16s %zu scheduled\n", fault::fault_kind_name(kind),
                        schedule.count(kind));
        }

        // Task grid on the runtime pool: (trial, arm) pairs, each with its own
        // simulator, injector and registry. Trial t perturbs the link with
        // fault seed fault_seed + t (trial 0 reproduces the single-trial
        // output exactly); reports and registries fold in task order, so the
        // output is bit-identical for any --jobs value.
        struct arm_result {
            ap::supervised_report report;
            obs::metrics_registry metrics;
        };
        runtime::thread_pool pool(context.jobs);
        const auto arms =
            runtime::ordered_parallel_results(pool, 2 * trials, [&](std::size_t task) {
                arm_result out;
                const fault::fault_schedule trial_schedule(sched_cfg, fault_seed + task / 2);
                core::link_simulator link(cfg);
                fault::fault_injector faults{trial_schedule};
                fault::fault_injector* injector =
                    sched_cfg.event_rate_hz > 0.0 ? &faults : nullptr;
                obs::metrics_registry* registry =
                    context.metrics != nullptr ? &out.metrics : nullptr;
                if (registry != nullptr) {
                    link.attach_metrics(registry);
                    if (injector != nullptr) injector->attach_metrics(registry);
                }
                if (task % 2 == 0) {
                    ap::supervisor_config sup_cfg;
                    sup_cfg.metrics = registry;
                    out.report =
                        core::run_supervised_link(link, injector, sup_cfg, frames, payload);
                } else {
                    out.report = core::run_baseline_link(link, injector, 8, frames, payload);
                }
                return out;
            });

        ap::supervised_report sup = arms[0].report;
        ap::supervised_report base = arms[1].report;
        for (std::size_t t = 1; t < trials; ++t) {
            sup.merge(arms[2 * t].report);
            base.merge(arms[2 * t + 1].report);
        }
        if (context.metrics != nullptr) {
            for (const auto& arm : arms) context.metrics->merge(arm.metrics);
        }

        std::printf("  %-14s %10s %10s\n", "", "supervised", "plain-arq");
        std::printf("  %-14s %10.3f %10.3f\n", "goodput Mb/s", sup.goodput_bps / 1e6,
                    base.goodput_bps / 1e6);
        std::printf("  %-14s %10.3f %10.3f\n", "delivery", sup.delivery_ratio(),
                    base.delivery_ratio());
        std::printf("  %-14s %10.2f %10.2f\n", "elapsed ms", sup.elapsed_s * 1e3,
                    base.elapsed_s * 1e3);
        std::printf("  supervisor: %zu outages, %zu recoveries, %zu reacquisitions, "
                    "%zu probes\n",
                    sup.recovery.outages, sup.recovery.recoveries,
                    sup.recovery.reacquisitions, sup.recovery.probes);
        std::printf("  supervisor: detect %.2f ms mean / %.2f ms max, recover %.2f ms "
                    "mean / %.2f ms max\n",
                    sup.recovery.mean_detect_s() * 1e3, sup.recovery.detect_max_s * 1e3,
                    sup.recovery.mean_recover_s() * 1e3,
                    sup.recovery.recover_max_s * 1e3);

        // Exit 3: the supervisor saw outages but never completed a recovery —
        // the resilience machinery itself failed, which is worse than merely
        // losing the goodput comparison (exit 2).
        int code = sup.goodput_bps >= base.goodput_bps ? 0 : 2;
        if (sup.recovery.outages > 0 && sup.recovery.recoveries == 0) code = 3;
        return run_result{.exit_code = code, .tasks = 2 * trials, .jobs = pool.jobs()};
    };
}

run_step parse_soak(const option_set& options)
{
    net::soak_config cfg;
    cfg.tag_count = get_size(options, "tags", 6);
    cfg.faulted_count = get_size(options, "faulted", 2);
    cfg.rounds = get_size(options, "rounds", 36);
    cfg.payload_bytes = get_size(options, "payload", 16);
    cfg.trials = get_size(options, "trials", 2);
    cfg.seed = options.get_uint("seed", 1);
    cfg.fault_seed = options.get_uint("fault-seed", 42);
    cfg.min_range_m = options.get_double("min-range", cfg.min_range_m);
    cfg.max_range_m = options.get_double("max-range", cfg.max_range_m);
    net::validate(cfg);

    return [=](const run_context& context) {
        std::printf("soak: %zu tags (%zu faulted), %zu rounds x %zu trials, "
                    "seed %llu, fault seed %llu\n",
                    cfg.tag_count, cfg.faulted_count, cfg.rounds, cfg.trials,
                    static_cast<unsigned long long>(cfg.seed),
                    static_cast<unsigned long long>(cfg.fault_seed));
        runtime::thread_pool pool(context.jobs);
        const net::soak_report report = net::run_soak(cfg, pool, context.metrics);

        std::printf("  %-10s %12s %12s\n", "tag", "faulted", "reference");
        for (std::size_t i = 0; i < report.delivered_per_tag.size(); ++i) {
            std::printf("  %-10zu %12llu %12llu%s\n", i,
                        static_cast<unsigned long long>(report.delivered_per_tag[i]),
                        static_cast<unsigned long long>(report.reference_per_tag[i]),
                        i < report.faulted_count ? "  (faulted)" : "");
        }
        std::printf("  sessions: %zu transitions, %zu readmissions, "
                    "max readmit latency %zu rounds\n",
                    report.transitions, report.readmissions, report.max_readmit_rounds);
        if (report.healthy_share_min_observed >= 0.0) {
            std::printf("  healthy-tag delivery share: %.3f (bound %.3f)\n",
                        report.healthy_share_min_observed, cfg.healthy_share_min);
        }
        for (const auto& inv : report.invariants) {
            std::printf("  invariant %-22s %s%s%s\n", inv.name.c_str(),
                        inv.passed ? "pass" : "FAIL", inv.passed ? "" : ": ",
                        inv.detail.c_str());
        }
        return run_result{.exit_code = report.all_passed() ? 0 : 3,
                          .tasks = 2 * cfg.trials,
                          .jobs = pool.jobs(),
                          .document = [report] { return report.to_json().dump(2); }};
    };
}

run_step parse_scale(const option_set& options)
{
    scale::scale_config cfg;
    cfg.topology.tag_count = get_size(options, "tags", 1000);
    cfg.topology.ap_count = get_size(options, "aps", 4);
    cfg.topology.layout = scale::parse_layout(options.get_string("layout", "grid"));
    cfg.topology.floor_m = options.get_double("floor", cfg.topology.floor_m);
    cfg.frames = get_size(options, "frames", 50);
    cfg.payload_bytes = get_size(options, "payload", 16);
    cfg.faulted = get_size(options, "faulted", cfg.topology.tag_count / 10);
    cfg.seed = options.get_uint("seed", 1);
    cfg.fault_seed = options.get_uint("fault-seed", 42);
    cfg.trials = get_size(options, "trials", 1);
    cfg.scenario = core::fast_scenario();
    scale::validate(cfg);

    return [=](const run_context& context) {
        std::printf("scale: %zu tags, %zu APs (%s layout), %zu rounds x %zu trials, "
                    "seed %llu, fault seed %llu (%zu tags faulted)\n",
                    cfg.topology.tag_count, cfg.topology.ap_count,
                    scale::layout_name(cfg.topology.layout), cfg.frames, cfg.trials,
                    static_cast<unsigned long long>(cfg.seed),
                    static_cast<unsigned long long>(cfg.fault_seed), cfg.faulted);
        scale::scale_result result = scale::run_scale(cfg, context.jobs, context.metrics);

        std::printf("  phy table: %s (%s)\n", result.phy_table_path.c_str(),
                    result.cache_hit ? "cache hit" : "regenerated");
        std::printf("  %llu events, %llu data slots, %llu probe slots over %.3f s "
                    "simulated\n",
                    static_cast<unsigned long long>(result.events),
                    static_cast<unsigned long long>(result.data_slots),
                    static_cast<unsigned long long>(result.probe_slots),
                    result.sim_time_s);
        std::printf("  delivered %llu frames (%.0f bps aggregate goodput, fairness "
                    "%.3f)\n",
                    static_cast<unsigned long long>(result.delivered),
                    result.goodput_bps(), result.fairness_index());
        std::printf("  sessions: %llu transitions, %llu readmissions, readmit "
                    "latency mean %.1f / max %llu rounds\n",
                    static_cast<unsigned long long>(result.transitions),
                    static_cast<unsigned long long>(result.readmissions),
                    result.readmit_latency_mean_rounds,
                    static_cast<unsigned long long>(result.readmit_latency_max_rounds));
        const std::size_t jobs = result.jobs;
        return run_result{
            .tasks = cfg.trials * cfg.topology.ap_count, // one per (trial, cell)
            .jobs = jobs,
            .document = [result = std::move(result)] { return result.to_json().dump(2); }};
    };
}

/// Sweep aggregate pairing the link report with the trial's observability
/// registry, so metrics ride the same pre-allocated-slot + ordered-fold path
/// as the report itself (and stay --jobs-invariant for free).
struct observed_report {
    core::link_report report;
    obs::metrics_registry metrics;

    void merge(const observed_report& other)
    {
        report.merge(other.report);
        metrics.merge(other.metrics);
    }
};

run_step parse_sweep(const option_set& options)
{
    const double start_m = options.get_double("start", 1.0);
    const double stop_m = options.get_double("stop", 6.0);
    const std::size_t points = get_size(options, "points", 6);
    const std::size_t trials = get_size(options, "trials", 4);
    const std::size_t frames = get_size(options, "frames", 6);
    const std::size_t payload = get_size(options, "payload", 32);
    const std::uint64_t seed = options.get_uint("seed", 1);
    auto cfg = core::fast_scenario();
    read_frame_options(options, cfg);
    require_positive(points, "points");
    require_positive(trials, "trials");
    require_positive(frames, "frames");
    require_positive(payload, "payload");
    if (stop_m < start_m) throw std::invalid_argument("--stop must be >= --start");
    std::vector<double> distances(points, start_m);
    for (std::size_t point = 1; point < points; ++point) {
        distances[point] = start_m + (stop_m - start_m) * static_cast<double>(point) /
                                         static_cast<double>(points - 1);
    }
    for (const double distance : distances) {
        auto point_cfg = cfg;
        point_cfg.distance_m = distance;
        core::validate(point_cfg);
    }

    return [=](const run_context& context) {
        std::printf("sweep: %.1f..%.1f m over %zu points, %zu trials x %zu frames x "
                    "%zu B (%s/%s)\n",
                    start_m, stop_m, points, trials, frames, payload,
                    phy::modulation_name(cfg.modulator.frame.scheme).c_str(),
                    phy::fec_mode_name(cfg.modulator.frame.fec));

        runtime::sweep_options sweep;
        sweep.jobs = context.jobs;
        sweep.base_seed = seed;
        sweep.trials_per_point = trials;
        sweep.progress = runtime::stderr_progress();
        const auto out = runtime::run_sweep<observed_report>(
            sweep, points, [&](std::size_t point, std::size_t, std::uint64_t trial_seed) {
                auto trial_cfg = cfg;
                trial_cfg.distance_m = distances[point];
                trial_cfg.seed = trial_seed;
                core::link_simulator sim(trial_cfg);
                observed_report result;
                if (context.metrics != nullptr) sim.attach_metrics(&result.metrics);
                result.report = sim.run_trials(frames, payload);
                return result;
            });

        std::printf("%-10s %-10s %-12s %-10s %-8s %-12s\n", "range_m", "snr_dB", "ber",
                    "ber_ci95", "per", "goodput_Mbps");
        runtime::result_writer results("SWEEP", "BER/goodput vs distance (CLI sweep)",
                                       {"distance_m"}, seed);
        for (std::size_t point = 0; point < points; ++point) {
            const auto& report = out.points[point].aggregate.report;
            if (context.metrics != nullptr) {
                context.metrics->merge(out.points[point].aggregate.metrics);
            }
            std::printf("%-10.2f %-10.1f %-12.2e %-10.2e %-8.3f %-12.3f\n",
                        distances[point], report.mean_snr_db, report.ber,
                        report.ber_confidence(), report.per, report.goodput_bps / 1e6);
            auto axis = runtime::json_value::object();
            axis.set("distance_m", runtime::json_value::number(distances[point]));
            results.add_point(std::move(axis), trials,
                              runtime::result_writer::metrics(report));
        }
        if (context.metrics != nullptr) {
            // Deterministic view into the result document (schema /2).
            results.set_metrics(context.metrics->to_json(obs::metric_view::deterministic));
        }
        return run_result{.tasks = out.trials,
                          .jobs = out.jobs,
                          .document = [results, wall_s = out.wall_s, jobs = out.jobs,
                                       rate = out.trials_per_s()] {
                              return results.document(wall_s, jobs, rate);
                          }};
    };
}

const command commands[] = {
    {.name = "link",
     .help = "end-to-end single-link simulation\n"
             "             --distance M --angle DEG --scheme bpsk|qpsk|8psk|16psk\n"
             "             --fec none|1/2|2/3|3/4 --frames N --payload BYTES\n"
             "             --preset default|warehouse|wearable\n"
             "             --reflector van-atta|plate --k-factor DB --seed S",
     .parse = parse_link},
    {.name = "budget",
     .help = "analytic link budget sweep\n"
             "             --start M --stop M --points N --tx-power DBM --elements N",
     .parse = parse_budget},
    {.name = "network",
     .help = "inventory + TDMA over a random population\n"
             "             --tags N --max-range M --payload BYTES --seed S",
     .parse = parse_network},
    {.name = "inventory",
     .help = "slotted-ALOHA statistics\n"
             "             --tags N --seeds N --success P",
     .parse = parse_inventory},
    {.name = "faults",
     .help = "fault-injected link, supervisor on vs off\n"
             "             --fault-rate HZ (<= 10000) --mean-duration MS (<= 120)\n"
             "             --frames N --payload BYTES --distance M --seed S\n"
             "             --fault-seed S --trials N",
     .parse = parse_faults,
     .monte_carlo = true,
     .default_jobs = 1},
    {.name = "soak",
     .help = "chaos soak: network supervisor vs multi-tag faults,\n"
             "             invariant-checked (exit 3 on any failure)\n"
             "             --tags N --faulted N --rounds N --payload BYTES\n"
             "             --trials N --seed S --fault-seed S --min-range M\n"
             "             --max-range M",
     .parse = parse_soak,
     .monte_carlo = true,
     .json = true},
    {.name = "scale",
     .help = "PHY-abstracted discrete-event network simulation\n"
             "             --tags N --aps N --layout grid|poisson|clustered\n"
             "             --floor M --frames N --payload BYTES --faulted N --seed S\n"
             "             --fault-seed S --trials N",
     .parse = parse_scale,
     .monte_carlo = true,
     .json = true},
    {.name = "sweep",
     .help = "parallel BER/goodput vs distance Monte-Carlo sweep\n"
             "             --start M --stop M --points N --trials N --frames N\n"
             "             --payload BYTES --scheme MOD --fec MODE --seed S",
     .parse = parse_sweep,
     .monte_carlo = true,
     .json = true},
};

std::string usage()
{
    std::string text = "usage: mmtag_sim <command> [--key value ...]\n\ncommands:\n";
    char line[96];
    for (const command& cmd : commands) {
        std::snprintf(line, sizeof line, "  %-10s ", cmd.name);
        text += line + std::string(cmd.help) + "\n";
        if (!cmd.monte_carlo) continue;
        std::snprintf(line, sizeof line,
                      "             --jobs N (0 = all cores; default %zu)%s\n",
                      cmd.default_jobs, cmd.json ? " --json PATH" : "");
        text += line;
        text += "             --metrics[=FILE] --trace FILE\n";
    }
    return text + "  help       this text\n";
}

void write_text_file(const std::string& path, const std::string& text)
{
    if (!runtime::write_text_file(path, text)) return;
    std::printf("wrote %s\n", path.c_str());
}

/// Starts a trace session scoped to the command when a path was given;
/// stops and writes on destruction.
class trace_session {
public:
    explicit trace_session(std::string path) : path_(std::move(path))
    {
        if (!path_.empty()) obs::tracer::start();
    }
    ~trace_session()
    {
        if (path_.empty()) return;
        obs::tracer::stop();
        if (obs::tracer::write(path_)) {
            std::printf("wrote %s\n", path_.c_str());
        } else {
            std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
        }
    }

    trace_session(const trace_session&) = delete;
    trace_session& operator=(const trace_session&) = delete;

private:
    std::string path_;
};

/// The harness: parse (all validation, no output), reject typos, then run
/// under the shared --trace/--metrics/--json handling and runtime line.
int run_command(const command& cmd, const option_set& options)
{
    run_context context;
    obs::metrics_registry metrics;
    std::string metrics_path; // empty: print the snapshot instead
    std::string trace_path;   // empty: tracing off
    std::string json_path;
    if (cmd.monte_carlo) {
        context.jobs = get_size(options, "jobs", cmd.default_jobs);
        if (options.has("metrics")) {
            context.metrics = &metrics;
            // A bare `--metrics` reads as "true": print, write no file.
            metrics_path = options.get_string("metrics", "");
            if (metrics_path == "true") metrics_path.clear();
        }
        trace_path = options.get_value("trace", "");
        if (cmd.json) json_path = options.get_value("json", "");
    }
    const run_step run = cmd.parse(options);
    const auto leftover = options.unconsumed();
    if (!leftover.empty()) throw std::invalid_argument("unknown option --" + leftover.front());

    const trace_session trace(trace_path);
    const auto start = std::chrono::steady_clock::now();
    const run_result result = run(context);
    if (!cmd.monte_carlo) return result.exit_code;

    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    std::printf("  runtime: %zu tasks in %.2f s wall (%zu jobs)\n", result.tasks, wall_s,
                result.jobs);
    if (!json_path.empty()) write_text_file(json_path, result.document());
    if (context.metrics != nullptr) {
        const std::string snapshot =
            metrics.to_json_string(obs::metric_view::deterministic, 2);
        if (metrics_path.empty()) std::printf("metrics:\n%s\n", snapshot.c_str());
        else write_text_file(metrics_path, snapshot);
    }
    return result.exit_code;
}

} // namespace

int dispatch(int argc, const char* const* argv)
{
    try {
        const auto options = option_set::parse(argc, argv);
        if (options.command() == "help") {
            std::printf("%s", usage().c_str());
            return 0;
        }
        for (const command& cmd : commands) {
            if (options.command() == cmd.name) return run_command(cmd, options);
        }
        std::fprintf(stderr, "unknown command '%s'\n%s", options.command().c_str(),
                     usage().c_str());
        return 1;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n%s", error.what(), usage().c_str());
        return 1;
    }
}

} // namespace mmtag::cli
