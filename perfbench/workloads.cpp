#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "mmtag/ap/receiver.hpp"
#include "mmtag/ap/transmitter.hpp"
#include "mmtag/channel/backscatter_channel.hpp"
#include "mmtag/core/config.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/dsp/pulse_shape.hpp"
#include "mmtag/dsp/timing_recovery.hpp"
#include "mmtag/net/soak_harness.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/phy/bitio.hpp"
#include "mmtag/phy/frame.hpp"
#include "mmtag/phy/preamble.hpp"
#include "mmtag/runtime/json_io.hpp"
#include "mmtag/runtime/sweep_runner.hpp"
#include "mmtag/runtime/thread_pool.hpp"
#include "mmtag/runtime/trial_rng.hpp"
#include "mmtag/scale/des_engine.hpp"
#include "mmtag/tag/modulator.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using mmtag::cf64;
using mmtag::cvec;
using mmtag::runtime::json_value;
namespace core = mmtag::core;
namespace net = mmtag::net;
namespace obs = mmtag::obs;
namespace runtime = mmtag::runtime;
namespace scale = mmtag::scale;

/// Seed of the exactness probe: its statistics are recorded in
/// perfbench/reference.json and must repeat bit for bit.
constexpr std::uint64_t reference_seed = 1;

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start)
{
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

json_value num(double v) { return json_value::number(v); }
json_value uint(std::uint64_t v) { return json_value::unsigned_integer(v); }

double ratio(double num_value, double den) { return den > 0.0 ? num_value / den : 0.0; }

template <typename T>
json_value uint_array(const std::vector<T>& values)
{
    auto out = json_value::array();
    for (const T v : values) out.push(uint(static_cast<std::uint64_t>(v)));
    return out;
}

json_value number_array(const std::vector<double>& values)
{
    auto out = json_value::array();
    for (const double v : values) out.push(num(v));
    return out;
}

double percentile(std::vector<double> values, double q)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

/// Quantile of a fixed-bucket histogram, interpolated geometrically inside
/// the bucket that holds it (the time buckets are log-spaced).
double histogram_quantile(const obs::histogram& h, double q)
{
    if (h.count() == 0) return 0.0;
    const auto& bounds = h.upper_bounds();
    const auto& counts = h.counts();
    const double target = q * static_cast<double>(h.count());
    double seen = 0.0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
        const auto c = static_cast<double>(counts[b]);
        if (c > 0.0 && seen + c >= target) {
            if (b == bounds.size()) return bounds.back();
            const double hi = bounds[b];
            const double lo = b == 0 ? hi / 3.0 : bounds[b - 1];
            return lo * std::pow(hi / lo, (target - seen) / c);
        }
        seen += c;
    }
    return bounds.back();
}

std::uint64_t counter_value(const obs::metrics_registry& registry, const std::string& name)
{
    const obs::counter* c = registry.find_counter(name);
    return c != nullptr ? c->value() : 0;
}

std::string fresh_dir(const std::string& root, const std::string& name)
{
    const std::filesystem::path dir = std::filesystem::path(root) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

double peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Moves the calling thread to the next of its allowed CPUs, then gives
/// it back its full affinity mask. Single-trial work runs on the calling
/// thread (the pool's caller is an executor too) and stays on whichever CPU
/// it starts on, while the CPUs of a shared host drift in speed
/// independently of each other. Starting each timed operation on the next
/// CPU in turn makes a run sample all of them; the operation itself runs
/// with the full mask, so the program schedules its threads as it would.
void next_cpu()
{
    static std::size_t turn = 0;
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    if (cpus.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[turn++ % cpus.size()], &one);
    if (sched_setaffinity(0, sizeof one, &one) == 0) sched_setaffinity(0, sizeof allowed, &allowed);
}

/// Runs `op` until `seconds` have passed and at least `min_ops` ran, each
/// operation starting on the next CPU.
void timed_loop(double seconds, std::size_t min_ops, const std::function<void()>& op)
{
    const auto start = clock_type::now();
    for (std::size_t done = 0; done < min_ops || seconds_since(start) < seconds; ++done) {
        next_cpu();
        op();
    }
}

/// What a traced layer group reports back: its per-layer metrics, its pool
/// tasks (for the runtime metrics), and work rates with tracing off and on.
struct group_trace {
    std::map<std::string, double> layers;
    std::vector<double> task_s; ///< pool task durations
    double busy_s = 0.0;
    double wall_s = 0.0;
    std::size_t jobs = 1;
    double untraced_rate = 0.0;
    double traced_rate = 0.0;
    std::uint64_t compared = 0;   ///< outcomes compared against the entry point
    std::uint64_t mismatches = 0; ///< of those, outcomes that differed
};

// ---------------------------------------------------------------- link --

struct link_inputs {
    core::system_config cfg = core::fast_scenario();
    double start_m = 2.0;
    double stop_m = 16.0;
    std::size_t points = 8;
    std::size_t trials = 8;
    std::size_t frames = 40;
    std::size_t payload = 32;
    std::uint64_t base_seed = 1;

    [[nodiscard]] double distance(std::size_t point) const
    {
        return start_m + (stop_m - start_m) * static_cast<double>(point) /
                             static_cast<double>(points - 1);
    }
    [[nodiscard]] core::system_config point_config(std::size_t point,
                                                   std::uint64_t seed) const
    {
        core::system_config c = cfg;
        c.distance_m = distance(point);
        c.seed = seed;
        return c;
    }
};

link_inputs make_link_inputs(std::uint64_t seed, std::size_t trials, std::size_t frames)
{
    link_inputs in;
    in.cfg.modulator.frame.scheme = mmtag::phy::modulation::qpsk;
    in.cfg.modulator.frame.fec = mmtag::phy::fec_mode::conv_half;
    in.cfg.receiver.frame = in.cfg.modulator.frame;
    in.trials = trials;
    in.frames = frames;
    in.base_seed = runtime::substream(seed, 1);
    return in;
}

link_inputs link_workload(bool small, std::uint64_t seed)
{
    return small ? make_link_inputs(seed, 2, 5) : make_link_inputs(seed, 8, 40);
}

link_inputs link_probe() { return make_link_inputs(reference_seed, 1, 4); }

json_value link_point_json(double distance, std::uint64_t frames, std::uint64_t delivered,
                           std::uint64_t bits, std::uint64_t bit_errors)
{
    auto p = json_value::object();
    p.set("distance_m", num(distance));
    p.set("frames", uint(frames));
    p.set("delivered", uint(delivered));
    p.set("bits", uint(bits));
    p.set("bit_errors", uint(bit_errors));
    return p;
}

json_value link_inputs_json(const link_inputs& in)
{
    auto out = json_value::object();
    out.set("scheme", json_value::string(mmtag::phy::modulation_name(in.cfg.modulator.frame.scheme)));
    out.set("fec", json_value::string(mmtag::phy::fec_mode_name(in.cfg.modulator.frame.fec)));
    out.set("start_m", num(in.start_m));
    out.set("stop_m", num(in.stop_m));
    out.set("points", uint(in.points));
    out.set("trials_per_point", uint(in.trials));
    out.set("frames_per_trial", uint(in.frames));
    out.set("payload_bytes", uint(in.payload));
    out.set("sweep_seed", uint(in.base_seed));
    return out;
}

/// One timed operation: the whole sweep through runtime::run_sweep.
json_value link_sweep_op(const link_inputs& in, std::size_t jobs)
{
    runtime::sweep_options options;
    options.jobs = jobs;
    options.base_seed = in.base_seed;
    options.trials_per_point = in.trials;
    const auto start = clock_type::now();
    const auto out = runtime::run_sweep<core::link_report>(
        options, in.points, [&](std::size_t point, std::size_t, std::uint64_t seed) {
            core::link_simulator sim(in.point_config(point, seed));
            return sim.run_trials(in.frames, in.payload);
        });
    const double wall = seconds_since(start);

    auto points = json_value::array();
    std::uint64_t frames = 0;
    for (std::size_t p = 0; p < in.points; ++p) {
        const auto& r = out.points[p].aggregate;
        frames += r.frames;
        points.push(link_point_json(in.distance(p), r.frames, r.frames_delivered, r.bits,
                                    r.bit_errors));
    }
    auto op = json_value::object();
    op.set("wall_s", num(wall));
    op.set("work", uint(frames));
    op.set("points", std::move(points));
    return op;
}

/// Set-up a user pays before the first frame: building every sweep point's
/// simulator (configuration validation, channel, modulator, RF chain).
double link_setup(const link_inputs& in)
{
    const auto start = clock_type::now();
    for (std::size_t p = 0; p < in.points; ++p) {
        const core::link_simulator sim(in.point_config(p, in.base_seed + p));
        if (sim.parameters().distance_m <= 0.0) throw std::logic_error("bad distance");
    }
    return seconds_since(start);
}

/// run_frame's chain composed from the public calls of each layer, with
/// the seeds link_simulator gives its components. The receiver is split by
/// running front_end and decode_frame on a copy that holds the same noise
/// state, then receive() on the original; receive's self time after those
/// two is the sync stage.
class link_chain {
public:
    explicit link_chain(const core::system_config& cfg)
        : cfg_((core::validate(cfg), cfg)),
          channel_(core::make_channel_config(cfg)),
          modulator_(cfg.modulator),
          transmitter_(cfg.transmitter, cfg.seed * 7919 + 1),
          receiver_(cfg.receiver, cfg.seed * 104729 + 2)
    {
    }

    struct outcome {
        bool found = false;
        bool delivered = false;
        std::size_t bit_errors = 0;
        std::size_t capture = 0;
        bool split_agrees = true; ///< copy's decode matches receive()
    };

    outcome run(std::span<const std::uint8_t> payload)
    {
        ++trial_;
        if (cfg_.rician_k_db < 80.0) {
            channel_.redraw_fading(cfg_.seed * 6364136223846793005ULL + trial_);
        }
        mmtag::tag::modulated_frame frame;
        {
            const scoped_span span("tag.modulate");
            frame = modulator_.modulate(payload);
        }
        const std::size_t sps = modulator_.samples_per_symbol();
        const std::size_t margin =
            4 * sps + static_cast<std::size_t>(std::ceil(
                          2.5 * cfg_.receiver.canceller.tail_fraction *
                          static_cast<double>(frame.gamma.size())));
        const std::size_t base =
            frame.gamma.size() + 2 * channel_.one_way_delay_samples() + margin;
        const double training = cfg_.receiver.canceller.training_fraction +
                                cfg_.receiver.canceller.training_skip;
        const auto lead =
            static_cast<std::size_t>(std::ceil(2.0 * training * static_cast<double>(base))) +
            sps;
        cvec gamma(lead, frame.gamma.front());
        gamma.insert(gamma.end(), frame.gamma.begin(), frame.gamma.end());
        outcome out;
        out.capture = base + lead;

        mmtag::ap::ap_transmitter::query query;
        {
            const scoped_span span("ap.tx_generate");
            query = transmitter_.generate(out.capture);
        }
        cvec antenna;
        {
            const scoped_span span("channel.propagate");
            antenna = channel_.ap_received(query.rf, gamma);
        }

        mmtag::ap::ap_receiver split = receiver_;
        cvec cleaned;
        {
            const scoped_span span("ap.front_end");
            cleaned = split.front_end(antenna, query.lo);
        }
        const auto split_decode = decode_cleaned(cleaned);

        mmtag::ap::reception rx;
        {
            const scoped_span span("ap.receive");
            rx = receiver_.receive(antenna, query.lo);
        }
        out.found = rx.frame_found;
        out.delivered = rx.frame_found && rx.crc_ok;
        out.split_agrees = split_decode.has_value() == rx.frame_found &&
                           (!split_decode || (split_decode->crc_ok == rx.crc_ok &&
                                              split_decode->payload == rx.payload));
        if (rx.frame_found && !rx.payload.empty()) {
            const std::size_t compare = std::min(payload.size(), rx.payload.size());
            for (std::size_t i = 0; i < compare; ++i) {
                out.bit_errors += static_cast<std::size_t>(
                    std::popcount(static_cast<unsigned>(payload[i] ^ rx.payload[i])));
            }
            out.bit_errors += (payload.size() - compare) * 4;
        } else {
            out.bit_errors = payload.size() * 4;
        }
        return out;
    }

private:
    /// receive()'s symbol timing, preamble sync and normalisation on the
    /// copy's cleaned baseband, then the timed phy::decode_frame.
    std::optional<mmtag::phy::decode_result> decode_cleaned(const cvec& cleaned) const
    {
        const auto& rx = cfg_.receiver;
        const std::size_t offset = mmtag::dsp::best_symbol_offset(cleaned, rx.samples_per_symbol);
        cvec symbols = mmtag::dsp::integrate_and_dump(cleaned, rx.samples_per_symbol, offset);
        if (symbols.size() <
            mmtag::phy::header_symbol_count + rx.frame.preamble.total_symbols()) {
            return std::nullopt;
        }
        const auto sync =
            mmtag::phy::detect_preamble(symbols, rx.frame.preamble, rx.min_sync_quality);
        if (!sync || std::abs(sync->channel_gain) < 1e-15) return std::nullopt;
        for (auto& s : symbols) s /= sync->channel_gain;
        const cvec reference = mmtag::phy::sync_word(rx.frame.preamble);
        const std::size_t sync_start = sync->frame_start - reference.size();
        double residual = 0.0;
        for (std::size_t i = 0; i < reference.size(); ++i) {
            residual += std::norm(symbols[sync_start + i] - reference[i]);
        }
        const double noise_variance =
            std::max(residual / static_cast<double>(reference.size()), 1e-12);
        const std::span<const cf64> frame_span{symbols.data() + sync->frame_start,
                                               symbols.size() - sync->frame_start};
        const scoped_span span("phy.decode");
        return mmtag::phy::decode_frame(frame_span, rx.frame, noise_variance);
    }

    core::system_config cfg_;
    mmtag::channel::backscatter_channel channel_;
    mmtag::tag::backscatter_modulator modulator_;
    mmtag::ap::ap_transmitter transmitter_;
    mmtag::ap::ap_receiver receiver_;
    std::uint64_t trial_ = 0;
};

struct traced_point {
    std::uint64_t frames = 0;
    std::uint64_t delivered = 0;
    std::uint64_t bit_errors = 0;
    std::uint64_t capture_samples = 0;
    std::uint64_t mismatches = 0;
    obs::metrics_registry registry;

    void merge(const traced_point& other)
    {
        frames += other.frames;
        delivered += other.delivered;
        bit_errors += other.bit_errors;
        capture_samples += other.capture_samples;
        mismatches += other.mismatches;
        registry.merge(other.registry);
    }
};

/// The traced sweep: every frame runs through the composed chain and
/// through link_simulator::run_frame on the same payload, which must agree.
group_trace trace_link(const link_inputs& in, std::size_t jobs, double seconds,
                       json_value& ops)
{
    group_trace g;
    json_value untraced = link_sweep_op(in, jobs);
    g.untraced_rate = ratio(untraced.find("work")->as_number(),
                            untraced.find("wall_s")->as_number());
    // Per-point (delivered, bit errors) every traced sweep must reproduce.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> expected;
    const json_value& untraced_points = *untraced.find("points");
    for (std::size_t p = 0; p < untraced_points.size(); ++p) {
        const json_value& point = untraced_points.at(p);
        expected.emplace_back(point.find("delivered")->as_uint(),
                              point.find("bit_errors")->as_uint());
    }
    ops.push(std::move(untraced));

    set_tracing(true);
    traced_point total;
    double traced_wall = 0.0;
    timed_loop(seconds, 1, [&] {
        runtime::sweep_options options;
        options.jobs = jobs;
        options.base_seed = in.base_seed;
        options.trials_per_point = in.trials;
        const auto start = clock_type::now();
        const auto out = runtime::run_sweep<traced_point>(
            options, in.points, [&](std::size_t point, std::size_t, std::uint64_t seed) {
                const scoped_span trial_span("runtime.trial");
                const core::system_config cfg = in.point_config(point, seed);
                link_chain chain(cfg);
                core::link_simulator sim(cfg);
                traced_point result;
                sim.attach_metrics(&result.registry);
                for (std::size_t f = 0; f < in.frames; ++f) {
                    // run_trials' payload stream, so the traced sweep
                    // reproduces the untraced one point for point.
                    const auto payload =
                        mmtag::phy::random_bytes(in.payload, seed * 1'000'003 + 2 * f);
                    link_chain::outcome composed;
                    {
                        const scoped_span span("chain.frame");
                        composed = chain.run(payload);
                    }
                    core::link_simulator::frame_result reference;
                    {
                        const scoped_span span("link.frame");
                        reference = sim.run_frame(payload);
                    }
                    ++result.frames;
                    result.delivered += reference.delivered ? 1 : 0;
                    result.bit_errors += reference.bit_errors;
                    result.capture_samples += composed.capture;
                    if (composed.delivered != reference.delivered ||
                        composed.bit_errors != reference.bit_errors ||
                        composed.found != reference.rx.frame_found || !composed.split_agrees) {
                        ++result.mismatches;
                    }
                }
                return result;
            });
        const double wall = seconds_since(start);
        traced_wall += wall;
        g.wall_s = wall;
        g.jobs = out.jobs;
        g.busy_s = 0.0;
        for (std::size_t p = 0; p < out.points.size(); ++p) {
            const auto& point = out.points[p];
            total.merge(point.aggregate);
            g.busy_s += point.busy_s;
            ++g.compared;
            if (expected[p] != std::make_pair(point.aggregate.delivered,
                                              point.aggregate.bit_errors)) {
                ++g.mismatches;
            }
        }
    });
    set_tracing(false);

    const auto spans = collect_spans();
    const auto stats = summarize(spans);
    const auto total_of = [&](const char* name) {
        const auto it = stats.find(name);
        return it == stats.end() ? 0.0 : it->second.total_us;
    };
    const auto frames = static_cast<double>(total.frames);
    const double modulate = total_of("tag.modulate") / frames;
    const double tx = total_of("ap.tx_generate") / frames;
    const double propagate = total_of("channel.propagate") / frames;
    const double front_end = total_of("ap.front_end") / frames;
    const double decode = total_of("phy.decode") / frames;
    const double sync = total_of("ap.receive") / frames - front_end - decode;
    const double frame_mean = total_of("link.frame") / frames;
    const auto& frame_us = stats.at("link.frame").durations_us;

    const double lost = static_cast<double>(counter_value(total.registry, "link/frames_lost"));
    const double found = static_cast<double>(counter_value(total.registry, "link/frames")) - lost;
    auto& l = g.layers;
    l["tag.modulate_us"] = modulate;
    l["ap.tx_generate_us"] = tx;
    l["channel.propagate_us"] = propagate;
    l["ap.front_end_us"] = front_end;
    l["ap.sync_us"] = sync;
    l["phy.decode_us"] = decode;
    l["link.frame_us_p50"] = percentile(frame_us, 0.50);
    l["link.frame_us_p99"] = percentile(frame_us, 0.99);
    l["link.stage_coverage"] =
        ratio(modulate + tx + propagate + front_end + sync + decode, frame_mean);
    l["link.capture_samples"] = static_cast<double>(total.capture_samples) / frames;
    l["link.sync_found_ratio"] = ratio(found, found + lost);
    l["link.delivered_ratio"] = ratio(
        static_cast<double>(counter_value(total.registry, "link/frames_delivered")), found);

    if (const auto it = stats.find("runtime.trial"); it != stats.end()) {
        for (const double us : it->second.durations_us) g.task_s.push_back(us * 1e-6);
    }
    g.traced_rate = ratio(frames, traced_wall);
    g.compared += total.frames;
    g.mismatches += total.mismatches;
    return g;
}

// ---------------------------------------------------------------- scale --

scale::scale_config make_des_config(bool metro, std::size_t tags, std::size_t frames,
                                    std::uint64_t seed)
{
    scale::scale_config cfg;
    cfg.scenario = core::fast_scenario();
    cfg.topology.layout =
        metro ? scale::layout_kind::poisson_disc : scale::layout_kind::warehouse_grid;
    cfg.topology.tag_count = tags;
    cfg.topology.ap_count = metro ? 16 : 1;
    cfg.frames = frames;
    cfg.payload_bytes = 16;
    cfg.faulted = metro ? tags / 10 : tags / 2;
    cfg.trials = 1;
    cfg.topology.seed = runtime::substream(seed, 1);
    cfg.seed = runtime::substream(seed, 2);
    cfg.fault_seed = runtime::substream(seed, 3);
    return cfg;
}

/// 25k tags rather than the 100k of the metro scenario: the trial runs on
/// one thread, whose speed on a shared host wanders by about 15 % from one
/// second to the next, so a run needs many short operations (about 1 s
/// each here) for its median to settle. Sixteen cells and the per-tag mix
/// of heap, session and fault-lookup work stay as they are at 100k.
scale::scale_config des_workload(bool small, std::uint64_t seed)
{
    return make_des_config(true, small ? 5000 : 25000, small ? 5 : 20, seed);
}

scale::scale_config des_probe() { return make_des_config(true, 2000, 5, reference_seed); }

/// The DES group probed from the other workloads' traced runs: one cell of
/// 200 tags, half faulted, on a coarse calibration grid, so its calibration
/// costs well under a second.
scale::scale_config des_layer_probe()
{
    scale::scale_config cfg = make_des_config(false, 200, 60, reference_seed);
    cfg.phy.sinr_step_db = 4.0;
    cfg.phy.frames_per_point = 8;
    return cfg;
}

scale::phy_table_config table_config(const scale::scale_config& cfg)
{
    scale::phy_table_config t = cfg.phy;
    t.scenario = cfg.scenario;
    t.payload_bytes = cfg.payload_bytes;
    return t;
}

json_value des_inputs_json(const scale::scale_config& cfg)
{
    auto out = json_value::object();
    out.set("layout", json_value::string(scale::layout_name(cfg.topology.layout)));
    out.set("tags", uint(cfg.topology.tag_count));
    out.set("aps", uint(cfg.topology.ap_count));
    out.set("floor_m", num(cfg.topology.floor_m));
    out.set("rounds", uint(cfg.frames));
    out.set("faulted", uint(cfg.faulted));
    out.set("payload_bytes", uint(cfg.payload_bytes));
    out.set("trials", uint(cfg.trials));
    out.set("topology_seed", uint(cfg.topology.seed));
    out.set("seed", uint(cfg.seed));
    out.set("fault_seed", uint(cfg.fault_seed));
    out.set("calibration_seed", uint(cfg.phy.seed));
    return out;
}

json_value des_result_json(const scale::scale_result& r)
{
    std::uint64_t delivered_sum = 0;
    std::uint64_t attempts_sum = 0;
    for (const auto d : r.delivered_per_tag) delivered_sum += d;
    for (const auto a : r.attempts_per_tag) attempts_sum += a;
    auto op = json_value::object();
    op.set("work", uint(r.events));
    op.set("events", uint(r.events));
    op.set("data_slots", uint(r.data_slots));
    op.set("probe_slots", uint(r.probe_slots));
    op.set("delivered", uint(r.delivered));
    op.set("delivered_sum", uint(delivered_sum));
    op.set("attempts_sum", uint(attempts_sum));
    op.set("transitions", uint(r.transitions));
    op.set("readmissions", uint(r.readmissions));
    op.set("event_log_hash", uint(r.event_log_hash));
    op.set("cache_hit", json_value::boolean(r.cache_hit));
    return op;
}

json_value des_op(const scale::scale_config& cfg, std::size_t jobs,
                  const std::string& cache_dir, scale::scale_result* keep = nullptr)
{
    const auto start = clock_type::now();
    scale::scale_result result = scale::run_scale(cfg, jobs, nullptr, cache_dir);
    const double wall = seconds_since(start);
    json_value op = des_result_json(result);
    op.set("wall_s", num(wall));
    if (keep != nullptr) *keep = std::move(result);
    return op;
}

json_value calibration_json(const scale::phy_table& table)
{
    auto curves = json_value::array();
    for (const auto& c : table.curves()) {
        auto curve = json_value::object();
        curve.set("scheme", json_value::string(mmtag::phy::modulation_name(c.scheme)));
        curve.set("fec", json_value::string(mmtag::phy::fec_mode_name(c.fec)));
        curve.set("sinr_db", number_array(c.sinr_db));
        curve.set("per", number_array(c.per));
        curve.set("frames", uint_array(c.frames));
        curves.push(std::move(curve));
    }
    auto out = json_value::object();
    out.set("fingerprint", json_value::string(table.fingerprint()));
    out.set("curves", std::move(curves));
    return out;
}

/// Cold set-up into a fresh, empty cache directory: calibrate and persist
/// the phy_table, then build the deployment. Returns the directory, which
/// holds the warm table the timed loop loads.
std::string des_setup(const scale::scale_config& cfg, std::size_t jobs,
                      const std::string& cache_root, std::size_t rep, double& seconds,
                      json_value& calibration)
{
    const std::string dir = fresh_dir(cache_root, "phy_table_" + std::to_string(rep));
    const auto start = clock_type::now();
    const auto cache = scale::phy_table::load_or_generate(table_config(cfg), jobs, dir);
    const scale::deployment topo = scale::make_deployment(cfg.topology, cfg.scenario);
    seconds = seconds_since(start);
    if (cache.cache_hit || topo.tags.size() != cfg.topology.tag_count) {
        throw std::logic_error("des setup: expected a cold calibration and a full deployment");
    }
    calibration = calibration_json(cache.table);
    return dir;
}

/// The traced DES: calibrate and persist the table, then compose run_scale
/// from make_deployment, phy_table::from_json, run_scale_trial on the pool
/// and scale_result::to_json; the fold must reproduce run_scale's result.
group_trace trace_des(const scale::scale_config& cfg, std::size_t jobs,
                      const std::string& cache_root, double seconds, json_value& ops)
{
    group_trace g;
    const auto table_cfg = table_config(cfg);
    const std::string dir = fresh_dir(cache_root, "phy_table_traced");
    const std::string path =
        dir + "/phy_table_" + scale::phy_table::fingerprint_of(table_cfg) + ".json";

    set_tracing(true);
    {
        scale::phy_table table;
        {
            const scoped_span span("scale.calibrate");
            table = scale::phy_table::generate(table_cfg, jobs);
        }
        mmtag::runtime::write_text_file(path, table.to_json().dump(2));
    }
    set_tracing(false);

    scale::scale_result reference;
    json_value untraced = des_op(cfg, jobs, dir, &reference);
    if (!reference.cache_hit) throw std::logic_error("traced des: persisted table not reused");
    g.untraced_rate = ratio(untraced.find("work")->as_number(),
                            untraced.find("wall_s")->as_number());
    ops.push(std::move(untraced));

    set_tracing(true);
    obs::metrics_registry merged;
    std::uint64_t events = 0;
    std::uint64_t readmissions = 0;
    double traced_wall = 0.0;
    timed_loop(seconds, 1, [&] {
        const auto start = clock_type::now();
        scale::deployment topo;
        {
            const scoped_span span("scale.topology");
            topo = scale::make_deployment(cfg.topology, cfg.scenario);
        }
        std::optional<scale::phy_table> table;
        {
            const scoped_span span("scale.table_load");
            const auto text = mmtag::runtime::read_text_file(path);
            const auto doc = text ? mmtag::runtime::parse_json(*text) : std::nullopt;
            if (!doc) throw std::runtime_error("traced des: unreadable table " + path);
            table = scale::phy_table::from_json(*doc, table_cfg);
        }
        runtime::thread_pool pool(jobs);
        std::vector<obs::metrics_registry> registries(cfg.trials);
        const auto trials = runtime::ordered_parallel_results(
            pool, cfg.trials, [&](std::size_t trial) {
                const scoped_span span("scale.trial");
                return scale::run_scale_trial(cfg, topo, *table, trial, &registries[trial]);
            });
        const double wall = seconds_since(start);
        traced_wall += wall;
        g.wall_s = wall;
        g.jobs = pool.jobs();

        std::uint64_t hash = 0xcbf29ce484222325ULL;
        std::uint64_t op_events = 0;
        std::uint64_t delivered = 0;
        for (std::size_t t = 0; t < trials.size(); ++t) {
            hash = runtime::mix64(hash ^ trials[t].event_log_hash);
            op_events += trials[t].events;
            delivered += trials[t].delivered;
            readmissions += trials[t].readmissions;
            merged.merge(registries[t]);
        }
        events += op_events;
        ++g.compared;
        if (hash != reference.event_log_hash || op_events != reference.events ||
            delivered != reference.delivered) {
            ++g.mismatches;
        }
        const scoped_span span("scale.output");
        const json_value doc = reference.to_json();
        if (!doc.is_object()) throw std::logic_error("scale_result::to_json");
    });
    set_tracing(false);

    const auto stats = summarize(collect_spans());
    const auto mean_s = [&](const char* name) {
        const auto it = stats.find(name);
        return it == stats.end() ? 0.0 : it->second.total_us * 1e-6 / it->second.count;
    };
    const double trial_total_s = stats.at("scale.trial").total_us * 1e-6;
    // Counts are per operation: the number of traced operations depends on
    // the time budget.
    const auto per_op = [&](double total) { return total / static_cast<double>(g.compared); };
    const double data_slots = per_op(static_cast<double>(counter_value(merged, "scale/data_slots")));
    const double probe_slots = per_op(static_cast<double>(counter_value(merged, "scale/probe_slots")));
    const double delivered = per_op(static_cast<double>(counter_value(merged, "scale/delivered")));
    const double transitions = per_op(static_cast<double>(counter_value(merged, "net/transitions")));
    const double ev = per_op(static_cast<double>(events));
    auto& l = g.layers;
    l["scale.calibrate_s"] = mean_s("scale.calibrate");
    l["scale.topology_s"] = mean_s("scale.topology");
    l["scale.table_load_s"] = mean_s("scale.table_load");
    l["scale.trial_s"] = mean_s("scale.trial");
    l["scale.loop_events_per_s"] = ratio(static_cast<double>(events), trial_total_s);
    l["scale.output_s"] = mean_s("scale.output");
    l["scale.events"] = ev;
    l["scale.data_slots"] = data_slots;
    l["scale.probe_slots"] = probe_slots;
    l["scale.probe_share"] = ratio(probe_slots, ev);
    l["scale.probe_yield"] = ratio(per_op(static_cast<double>(readmissions)), probe_slots);
    l["scale.delivery_ratio"] = ratio(delivered, data_slots);
    l["net.transitions_per_event"] = ratio(transitions, ev);

    for (const double us : stats.at("scale.trial").durations_us) g.task_s.push_back(us * 1e-6);
    // The last op's trials, for the busy share.
    for (std::size_t i = g.task_s.size() - cfg.trials; i < g.task_s.size(); ++i) {
        g.busy_s += g.task_s[i];
    }
    g.traced_rate = ratio(static_cast<double>(events), traced_wall);
    return g;
}

// ----------------------------------------------------------------- soak --

net::soak_config make_soak_config(std::size_t tags, std::size_t faulted, std::size_t rounds,
                                  std::size_t trials, std::uint64_t seed)
{
    net::soak_config cfg;
    cfg.tag_count = tags;
    cfg.faulted_count = faulted;
    cfg.rounds = rounds;
    cfg.trials = trials;
    cfg.payload_bytes = 16;
    // The fault plan is the fixed chaos scenario (the CLI's default fault
    // seed); --seed drives payloads and noise. Fault plans differ in how
    // much PHY work they cause, which would swamp run-to-run comparisons.
    cfg.seed = runtime::substream(seed, 1);
    cfg.fault_seed = 42;
    return cfg;
}

/// 8 trials of 40 rounds rather than 4 of 120: sixteen arm tasks balance
/// over the executors, where eight let one contended core stretch the
/// makespan by up to a third.
net::soak_config soak_workload(bool small, std::uint64_t seed)
{
    return small ? make_soak_config(8, 3, 36, 2, seed) : make_soak_config(8, 3, 40, 8, seed);
}

net::soak_config soak_probe() { return make_soak_config(4, 1, 36, 1, reference_seed); }

json_value soak_inputs_json(const net::soak_config& cfg)
{
    auto out = json_value::object();
    out.set("tags", uint(cfg.tag_count));
    out.set("faulted", uint(cfg.faulted_count));
    out.set("rounds", uint(cfg.rounds));
    out.set("trials", uint(cfg.trials));
    out.set("payload_bytes", uint(cfg.payload_bytes));
    out.set("seed", uint(cfg.seed));
    out.set("fault_seed", uint(cfg.fault_seed));
    return out;
}

std::uint64_t soak_work(const net::soak_config& cfg) { return 2 * cfg.rounds * cfg.trials; }

json_value soak_op(const net::soak_config& cfg, runtime::thread_pool& pool,
                   net::soak_report* keep = nullptr)
{
    const auto start = clock_type::now();
    net::soak_report report = net::run_soak(cfg, pool);
    const double wall = seconds_since(start);
    auto invariants = json_value::array();
    for (const auto& inv : report.invariants) {
        auto entry = json_value::object();
        entry.set("name", json_value::string(inv.name));
        entry.set("passed", json_value::boolean(inv.passed));
        entry.set("detail", json_value::string(inv.detail));
        invariants.push(std::move(entry));
    }
    auto op = json_value::object();
    op.set("wall_s", num(wall));
    op.set("work", uint(soak_work(cfg)));
    op.set("rounds", uint(cfg.rounds));
    op.set("trials", uint(cfg.trials));
    op.set("invariants", std::move(invariants));
    op.set("delivered_per_tag", uint_array(report.delivered_per_tag));
    op.set("reference_per_tag", uint_array(report.reference_per_tag));
    op.set("transitions", uint(report.transitions));
    op.set("readmissions", uint(report.readmissions));
    if (keep != nullptr) *keep = std::move(report);
    return op;
}

/// The traced soak: run_soak composed from run_soak_trial per arm on the
/// pool and the five invariant checkers on each faulted trace.
group_trace trace_soak(const net::soak_config& cfg, runtime::thread_pool& pool,
                       double seconds, json_value& ops)
{
    group_trace g;
    net::soak_report reference;
    json_value untraced = soak_op(cfg, pool, &reference);
    g.untraced_rate = ratio(untraced.find("work")->as_number(),
                            untraced.find("wall_s")->as_number());
    ops.push(std::move(untraced));

    struct task_output {
        net::soak_trial_result result;
        obs::metrics_registry registry;
    };
    set_tracing(true);
    obs::metrics_registry merged;
    double traced_wall = 0.0;
    std::uint64_t work = 0;
    timed_loop(seconds, 1, [&] {
        const auto start = clock_type::now();
        auto outputs = runtime::ordered_parallel_results(
            pool, 2 * cfg.trials, [&](std::size_t index) {
                const bool faulted = index < cfg.trials;
                const scoped_span span(faulted ? "net.soak_faulted_arm"
                                               : "net.soak_reference_arm");
                task_output out;
                out.result = net::run_soak_trial(cfg, faulted ? index : index - cfg.trials,
                                                 faulted, &out.registry);
                return out;
            });
        std::vector<std::uint64_t> delivered(cfg.tag_count, 0);
        std::vector<std::uint64_t> reference_delivered(cfg.tag_count, 0);
        bool passed = true;
        for (std::size_t t = 0; t < cfg.trials; ++t) {
            const auto& faulted = outputs[t].result;
            const auto& ref = outputs[cfg.trials + t].result;
            for (std::size_t tag = 0; tag < cfg.tag_count; ++tag) {
                delivered[tag] += faulted.delivered_per_tag[tag];
                reference_delivered[tag] += ref.delivered_per_tag[tag];
            }
            const scoped_span span("net.invariants");
            passed = net::check_transition_legality(faulted.trace).passed && passed;
            passed = net::check_no_starvation(faulted.trace, cfg.starvation_window_rounds)
                         .passed &&
                     passed;
            passed = net::check_frame_conservation(faulted.trace, faulted.delivered_per_tag)
                         .passed &&
                     passed;
            passed = net::check_bounded_recovery(faulted.trace, cfg.session,
                                                 cfg.readmit_grace_factor)
                         .passed &&
                     passed;
            passed = net::check_graceful_degradation(faulted.delivered_per_tag,
                                                     ref.delivered_per_tag,
                                                     cfg.faulted_count, cfg.healthy_share_min)
                         .passed &&
                     passed;
        }
        const double wall = seconds_since(start);
        traced_wall += wall;
        work += soak_work(cfg);
        g.wall_s = wall;
        g.jobs = pool.jobs();
        for (const auto& out : outputs) merged.merge(out.registry);
        ++g.compared;
        if (passed != reference.all_passed() || delivered != reference.delivered_per_tag ||
            reference_delivered != reference.reference_per_tag) {
            ++g.mismatches;
        }
    });
    set_tracing(false);

    const auto stats = summarize(collect_spans());
    const auto mean_of = [&](const char* name) {
        const auto it = stats.find(name);
        return it == stats.end() ? 0.0 : it->second.total_us / it->second.count;
    };
    const obs::histogram* capture = merged.find_histogram("time/multitag_capture");
    const auto bursts = static_cast<double>(counter_value(merged, "multitag/bursts"));
    auto& l = g.layers;
    l["net.soak_faulted_arm_s"] = mean_of("net.soak_faulted_arm") * 1e-6;
    l["net.soak_reference_arm_s"] = mean_of("net.soak_reference_arm") * 1e-6;
    l["net.invariants_us"] = mean_of("net.invariants");
    l["core.multitag_capture_us_p50"] = capture != nullptr ? histogram_quantile(*capture, 0.50) * 1e6 : 0.0;
    l["core.multitag_capture_us_p99"] = capture != nullptr ? histogram_quantile(*capture, 0.99) * 1e6 : 0.0;
    l["multitag.burst_delivered_ratio"] = ratio(static_cast<double>(counter_value(merged, "multitag/bursts_delivered")),
                    bursts);

    // The last op's arm tasks, for the runtime metrics.
    for (const char* name : {"net.soak_faulted_arm", "net.soak_reference_arm"}) {
        const auto& d = stats.at(name).durations_us;
        for (std::size_t i = d.size() - cfg.trials; i < d.size(); ++i) {
            g.task_s.push_back(d[i] * 1e-6);
        }
    }
    for (const double s : g.task_s) g.busy_s += s;
    g.traced_rate = ratio(static_cast<double>(work), traced_wall);
    return g;
}

// ----------------------------------------------------------------- runs --

enum class group { link, des, soak };

group group_of(const std::string& workload)
{
    if (workload == "link_waterfall") return group::link;
    if (workload == "soak_chaos") return group::soak;
    return group::des;
}

json_value run_untraced(const run_options& o, json_value& doc)
{
    auto ops = json_value::array();
    auto setup = json_value::array();
    json_value probe;
    // Set-up is timed several times and reported as a median; the link and
    // soak set-ups take well under a millisecond, so they repeat more. Each
    // set-up, like each timed operation, starts on the next CPU.
    const int setup_reps = o.small ? 3 : 101;
    // Peak memory over set-up and the first operation, as one invocation of
    // the entry point would see it: later operations repeat the same work,
    // and what they add is heap kept by whichever executors ran them.
    double rss_mb = 0.0;
    const auto record = [&](json_value op) {
        ops.push(std::move(op));
        if (ops.size() == 1) rss_mb = peak_rss_mb();
    };
    switch (group_of(o.workload)) {
    case group::link: {
        const link_inputs in = link_workload(o.small, o.seed);
        doc.set("inputs", link_inputs_json(in));
        for (int rep = 0; rep < setup_reps; ++rep) {
            next_cpu();
            setup.push(num(link_setup(in)));
        }
        timed_loop(o.seconds, 3, [&] { record(link_sweep_op(in, o.jobs)); });
        probe = link_sweep_op(link_probe(), o.jobs);
        break;
    }
    case group::des: {
        const scale::scale_config cfg = des_workload(o.small, o.seed);
        doc.set("inputs", des_inputs_json(cfg));
        std::string dir;
        json_value calibration;
        for (std::size_t rep = 0; rep < (o.small ? 1u : 3u); ++rep) {
            double seconds = 0.0;
            next_cpu();
            dir = des_setup(cfg, o.jobs, o.cache_root, rep, seconds, calibration);
            setup.push(num(seconds));
        }
        doc.set("calibration", std::move(calibration));
        timed_loop(o.seconds, 3, [&] { record(des_op(cfg, o.jobs, dir)); });
        probe = des_op(des_probe(), o.jobs, dir);
        break;
    }
    case group::soak: {
        const net::soak_config cfg = soak_workload(o.small, o.seed);
        doc.set("inputs", soak_inputs_json(cfg));
        std::unique_ptr<runtime::thread_pool> pool;
        for (int rep = 0; rep < setup_reps; ++rep) {
            pool.reset();
            next_cpu();
            const auto start = clock_type::now();
            pool = std::make_unique<runtime::thread_pool>(o.jobs);
            setup.push(num(seconds_since(start)));
        }
        timed_loop(o.seconds, 3, [&] { record(soak_op(cfg, *pool)); });
        probe = soak_op(soak_probe(), *pool);
        break;
    }
    }
    doc.set("setup_s", std::move(setup));
    doc.set("probe", std::move(probe));
    doc.set("peak_rss_mb", num(rss_mb));
    return ops;
}

/// Traced run: the workload's own layer group at full size for the time
/// budget, then every other group once at probe size, so each traced run
/// reports every per-layer metric.
void run_traced(const run_options& o, json_value& doc)
{
    const group primary = group_of(o.workload);
    auto ops = json_value::array();
    auto probe_ops = json_value::array(); // untraced ops of the probes: not reported
    std::map<std::string, double> layers;
    group_trace main;
    runtime::thread_pool pool(o.jobs);
    std::uint64_t compared = 0;
    std::uint64_t mismatches = 0;
    std::vector<span_record> all_spans;
    for (const group g : {group::link, group::des, group::soak}) {
        const bool is_primary = g == primary;
        json_value& into = is_primary ? ops : probe_ops;
        const double budget = is_primary ? o.seconds : 0.0;
        clear_spans();
        group_trace t;
        switch (g) {
        case group::link:
            t = trace_link(is_primary ? link_workload(o.small, o.seed) : link_probe(), o.jobs,
                           budget, into);
            break;
        case group::des:
            t = trace_des(is_primary ? des_workload(o.small, o.seed) : des_layer_probe(),
                          o.jobs, o.cache_root, budget, into);
            break;
        case group::soak:
            t = trace_soak(is_primary ? soak_workload(o.small, o.seed) : soak_probe(), pool,
                           budget, into);
            break;
        }
        const auto spans = collect_spans();
        all_spans.insert(all_spans.end(), spans.begin(), spans.end());
        compared += t.compared;
        mismatches += t.mismatches;
        layers.insert(t.layers.begin(), t.layers.end());
        if (is_primary) main = std::move(t);
    }
    clear_spans();

    layers["runtime.busy_share"] = ratio(main.busy_s, main.wall_s * static_cast<double>(main.jobs));
    layers["runtime.trial_s_p50"] = percentile(main.task_s, 0.50);
    layers["runtime.trial_s_max"] =
        main.task_s.empty() ? 0.0 : *std::max_element(main.task_s.begin(), main.task_s.end());
    layers["obs.trace_overhead"] = ratio(main.untraced_rate, main.traced_rate) - 1.0;

    auto layer_doc = json_value::object();
    for (const auto& [name, value] : layers) layer_doc.set(name, num(value));
    auto checks = json_value::object();
    checks.set("compared", uint(compared));
    checks.set("mismatches", uint(mismatches));
    doc.set("ops", std::move(ops));
    doc.set("layers", std::move(layer_doc));
    doc.set("trace_checks", std::move(checks));
    if (!o.trace_path.empty()) write_chrome_trace(o.trace_path, all_spans);
}

} // namespace

bool known_workload(const std::string& name)
{
    return name == "link_waterfall" || name == "des_metro" || name == "soak_chaos";
}

json_value run_workload(const run_options& o)
{
    if (!known_workload(o.workload)) {
        throw std::invalid_argument("unknown workload '" + o.workload + "'");
    }
    if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    auto doc = json_value::object();
    doc.set("workload", json_value::string(o.workload));
    doc.set("seed", uint(o.seed));
    doc.set("size", json_value::string(o.small ? "small" : "full"));
    doc.set("trace", json_value::boolean(o.trace));
    doc.set("jobs", uint(o.jobs));
    if (o.trace) {
        run_traced(o, doc);
    } else {
        doc.set("ops", run_untraced(o, doc));
    }
    return doc;
}

} // namespace perfbench
