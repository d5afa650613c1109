#include "mmtag/scale/des_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <span>
#include <stdexcept>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/mac/tdma.hpp"
#include "mmtag/net/network_supervisor.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/obs/trace.hpp"
#include "mmtag/phy/frame.hpp"
#include "mmtag/runtime/json_io.hpp"
#include "mmtag/runtime/thread_pool.hpp"
#include "mmtag/runtime/trial_rng.hpp"

namespace mmtag::scale {

namespace {

constexpr double interferer_floor_db = -300.0;

// Kinds of the binary event records a cell hash folds.
constexpr std::uint64_t round_record = 0;
constexpr std::uint64_t data_record = 1;
constexpr std::uint64_t probe_record = 2;

/// Folds one event's fixed binary record into a cell hash: kind, round or
/// slot index, the bits of its time, tag, rung and outcome (-1 for a round
/// begin, else 0/1).
std::uint64_t hash_record(std::uint64_t hash, std::uint64_t kind, std::uint64_t index,
                          double time_s, std::size_t tag, std::size_t rung, int outcome)
{
    const std::uint64_t head = kind | static_cast<std::uint64_t>(rung) << 8 |
                               static_cast<std::uint64_t>(outcome + 1) << 24 |
                               static_cast<std::uint64_t>(tag) << 32;
    hash = runtime::mix64(hash ^ head);
    hash = runtime::mix64(hash ^ index);
    return runtime::mix64(hash ^ std::bit_cast<std::uint64_t>(time_s));
}

/// Airtime of one TDMA slot at rung `mcs`: query + turnaround + the full
/// frame (preamble, BPSK header, payload at the slot's MCS) + guard.
double slot_airtime_s(std::size_t mcs, std::size_t payload_bytes, double symbol_rate_hz,
                      const mac::tdma_config& mac)
{
    phy::frame_config frame;
    frame.scheme = ap::rate_table()[mcs].scheme;
    frame.fec = ap::rate_table()[mcs].fec;
    const std::size_t symbols = frame.preamble.total_symbols() +
                                phy::header_symbol_count +
                                phy::payload_symbol_count(payload_bytes, frame);
    return mac.query_time_s + mac.turnaround_s +
           static_cast<double>(symbols) / symbol_rate_hz + mac.guard_time_s;
}

/// Uniform [0, 1) draw: slot `slot_index` of the cell whose stream is
/// `cell_seed`.
double event_uniform(std::uint64_t cell_seed, std::uint64_t slot_index)
{
    return static_cast<double>(runtime::substream(cell_seed, slot_index) >> 11) * 0x1.0p-53;
}

/// What every cell of every trial reads and none changes: each tag's static
/// rung, the per-rung slot airtimes and the fault mix rescaled to the
/// nominal schedule length. It depends on no trial, so a run builds it once.
struct des_inputs {
    std::vector<std::size_t> tag_mcs;
    std::vector<double> mcs_slot_s;
    double probe_slot_s = 0.0;
    fault::multi_tag_config faults;
};

des_inputs make_inputs(const scale_config& cfg, const deployment& topo)
{
    des_inputs in;
    const mac::tdma_config mac{};
    in.mcs_slot_s.resize(ap::rate_table().size());
    for (std::size_t i = 0; i < in.mcs_slot_s.size(); ++i) {
        in.mcs_slot_s[i] =
            slot_airtime_s(i, cfg.payload_bytes, cfg.scenario.symbol_rate_hz, mac);
    }
    in.probe_slot_s = slot_airtime_s(ap::robust_rung, ap::probe_payload_bytes,
                                     cfg.scenario.symbol_rate_hz, mac);
    const ap::rate_adapter adapter(cfg.margin_db);
    in.tag_mcs.resize(topo.tags.size());
    for (std::size_t t = 0; t < topo.tags.size(); ++t) {
        in.tag_mcs[t] = adapter.select_index(topo.tags[t].sinr_db);
    }

    // The simulated duration spans three orders of magnitude as the tag
    // count sweeps 100 -> 10k, so absolute fault windows from the config
    // defaults (tuned for a 100 ms soak) would cover either the whole run or
    // none of it. Rescale the horizon and the shared-interferer window to
    // the nominal schedule length (all tags active at their static MCS),
    // preserving the defaults' fractions: interferer on over [10%, 40%] of
    // the run, fault onsets within the first `active_fraction`, and a quiet
    // tail where quarantined tags re-admit. Storm/brownout/background
    // fields are per-second rates or short transients and stay absolute.
    double nominal_round_s = 0.0;
    for (const std::vector<std::size_t>& members : topo.cells) {
        double round_s = 0.0;
        for (const std::size_t t : members) round_s += in.mcs_slot_s[in.tag_mcs[t]];
        nominal_round_s = std::max(nominal_round_s, round_s);
    }
    const double nominal_duration_s =
        std::max(1e-6, nominal_round_s * static_cast<double>(cfg.frames));
    in.faults = cfg.faults;
    in.faults.horizon_s = nominal_duration_s;
    in.faults.interferer_start_s = 0.1 * nominal_duration_s;
    in.faults.interferer_duration_s = 0.3 * nominal_duration_s;
    return in;
}

/// One trial's context, read by each of its cells: the packet-draw stream
/// and the fault plan's storm list and shared timeline. Tag timelines are
/// built by the cell that owns the tag.
struct trial_context {
    std::uint64_t draw_seed = 0;
    fault::multi_tag_plan plan;
};

trial_context make_trial(const scale_config& cfg, const des_inputs& in, std::size_t tag_count,
                         std::size_t trial)
{
    const std::uint64_t tseed = runtime::trial_seed(cfg.seed, 0, trial);
    return {runtime::substream(tseed, 0),
            fault::multi_tag_plan(in.faults, tag_count, std::min(cfg.faulted, tag_count),
                                  runtime::trial_seed(cfg.fault_seed, 0, trial))};
}

/// One cell's outcome. Per-tag counts are indexed by position in the cell.
struct cell_result {
    std::vector<std::uint64_t> attempts;
    std::vector<std::uint64_t> delivered_at;
    std::uint64_t data_slots = 0;
    std::uint64_t probe_slots = 0;
    std::uint64_t delivered = 0;
    std::uint64_t brownout_losses = 0;
    std::uint64_t transitions = 0;
    std::uint64_t readmissions = 0;
    std::vector<std::size_t> readmit_latencies_rounds;
    double end_s = 0.0;
    std::uint64_t hash = fnv1a64_offset;
    obs::metrics_registry metrics; ///< filled only when metrics are collected
};

/// Runs cell `cell`'s whole round loop: plan the round, run its probe slots,
/// then its data slots. Reads nothing another cell writes, so cells run in
/// any order, on any thread.
cell_result run_cell(const scale_config& cfg, const deployment& topo, const phy_table& table,
                     const des_inputs& in, const trial_context& trial, std::size_t cell,
                     bool collect_metrics)
{
    const std::vector<std::size_t>& members = topo.cells[cell];
    cell_result out;
    if (members.empty()) return out;
    const std::size_t size = members.size();
    out.attempts.assign(size, 0);
    out.delivered_at.assign(size, 0);
    obs::metrics_registry* metrics = collect_metrics ? &out.metrics : nullptr;
    obs::histogram* sinr_hist =
        metrics != nullptr
            ? &metrics->get_histogram("scale/slot_sinr_db", obs::snr_bounds_db())
            : nullptr;

    // The cell's own copy of the shared timeline, and an injector for each
    // faulted member only: a healthy tag's timeline impairs nothing.
    constexpr std::uint32_t no_injector = ~std::uint32_t{0};
    fault::fault_injector shared_injector(trial.plan.shared());
    std::vector<fault::fault_injector> tag_injectors;
    std::vector<std::uint32_t> injector_of(size, no_injector);
    // Most slots are unimpaired, and an unimpaired slot's SINR is the
    // position's static one: its dB figure and its PER at the two rungs a
    // slot can use (the static rung, or the robust rung for probes and
    // degraded sessions) are computed once here.
    struct position_link {
        double sinr_lin = 0.0;
        double clean_db = 0.0;
        double clean_per_static = 0.0;
        double clean_per_robust = 0.0;
    };
    std::vector<position_link> links(size);
    for (std::size_t p = 0; p < size; ++p) {
        const std::size_t tag = members[p];
        position_link& link = links[p];
        link.sinr_lin = from_db(topo.tags[tag].sinr_db);
        link.clean_db = to_db(link.sinr_lin);
        link.clean_per_static = table.per(in.tag_mcs[tag], link.clean_db);
        link.clean_per_robust = table.per(ap::robust_rung, link.clean_db);
        if (tag < trial.plan.faulted_count()) {
            injector_of[p] = static_cast<std::uint32_t>(tag_injectors.size());
            tag_injectors.emplace_back(trial.plan.tag_schedule(tag));
        }
    }

    net::supervisor_config sup_cfg;
    sup_cfg.session = cfg.session;
    sup_cfg.slot_budget = cfg.slot_budget;
    sup_cfg.metrics = metrics;
    // An unmodified supervisor that addresses its tags by position in the
    // cell: members[p] is the tag.
    net::network_supervisor sup(sup_cfg, size);
    const std::uint64_t cell_seed = runtime::substream(trial.draw_seed, cell);
    std::uint64_t slot_index = 0;
    double now_s = 0.0;
    // A robust-flag scratch table stamped per round so membership in the
    // current plan's robust list is O(1) per slot.
    std::vector<std::uint64_t> robust_stamp(size, 0);
    std::uint64_t stamp = 0;

    // A slot runs at the robust rung or at the position's static rung.
    const auto run_slot = [&](std::uint32_t p, bool robust, std::uint64_t kind) {
        const std::size_t tag = members[p];
        const std::size_t rung = robust ? ap::robust_rung : in.tag_mcs[tag];
        const double slot_s = kind == probe_record ? in.probe_slot_s : in.mcs_slot_s[rung];
        const position_link& link = links[p];
        const auto shared_imp = shared_injector.at(now_s, slot_s);
        const auto tag_imp = injector_of[p] != no_injector
                                 ? tag_injectors[injector_of[p]].at(now_s, slot_s)
                                 : fault::impairment{};
        const bool powered = shared_imp.tag_powered && tag_imp.tag_powered;
        // Mirror the sample-accurate impairment application: blockage
        // shadows the tag path both ways (power x a^4), a dropout scales
        // the illuminating carrier once (power x c^2), the interferer is
        // referenced to the tag's nominal return.
        const double amp = shared_imp.tag_amplitude * tag_imp.tag_amplitude;
        const double c = shared_imp.carrier_amplitude * tag_imp.carrier_amplitude;
        const double rel_db = std::max(shared_imp.interferer_rel_db, tag_imp.interferer_rel_db);
        // Unimpaired, s_lin * 1 / 1 is s_lin exactly, so the stored figures
        // are the ones this slot would compute.
        const bool clean = amp == 1.0 && c == 1.0 && rel_db <= interferer_floor_db;
        double sinr_eff_db = link.clean_db;
        if (!clean) {
            const double s_lin = link.sinr_lin;
            const double signal_factor = amp * amp * amp * amp * c * c;
            const double denom =
                1.0 + (rel_db > interferer_floor_db ? s_lin * from_db(rel_db) : 0.0);
            sinr_eff_db = to_db(s_lin * signal_factor / denom);
        }
        if (sinr_hist != nullptr) sinr_hist->observe(sinr_eff_db);

        bool delivered = false;
        if (powered) {
            const double per =
                clean ? (robust ? link.clean_per_robust : link.clean_per_static)
                      : table.per(rung, sinr_eff_db);
            delivered = event_uniform(cell_seed, slot_index) >= per;
        } else {
            ++out.brownout_losses;
        }
        out.hash = hash_record(out.hash, kind, slot_index, now_s, tag, rung, delivered ? 1 : 0);
        ++slot_index;
        now_s += slot_s;

        if (kind == probe_record) {
            ++out.probe_slots;
            sup.record_probe(p, delivered);
        } else {
            ++out.data_slots;
            if (sup.record_data(p, delivered)) {
                ++out.attempts[p];
                if (delivered) {
                    ++out.delivered_at[p];
                    ++out.delivered;
                }
            }
        }
    };

    for (std::size_t round_index = 0; round_index < cfg.frames; ++round_index) {
        const double round_start_s = now_s;
        out.hash = hash_record(out.hash, round_record, round_index, now_s, 0, 0, -1);
        const net::round_plan round = sup.plan_round();
        ++stamp;
        for (const std::uint32_t p : round.robust) robust_stamp[p] = stamp;
        for (const std::uint32_t p : round.probes) run_slot(p, true, probe_record);
        for (const std::uint32_t p : mac::tdma_scheduler::interleave_shares(round.shares)) {
            run_slot(p, robust_stamp[p] == stamp, data_record);
        }
        // A fully quarantined, probe-less round still advances time by
        // one robust slot so the backoff clock keeps ticking.
        if (now_s == round_start_s) now_s += in.mcs_slot_s[ap::robust_rung];
    }
    out.end_s = now_s;

    for (std::uint32_t p = 0; p < size; ++p) {
        const net::tag_session& session = sup.session(p);
        out.transitions += session.transitions().size();
        for (const auto& transition : session.transitions()) {
            if (transition.from == net::session_state::probing &&
                transition.to == net::session_state::active) {
                ++out.readmissions;
            }
        }
        const auto& latencies = session.readmit_latencies_rounds();
        out.readmit_latencies_rounds.insert(out.readmit_latencies_rounds.end(),
                                            latencies.begin(), latencies.end());
    }
    return out;
}

/// Folds one trial's cell results, in cell order, into the trial's
/// outcome; `metrics` (optional) receives the cells' registries in the same
/// order and then the trial's scale/... counters.
scale_trial_result fold_trial(const scale_config& cfg, const deployment& topo,
                              std::span<const cell_result> cells,
                              obs::metrics_registry* metrics)
{
    scale_trial_result result;
    result.attempts_per_tag.assign(topo.tags.size(), 0);
    result.delivered_per_tag.assign(topo.tags.size(), 0);
    result.event_log_hash = fnv1a64_offset;
    for (std::size_t a = 0; a < cells.size(); ++a) {
        const std::vector<std::size_t>& members = topo.cells[a];
        if (members.empty()) continue;
        const cell_result& cell = cells[a];
        for (std::size_t p = 0; p < members.size(); ++p) {
            result.attempts_per_tag[members[p]] = cell.attempts[p];
            result.delivered_per_tag[members[p]] = cell.delivered_at[p];
        }
        result.data_slots += cell.data_slots;
        result.probe_slots += cell.probe_slots;
        result.delivered += cell.delivered;
        result.brownout_losses += cell.brownout_losses;
        result.rounds += cfg.frames;
        result.sim_time_s = std::max(result.sim_time_s, cell.end_s);
        result.transitions += cell.transitions;
        result.readmissions += cell.readmissions;
        result.readmit_latencies_rounds.insert(result.readmit_latencies_rounds.end(),
                                               cell.readmit_latencies_rounds.begin(),
                                               cell.readmit_latencies_rounds.end());
        result.event_log_hash = runtime::mix64(result.event_log_hash ^ cell.hash);
        if (metrics != nullptr) metrics->merge(cell.metrics);
    }
    result.events = result.rounds + result.data_slots + result.probe_slots;

    if (metrics != nullptr) {
        metrics->get_counter("scale/rounds").add(result.rounds);
        metrics->get_counter("scale/data_slots").add(result.data_slots);
        metrics->get_counter("scale/probe_slots").add(result.probe_slots);
        metrics->get_counter("scale/delivered").add(result.delivered);
        metrics->get_counter("scale/brownout_losses").add(result.brownout_losses);
        metrics->get_counter("scale/goodput_bits")
            .add(result.delivered * cfg.payload_bytes * 8);
        metrics->get_gauge("scale/sim_time_s").set(result.sim_time_s);
    }
    return result;
}

} // namespace

scale_trial_result run_scale_trial(const scale_config& cfg, const deployment& topo,
                                   const phy_table& table, std::size_t trial,
                                   obs::metrics_registry* metrics)
{
    const des_inputs in = make_inputs(cfg, topo);
    const trial_context context = make_trial(cfg, in, topo.tags.size(), trial);
    std::vector<cell_result> cells;
    cells.reserve(topo.cells.size());
    for (std::size_t a = 0; a < topo.cells.size(); ++a) {
        cells.push_back(run_cell(cfg, topo, table, in, context, a, metrics != nullptr));
    }
    return fold_trial(cfg, topo, cells, metrics);
}

double scale_result::goodput_bps() const
{
    if (!(sim_time_s > 0.0)) return 0.0;
    return static_cast<double>(delivered * config.payload_bytes * 8) / sim_time_s;
}

double scale_result::fairness_index() const
{
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const std::uint64_t d : delivered_per_tag) {
        const auto x = static_cast<double>(d);
        sum += x;
        sum_sq += x * x;
    }
    if (sum_sq <= 0.0) return 0.0;
    return sum * sum / (static_cast<double>(delivered_per_tag.size()) * sum_sq);
}

runtime::json_value scale_result::to_json() const
{
    using runtime::json_value;
    auto doc = runtime::schema_object("mmtag.scale.result/1");
    doc.set("tags", json_value::unsigned_integer(config.topology.tag_count));
    doc.set("aps", json_value::unsigned_integer(config.topology.ap_count));
    doc.set("layout", json_value::string(layout_name(config.topology.layout)));
    doc.set("frames", json_value::unsigned_integer(config.frames));
    doc.set("payload_bytes", json_value::unsigned_integer(config.payload_bytes));
    doc.set("trials", json_value::unsigned_integer(config.trials));
    doc.set("seed", json_value::unsigned_integer(config.seed));
    doc.set("fault_seed", json_value::unsigned_integer(config.fault_seed));
    doc.set("faulted", json_value::unsigned_integer(config.faulted));
    doc.set("rounds", json_value::unsigned_integer(rounds));
    doc.set("events", json_value::unsigned_integer(events));
    doc.set("data_slots", json_value::unsigned_integer(data_slots));
    doc.set("probe_slots", json_value::unsigned_integer(probe_slots));
    doc.set("delivered", json_value::unsigned_integer(delivered));
    doc.set("brownout_losses", json_value::unsigned_integer(brownout_losses));
    doc.set("sim_time_s", json_value::number(sim_time_s));
    doc.set("goodput_bps", runtime::ratio_or_null(goodput_bps(), delivered));
    doc.set("fairness_index",
            runtime::ratio_or_null(fairness_index(), delivered));
    doc.set("transitions", json_value::unsigned_integer(transitions));
    doc.set("readmissions", json_value::unsigned_integer(readmissions));
    doc.set("readmit_latency_count",
            json_value::unsigned_integer(readmit_latency_count));
    doc.set("readmit_latency_mean_rounds",
            runtime::ratio_or_null(readmit_latency_mean_rounds, readmit_latency_count));
    doc.set("readmit_latency_max_rounds",
            json_value::unsigned_integer(readmit_latency_max_rounds));
    char hash_hex[20];
    std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                  static_cast<unsigned long long>(event_log_hash));
    doc.set("event_log_hash", json_value::string(hash_hex));
    auto delivered_list = json_value::array();
    for (const std::uint64_t d : delivered_per_tag) {
        delivered_list.push(json_value::unsigned_integer(d));
    }
    doc.set("delivered_per_tag", std::move(delivered_list));
    return doc;
}

void validate(const scale_config& cfg)
{
    if (cfg.topology.tag_count == 0) throw std::invalid_argument("scale: tags must be >= 1");
    if (cfg.topology.ap_count == 0) throw std::invalid_argument("scale: APs must be >= 1");
    if (!(cfg.topology.floor_m > 0.0)) throw std::invalid_argument("scale: floor must be > 0");
    if (cfg.faulted > cfg.topology.tag_count) {
        throw std::invalid_argument("scale: faulted tags must not exceed tags");
    }
    if (cfg.payload_bytes == 0) throw std::invalid_argument("scale: payload must be >= 1 byte");
    if (cfg.trials == 0) throw std::invalid_argument("scale: trials must be >= 1");
    if (cfg.frames == 0) throw std::invalid_argument("scale: frames must be >= 1");
}

scale_result run_scale(const scale_config& cfg, std::size_t jobs,
                       obs::metrics_registry* metrics, const std::string& cache_dir)
{
    validate(cfg);
    phy_table_config table_cfg = cfg.phy;
    table_cfg.scenario = cfg.scenario;
    table_cfg.payload_bytes = cfg.payload_bytes;
    const auto cache = [&] {
        const obs::trace_span span("scale.table_load", "scale");
        return phy_table::load_or_generate(table_cfg, jobs, cache_dir);
    }();

    runtime::thread_pool pool(jobs);
    const deployment topo = [&] {
        const obs::trace_span span("scale.topology", "scale");
        return make_deployment(cfg.topology, cfg.scenario, pool);
    }();
    des_inputs in;
    std::vector<trial_context> contexts;
    {
        const obs::trace_span span("scale.plan", "scale");
        in = make_inputs(cfg, topo);
        contexts.reserve(cfg.trials);
        for (std::size_t trial = 0; trial < cfg.trials; ++trial) {
            contexts.push_back(make_trial(cfg, in, topo.tags.size(), trial));
        }
    }

    // One flat (trial, cell) task list: the pool does not nest, and the
    // cells of one trial are its units of independent work.
    const std::size_t cell_count = topo.cells.size();
    const auto cells = runtime::ordered_parallel_results(
        pool, cfg.trials * cell_count, [&](std::size_t task) {
            const std::size_t trial = task / cell_count;
            const std::size_t cell = task % cell_count;
            const obs::trace_span span(
                "scale.cell", "scale",
                obs::tracer::active() ? "{\"trial\": " + std::to_string(trial) +
                                            ", \"cell\": " + std::to_string(cell) + "}"
                                      : std::string{});
            return run_cell(cfg, topo, cache.table, in, contexts[trial], cell,
                            metrics != nullptr);
        });

    scale_result result;
    result.config = cfg;
    result.jobs = pool.jobs();
    result.cache_hit = cache.cache_hit;
    result.phy_table_path = cache.path;
    result.attempts_per_tag.assign(topo.tags.size(), 0);
    result.delivered_per_tag.assign(topo.tags.size(), 0);
    result.event_log_hash = fnv1a64_offset;
    std::uint64_t latency_sum = 0;
    for (std::size_t t = 0; t < cfg.trials; ++t) {
        obs::metrics_registry registry;
        const scale_trial_result trial =
            fold_trial(cfg, topo, std::span(cells).subspan(t * cell_count, cell_count),
                       metrics != nullptr ? &registry : nullptr);
        if (metrics != nullptr) metrics->merge(registry);
        for (std::size_t tag = 0; tag < topo.tags.size(); ++tag) {
            result.attempts_per_tag[tag] += trial.attempts_per_tag[tag];
            result.delivered_per_tag[tag] += trial.delivered_per_tag[tag];
        }
        result.data_slots += trial.data_slots;
        result.probe_slots += trial.probe_slots;
        result.delivered += trial.delivered;
        result.brownout_losses += trial.brownout_losses;
        result.rounds += trial.rounds;
        result.events += trial.events;
        result.sim_time_s += trial.sim_time_s;
        result.transitions += trial.transitions;
        result.readmissions += trial.readmissions;
        for (const std::size_t latency : trial.readmit_latencies_rounds) {
            ++result.readmit_latency_count;
            latency_sum += latency;
            result.readmit_latency_max_rounds =
                std::max(result.readmit_latency_max_rounds,
                         static_cast<std::uint64_t>(latency));
        }
        result.event_log_hash = runtime::mix64(result.event_log_hash ^
                                               trial.event_log_hash);
    }
    result.readmit_latency_mean_rounds =
        result.readmit_latency_count > 0
            ? static_cast<double>(latency_sum) /
                  static_cast<double>(result.readmit_latency_count)
            : 0.0;
    return result;
}

} // namespace mmtag::scale
