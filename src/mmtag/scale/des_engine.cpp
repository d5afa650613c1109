#include "mmtag/scale/des_engine.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/mac/tdma.hpp"
#include "mmtag/net/network_supervisor.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/phy/frame.hpp"
#include "mmtag/runtime/json_io.hpp"
#include "mmtag/runtime/thread_pool.hpp"
#include "mmtag/runtime/trial_rng.hpp"

namespace mmtag::scale {

namespace {

enum class event_kind : std::uint8_t { round_begin = 0, data_slot = 1, probe_slot = 2 };

const char* event_kind_name(event_kind kind)
{
    switch (kind) {
    case event_kind::round_begin: return "round";
    case event_kind::data_slot: return "data";
    case event_kind::probe_slot: return "probe";
    }
    return "?";
}

struct des_event {
    double time_s = 0.0;
    double duration_s = 0.0; ///< slot window (fault query span)
    std::uint64_t seq = 0;   ///< global creation order
    std::uint32_t ap = 0;
    std::uint32_t tag = 0;
    std::uint16_t mcs = 0; ///< rate-ladder index for slot events
    event_kind kind = event_kind::round_begin;
};

/// One AP cell's pending events: the slots of its current round in time
/// order, then its next round_begin at the round's end. The round_begin is
/// the last of them, so the buffer is empty whenever the cell plans a round.
struct cell_events {
    std::vector<des_event> pending;
    std::size_t head = 0;
};

constexpr std::size_t probe_payload_bytes = 4;
constexpr double interferer_floor_db = -300.0;

/// Writes `ev`'s log line — the bytes printf("%llu %.9f %u %s %u %u %d\n")
/// would produce (std::to_chars in fixed format with a precision is
/// specified as printf's %.*f) — into `out` and returns its length. Each
/// field leaves room for the separator that follows it.
std::size_t format_event_line(const des_event& ev, int outcome, std::span<char> out)
{
    char* p = out.data();
    char* const last = out.data() + out.size() - 1;
    const auto field = [&](auto value, char separator) {
        p = std::to_chars(p, last, value).ptr;
        *p++ = separator;
    };
    field(ev.seq, ' ');
    p = std::to_chars(p, last, ev.time_s, std::chars_format::fixed, 9).ptr;
    *p++ = ' ';
    field(ev.ap, ' ');
    for (const char* name = event_kind_name(ev.kind); *name != '\0'; ++name) *p++ = *name;
    *p++ = ' ';
    field(ev.tag, ' ');
    field(ev.mcs, ' ');
    field(outcome, '\n');
    return static_cast<std::size_t>(p - out.data());
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

/// Uniform [0, 1) draw keyed by the event's global sequence number.
double event_uniform(std::uint64_t draw_seed, std::uint64_t seq)
{
    return static_cast<double>(runtime::substream(draw_seed, seq) >> 11) * 0x1.0p-53;
}

} // namespace

scale_trial_result run_scale_trial(const scale_config& cfg, const deployment& topo,
                                   const phy_table& table, std::size_t trial,
                                   obs::metrics_registry* metrics)
{
    const std::size_t n = topo.tags.size();
    const std::size_t cell_count = topo.aps.size();
    const std::uint64_t tseed = runtime::trial_seed(cfg.seed, 0, trial);
    const std::uint64_t draw_seed = runtime::substream(tseed, 0);
    const std::uint64_t fault_seed = runtime::trial_seed(cfg.fault_seed, 0, trial);

    // Per-tag static decisions and per-MCS slot airtimes, fixed for the run.
    const mac::tdma_config mac{};
    std::vector<double> mcs_slot_s(ap::rate_table().size());
    for (std::size_t i = 0; i < mcs_slot_s.size(); ++i) {
        mcs_slot_s[i] = slot_airtime_s(i, cfg.payload_bytes, cfg.scenario.symbol_rate_hz, mac);
    }
    const double probe_slot_s = slot_airtime_s(ap::robust_rung, probe_payload_bytes,
                                               cfg.scenario.symbol_rate_hz, mac);
    const ap::rate_adapter adapter(cfg.margin_db);
    std::vector<std::uint16_t> tag_mcs(n);
    for (std::size_t t = 0; t < n; ++t) {
        tag_mcs[t] = static_cast<std::uint16_t>(adapter.select_index(topo.tags[t].sinr_db));
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
    for (std::size_t a = 0; a < cell_count; ++a) {
        double round_s = 0.0;
        for (const std::size_t t : topo.cells[a]) round_s += mcs_slot_s[tag_mcs[t]];
        nominal_round_s = std::max(nominal_round_s, round_s);
    }
    const double nominal_duration_s =
        std::max(1e-6, nominal_round_s * static_cast<double>(cfg.frames));
    fault::multi_tag_config faults = cfg.faults;
    faults.horizon_s = nominal_duration_s;
    faults.interferer_start_s = 0.1 * nominal_duration_s;
    faults.interferer_duration_s = 0.3 * nominal_duration_s;

    const std::size_t faulted = std::min(cfg.faulted, n);
    const fault::multi_tag_plan plan(faults, n, faulted, fault_seed);
    fault::fault_injector shared_injector(plan.shared());
    // Tags [faulted, n) hold empty schedules, which impair nothing: only the
    // faulted tags get an injector.
    std::vector<fault::fault_injector> tag_injectors;
    tag_injectors.reserve(faulted);
    for (std::size_t t = 0; t < faulted; ++t) tag_injectors.emplace_back(plan.per_tag()[t]);
    std::vector<double> sinr_lin(n);
    for (std::size_t t = 0; t < n; ++t) sinr_lin[t] = from_db(topo.tags[t].sinr_db);

    // One unmodified network_supervisor per non-empty cell. It addresses
    // its tags by position in the cell: topo.cells[a][position] is the tag.
    std::vector<std::unique_ptr<net::network_supervisor>> supervisors(cell_count);
    std::vector<std::uint32_t> position(n, 0);
    for (std::size_t a = 0; a < cell_count; ++a) {
        if (topo.cells[a].empty()) continue;
        net::supervisor_config sup_cfg;
        sup_cfg.session = cfg.session;
        sup_cfg.slot_budget = cfg.slot_budget;
        sup_cfg.metrics = metrics;
        for (std::size_t p = 0; p < topo.cells[a].size(); ++p) {
            position[topo.cells[a][p]] = static_cast<std::uint32_t>(p);
        }
        supervisors[a] =
            std::make_unique<net::network_supervisor>(sup_cfg, topo.cells[a].size());
    }

    scale_trial_result result;
    result.attempts_per_tag.assign(n, 0);
    result.delivered_per_tag.assign(n, 0);
    result.event_log_hash = fnv1a64_offset;

    obs::histogram* sinr_hist =
        metrics != nullptr
            ? &metrics->get_histogram("scale/slot_sinr_db", obs::snr_bounds_db())
            : nullptr;

    // A robust-flag scratch table stamped per (ap, round) so membership in
    // the current plan's robust list is O(1) per slot.
    std::vector<std::uint64_t> robust_stamp(n, 0);
    std::uint64_t stamp = 0;
    std::vector<std::size_t> rounds_done(cell_count, 0);
    std::vector<double> cell_end_s(cell_count, 0.0);

    // Per-cell event buffers, merged by (time, seq) through the head keys:
    // the same order one global (time, seq) queue would pop them in.
    constexpr double no_event = std::numeric_limits<double>::infinity();
    std::vector<cell_events> cells(cell_count);
    std::vector<double> head_time(cell_count, no_event);
    std::vector<std::uint64_t> head_seq(cell_count, 0);
    std::uint64_t next_seq = 0;
    const auto schedule = [&](std::size_t a, des_event event) {
        event.seq = next_seq++;
        cells[a].pending.push_back(event);
    };
    const auto refresh_head = [&](std::size_t a) {
        const cell_events& cell = cells[a];
        if (cell.head < cell.pending.size()) {
            head_time[a] = cell.pending[cell.head].time_s;
            head_seq[a] = cell.pending[cell.head].seq;
        } else {
            head_time[a] = no_event;
        }
    };
    for (std::size_t a = 0; a < cell_count; ++a) {
        if (supervisors[a] == nullptr) continue;
        des_event begin;
        begin.kind = event_kind::round_begin;
        begin.ap = static_cast<std::uint32_t>(a);
        begin.time_s = 0.0;
        schedule(a, begin);
        refresh_head(a);
    }

    char line[400];
    for (;;) {
        std::size_t next = 0;
        for (std::size_t a = 1; a < cell_count; ++a) {
            if (head_time[a] < head_time[next] ||
                (head_time[a] == head_time[next] && head_seq[a] < head_seq[next])) {
                next = a;
            }
        }
        if (head_time[next] == no_event) break;
        cell_events& cell = cells[next];
        const des_event ev = cell.pending[cell.head++];
        int outcome = -1;

        if (ev.kind == event_kind::round_begin) {
            cell.pending.clear();
            cell.head = 0;
            auto& sup = *supervisors[ev.ap];
            const auto& members = topo.cells[ev.ap];
            const net::round_plan round = sup.plan_round();
            ++stamp;
            for (const std::uint32_t p : round.robust) robust_stamp[members[p]] = stamp;

            double cursor = ev.time_s;
            for (const std::uint32_t p : round.probes) {
                des_event slot;
                slot.kind = event_kind::probe_slot;
                slot.ap = ev.ap;
                slot.tag = static_cast<std::uint32_t>(members[p]);
                slot.mcs = ap::robust_rung;
                slot.time_s = cursor;
                slot.duration_s = probe_slot_s;
                schedule(next, slot);
                cursor += probe_slot_s;
            }
            for (const std::uint32_t p : mac::tdma_scheduler::interleave_shares(
                     round.shares)) {
                des_event slot;
                slot.kind = event_kind::data_slot;
                slot.ap = ev.ap;
                slot.tag = static_cast<std::uint32_t>(members[p]);
                slot.mcs = robust_stamp[slot.tag] == stamp ? ap::robust_rung : tag_mcs[slot.tag];
                slot.time_s = cursor;
                slot.duration_s = mcs_slot_s[slot.mcs];
                schedule(next, slot);
                cursor += slot.duration_s;
            }
            // A fully quarantined, probe-less round still advances time by
            // one robust slot so the backoff clock keeps ticking.
            if (cursor == ev.time_s) cursor += mcs_slot_s[ap::robust_rung];
            cell_end_s[ev.ap] = cursor;
            ++result.rounds;
            if (++rounds_done[ev.ap] < cfg.frames) {
                des_event begin;
                begin.kind = event_kind::round_begin;
                begin.ap = ev.ap;
                begin.time_s = cursor;
                schedule(next, begin);
            }
        } else {
            const auto shared_imp = shared_injector.at(ev.time_s, ev.duration_s);
            const auto tag_imp = ev.tag < tag_injectors.size()
                                     ? tag_injectors[ev.tag].at(ev.time_s, ev.duration_s)
                                     : fault::impairment{};
            const bool powered = shared_imp.tag_powered && tag_imp.tag_powered;
            // Mirror the sample-accurate impairment application: blockage
            // shadows the tag path both ways (power x a^4), a dropout scales
            // the illuminating carrier once (power x c^2), the interferer is
            // referenced to the tag's nominal return.
            const double a = shared_imp.tag_amplitude * tag_imp.tag_amplitude;
            const double c = shared_imp.carrier_amplitude * tag_imp.carrier_amplitude;
            const double rel_db =
                std::max(shared_imp.interferer_rel_db, tag_imp.interferer_rel_db);
            const double s_lin = sinr_lin[ev.tag];
            const double signal_factor = a * a * a * a * c * c;
            const double denom =
                1.0 + (rel_db > interferer_floor_db ? s_lin * from_db(rel_db) : 0.0);
            const double sinr_eff_db = to_db(s_lin * signal_factor / denom);
            if (sinr_hist != nullptr) sinr_hist->observe(sinr_eff_db);

            bool delivered = false;
            if (powered) {
                const double per = table.per(ev.mcs, sinr_eff_db);
                delivered = event_uniform(draw_seed, ev.seq) >= per;
            } else {
                ++result.brownout_losses;
            }
            outcome = delivered ? 1 : 0;

            auto& sup = *supervisors[ev.ap];
            if (ev.kind == event_kind::probe_slot) {
                ++result.probe_slots;
                sup.record_probe(position[ev.tag], delivered);
            } else {
                ++result.data_slots;
                if (sup.record_data(position[ev.tag], delivered)) {
                    ++result.attempts_per_tag[ev.tag];
                    if (delivered) {
                        ++result.delivered_per_tag[ev.tag];
                        ++result.delivered;
                    }
                }
            }
        }
        refresh_head(next);

        const std::size_t length = format_event_line(ev, outcome, line);
        result.event_log_hash = fnv1a64({line, length}, result.event_log_hash);
        if (cfg.record_event_log) result.event_log.append(line, length);
    }

    result.events = next_seq;
    result.sim_time_s = *std::max_element(cell_end_s.begin(), cell_end_s.end());
    for (std::size_t t = 0; t < n; ++t) {
        const auto& sup = supervisors[topo.tags[t].ap];
        const net::tag_session& session = sup->session(position[t]);
        result.transitions += session.transitions().size();
        for (const auto& transition : session.transitions()) {
            if (transition.from == net::session_state::probing &&
                transition.to == net::session_state::active) {
                ++result.readmissions;
            }
        }
        for (const std::size_t latency : session.readmit_latencies_rounds()) {
            result.readmit_latencies_rounds.push_back(latency);
        }
    }

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
    auto cache = phy_table::load_or_generate(table_cfg, jobs, cache_dir);

    runtime::thread_pool pool(jobs);
    const deployment topo = make_deployment(cfg.topology, cfg.scenario, pool);
    std::vector<obs::metrics_registry> registries(metrics != nullptr ? cfg.trials : 0);
    const auto trials = runtime::ordered_parallel_results(
        pool, cfg.trials, [&](std::size_t trial) {
            obs::metrics_registry* registry =
                metrics != nullptr ? &registries[trial] : nullptr;
            return run_scale_trial(cfg, topo, cache.table, trial, registry);
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
    for (const auto& trial : trials) {
        for (std::size_t t = 0; t < topo.tags.size(); ++t) {
            result.attempts_per_tag[t] += trial.attempts_per_tag[t];
            result.delivered_per_tag[t] += trial.delivered_per_tag[t];
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
        if (cfg.record_event_log) result.event_logs.push_back(trial.event_log);
    }
    result.readmit_latency_mean_rounds =
        result.readmit_latency_count > 0
            ? static_cast<double>(latency_sum) /
                  static_cast<double>(result.readmit_latency_count)
            : 0.0;
    if (metrics != nullptr) {
        for (const auto& registry : registries) metrics->merge(registry);
    }
    return result;
}

} // namespace mmtag::scale
