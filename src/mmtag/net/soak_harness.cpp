#include "mmtag/net/soak_harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/core/multitag_simulator.hpp"
#include "mmtag/core/network.hpp"
#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/mac/tdma.hpp"
#include "mmtag/net/network_supervisor.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/phy/bitio.hpp"
#include "mmtag/runtime/json_io.hpp"
#include "mmtag/runtime/thread_pool.hpp"
#include "mmtag/runtime/trial_rng.hpp"

namespace mmtag::net {

namespace {

bool schedulable_ordinal(std::uint8_t state)
{
    return state == static_cast<std::uint8_t>(session_state::active) ||
           state == static_cast<std::uint8_t>(session_state::degraded);
}

std::string format(const char* fmt, ...)
{
    char buffer[192];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buffer, sizeof buffer, fmt, args);
    va_end(args);
    return buffer;
}

} // namespace

invariant_result check_transition_legality(const soak_trace& trace)
{
    invariant_result out{"transition_legality", true, ""};
    std::vector<std::size_t> last_round(trace.tag_count, 0);
    for (const auto& entry : trace.transitions) {
        if (entry.tag_id >= trace.tag_count) {
            return {out.name, false,
                    format("transition names unknown tag %u", entry.tag_id)};
        }
        const auto& t = entry.transition;
        if (!legal_transition(t.from, t.to)) {
            return {out.name, false,
                    format("tag %u: illegal %s -> %s at round %zu", entry.tag_id,
                           session_state_name(t.from), session_state_name(t.to),
                           t.round)};
        }
        if (t.round < last_round[entry.tag_id]) {
            return {out.name, false,
                    format("tag %u: transition log not chronological at round %zu",
                           entry.tag_id, t.round)};
        }
        last_round[entry.tag_id] = t.round;
    }
    return out;
}

invariant_result check_no_starvation(const soak_trace& trace,
                                     std::size_t window_rounds)
{
    invariant_result out{"no_starvation", true, ""};
    if (window_rounds == 0) return {out.name, false, "window must be >= 1"};
    for (std::size_t tag = 0; tag < trace.tag_count; ++tag) {
        // Rounds in a row where the session both began and ended the round
        // schedulable yet received no data slot.
        std::size_t dry = 0;
        bool prev_schedulable = true; // sessions start ACTIVE
        for (std::size_t r = 0; r < trace.rounds.size(); ++r) {
            const auto& rec = trace.rounds[r];
            const bool now_schedulable = schedulable_ordinal(rec.states[tag]);
            if (rec.scheduled[tag] > 0) {
                dry = 0;
            } else if (now_schedulable && prev_schedulable) {
                ++dry;
            } else {
                dry = 0;
            }
            if (dry >= window_rounds) {
                return {out.name, false,
                        format("tag %zu: no data slot for %zu consecutive "
                               "schedulable rounds (through round %zu)",
                               tag, dry, r)};
            }
            prev_schedulable = now_schedulable;
        }
    }
    return out;
}

invariant_result check_frame_conservation(
    const soak_trace& trace, const std::vector<std::uint64_t>& delivered_per_tag)
{
    invariant_result out{"frame_conservation", true, ""};
    if (delivered_per_tag.size() != trace.tag_count) {
        return {out.name, false, "per-tag totals sized differently than the trace"};
    }
    std::vector<std::uint64_t> sums(trace.tag_count, 0);
    for (std::size_t r = 0; r < trace.rounds.size(); ++r) {
        const auto& rec = trace.rounds[r];
        if (rec.states.size() != trace.tag_count ||
            rec.scheduled.size() != trace.tag_count ||
            rec.delivered.size() != trace.tag_count ||
            rec.probed.size() != trace.tag_count ||
            rec.probe_ok.size() != trace.tag_count) {
            return {out.name, false, format("round %zu: ragged trace record", r)};
        }
        for (std::size_t tag = 0; tag < trace.tag_count; ++tag) {
            if (rec.delivered[tag] > rec.scheduled[tag]) {
                return {out.name, false,
                        format("round %zu tag %zu: %u delivered from %u slots", r,
                               tag, rec.delivered[tag], rec.scheduled[tag])};
            }
            if (rec.probe_ok[tag] != 0 && rec.probed[tag] == 0) {
                return {out.name, false,
                        format("round %zu tag %zu: probe outcome without a probe "
                               "slot",
                               r, tag)};
            }
            sums[tag] += rec.delivered[tag];
        }
    }
    for (std::size_t tag = 0; tag < trace.tag_count; ++tag) {
        if (sums[tag] != delivered_per_tag[tag]) {
            return {out.name, false,
                    format("tag %zu: trace sums %llu delivered frames, totals "
                           "report %llu",
                           tag, static_cast<unsigned long long>(sums[tag]),
                           static_cast<unsigned long long>(delivered_per_tag[tag]))};
        }
    }
    return out;
}

invariant_result check_bounded_recovery(const soak_trace& trace,
                                        const session_config& session,
                                        double grace_factor)
{
    invariant_result out{"bounded_recovery", true, ""};
    if (!(grace_factor >= 1.0)) return {out.name, false, "grace factor must be >= 1"};
    std::size_t first_clean = 0;
    if (trace.last_fault_end_s > 0.0) {
        first_clean = trace.rounds.size();
        for (std::size_t r = 0; r < trace.rounds.size(); ++r) {
            if (trace.rounds[r].start_clock_s >= trace.last_fault_end_s) {
                first_clean = r;
                break;
            }
        }
    }
    const auto bound = static_cast<std::size_t>(
        std::ceil(grace_factor * static_cast<double>(session.max_readmit_rounds())));
    const std::size_t deadline = first_clean + bound;
    if (deadline >= trace.rounds.size()) {
        return {out.name, false,
                format("recovery deadline (round %zu) is past the soak end "
                       "(%zu rounds) — not observable, increase rounds",
                       deadline, trace.rounds.size())};
    }
    for (std::size_t r = deadline; r < trace.rounds.size(); ++r) {
        for (std::size_t tag = 0; tag < trace.tag_count; ++tag) {
            if (!schedulable_ordinal(trace.rounds[r].states[tag])) {
                return {out.name, false,
                        format("tag %zu still unscheduled at round %zu, %zu "
                               "rounds past the last fault",
                               tag, r, r - first_clean)};
            }
        }
    }
    return out;
}

invariant_result check_graceful_degradation(
    const std::vector<std::uint64_t>& faulted_delivered,
    const std::vector<std::uint64_t>& reference_delivered,
    std::size_t faulted_count, double healthy_share_min)
{
    invariant_result out{"graceful_degradation", true, ""};
    if (faulted_delivered.size() != reference_delivered.size() ||
        faulted_count > faulted_delivered.size()) {
        return {out.name, false, "mismatched per-tag delivery vectors"};
    }
    std::uint64_t faulted_sum = 0;
    std::uint64_t reference_sum = 0;
    for (std::size_t tag = faulted_count; tag < faulted_delivered.size(); ++tag) {
        faulted_sum += faulted_delivered[tag];
        reference_sum += reference_delivered[tag];
    }
    if (faulted_delivered.size() == faulted_count) {
        return out; // no healthy tags to compare
    }
    if (reference_sum == 0) {
        return {out.name, false,
                "fault-free reference delivered nothing — the scenario is "
                "broken, not degraded"};
    }
    const double share = static_cast<double>(faulted_sum) /
                         static_cast<double>(reference_sum);
    if (share + 1e-12 < healthy_share_min) {
        return {out.name, false,
                format("healthy tags kept %.3f of their fault-free delivery, "
                       "below the %.3f floor",
                       share, healthy_share_min)};
    }
    return out;
}

fault::multi_tag_config soak_fault_defaults()
{
    // Timescales sized for the soak's measured horizon (a fast_scenario
    // round is a few hundred microseconds of airtime): storms long enough to
    // quarantine (several consecutive rounds blocked), brownouts and
    // background events that degrade without quarantining, one brief shared
    // interferer hiccup.
    fault::multi_tag_config cfg;
    cfg.active_fraction = 0.45;
    cfg.storm_rate_hz = 250.0;
    cfg.storm_span = 3;
    cfg.storm_duration_s = 3.5e-3;
    cfg.storm_depth_db_min = 15.0;
    cfg.storm_depth_db_max = 30.0;
    cfg.brownout_period_s = 5e-3;
    cfg.brownout_duration_s = 1.2e-3;
    cfg.brownout_stagger_s = 2e-3;
    cfg.interferer_start_s = 2e-3;
    cfg.interferer_duration_s = 1.2e-3;
    cfg.interferer_rel_db = 12.0;
    cfg.background_rate_hz = 120.0;
    cfg.background_mean_duration_s = 0.8e-3;
    return cfg;
}

soak_trial_result run_soak_trial(const soak_config& cfg, std::size_t trial,
                                 bool faulted, obs::metrics_registry* registry)
{
    const std::size_t n = cfg.tag_count;
    const auto population = core::uniform_population(
        n, cfg.min_range_m, cfg.max_range_m, runtime::substream(cfg.seed, 17));
    auto scenario = cfg.scenario;
    const std::uint64_t tseed = runtime::trial_seed(cfg.seed, 0, trial);
    scenario.seed = tseed;

    core::multitag_simulator sim(scenario, population);
    if (registry != nullptr) sim.attach_metrics(registry);

    // Degraded sessions and probes use the robust bottom of the rate ladder.
    const double data_slot_s = sim.burst_duration_s(cfg.payload_bytes) * 1.05;
    const double robust_slot_s =
        sim.burst_duration_s(cfg.payload_bytes, ap::robust_rung) * 1.05;
    const double probe_slot_s =
        sim.burst_duration_s(ap::probe_payload_bytes, ap::robust_rung) * 1.05;

    // Fault plan: the horizon derives from one round's capture window, which
    // the round's last data burst ends, so active_fraction keeps its meaning
    // for any round count or payload size.
    std::optional<fault::multi_tag_plan> plan;
    std::optional<fault::fault_injector> shared_injector;
    std::vector<fault::fault_injector> tag_injector_storage;
    if (faulted) {
        const double round_s = sim.capture_window_s(
            {{.tag_index = n - 1,
              .payload = std::vector<std::uint8_t>(cfg.payload_bytes, 0),
              .start_s = static_cast<double>(n - 1) * data_slot_s}});

        auto faults_cfg = cfg.faults;
        faults_cfg.horizon_s =
            std::max(round_s * static_cast<double>(cfg.rounds), 1e-6);
        plan.emplace(faults_cfg, n, cfg.faulted_count, cfg.fault_seed + trial);
        shared_injector.emplace(plan->shared());
        if (registry != nullptr) shared_injector->attach_metrics(registry);
        tag_injector_storage.reserve(n);
        for (std::size_t tag = 0; tag < n; ++tag) {
            tag_injector_storage.emplace_back(plan->tag_schedule(tag));
        }
        std::vector<fault::fault_injector*> pointers;
        pointers.reserve(n);
        for (auto& injector : tag_injector_storage) pointers.push_back(&injector);
        sim.attach_fault_injector(&*shared_injector);
        sim.attach_tag_fault_injectors(std::move(pointers));
    }

    supervisor_config sup_cfg;
    sup_cfg.session = cfg.session;
    sup_cfg.slot_budget = cfg.slot_budget;
    sup_cfg.metrics = registry;
    // uniform_population numbers tags 0..n-1, the supervisor's positions.
    network_supervisor supervisor(sup_cfg, n);

    soak_trial_result result;
    result.trace.tag_count = n;
    result.trace.faulted_count = faulted ? cfg.faulted_count : 0;
    result.trace.rounds.reserve(cfg.rounds);
    result.delivered_per_tag.assign(n, 0);

    std::uint64_t burst_counter = 0;
    for (std::size_t round = 0; round < cfg.rounds; ++round) {
        const auto round_plan = supervisor.plan_round();
        round_record rec;
        rec.start_clock_s = sim.clock_s();
        rec.states.assign(n, 0);
        rec.scheduled.assign(n, 0);
        rec.delivered.assign(n, 0);
        rec.probed.assign(n, 0);
        rec.probe_ok.assign(n, 0);

        std::vector<bool> robust_tag(n, false);
        for (const std::uint32_t id : round_plan.robust) robust_tag[id] = true;

        struct slot_info {
            std::uint32_t tag = 0;
            bool probe = false;
        };
        std::vector<core::tag_burst> bursts;
        std::vector<slot_info> slots;
        double cursor = 0.0;
        for (const std::uint32_t id :
             mac::tdma_scheduler::interleave_shares(round_plan.shares)) {
            core::tag_burst burst;
            burst.tag_index = id;
            burst.payload = phy::random_bytes(
                cfg.payload_bytes, runtime::substream(tseed, ++burst_counter));
            burst.start_s = cursor;
            if (robust_tag[id]) burst.mcs = ap::robust_rung;
            cursor += robust_tag[id] ? robust_slot_s : data_slot_s;
            bursts.push_back(std::move(burst));
            slots.push_back({id, false});
            ++rec.scheduled[id];
        }
        for (const std::uint32_t id : round_plan.probes) {
            core::tag_burst burst;
            burst.tag_index = id;
            burst.payload = phy::random_bytes(
                ap::probe_payload_bytes, runtime::substream(tseed, ++burst_counter));
            burst.start_s = cursor;
            burst.mcs = ap::robust_rung;
            cursor += probe_slot_s;
            bursts.push_back(std::move(burst));
            slots.push_back({id, true});
            rec.probed[id] = 1;
        }

        if (!bursts.empty()) {
            const auto outcomes = sim.run(bursts);
            for (std::size_t i = 0; i < outcomes.size(); ++i) {
                if (slots[i].probe) {
                    supervisor.record_probe(slots[i].tag, outcomes[i].delivered);
                    rec.probe_ok[slots[i].tag] = outcomes[i].delivered ? 1 : 0;
                } else {
                    const bool accepted =
                        supervisor.record_data(slots[i].tag, outcomes[i].delivered);
                    // A frame the AP discarded (tag quarantined mid-round on an
                    // earlier slot) does not count as delivered.
                    if (accepted && outcomes[i].delivered) {
                        ++rec.delivered[slots[i].tag];
                        ++result.delivered_per_tag[slots[i].tag];
                    }
                }
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            rec.states[i] =
                static_cast<std::uint8_t>(supervisor.session(i).state());
        }
        result.trace.rounds.push_back(std::move(rec));
    }

    for (std::size_t i = 0; i < n; ++i) {
        const auto& session = supervisor.session(i);
        for (const auto& t : session.transitions()) {
            result.trace.transitions.push_back({session.tag_id(), t});
        }
        for (const std::size_t latency : session.readmit_latencies_rounds()) {
            result.trace.readmit_latencies_rounds.push_back(latency);
        }
    }
    result.trace.last_fault_end_s = faulted ? plan->last_fault_end_s() : 0.0;
    return result;
}

bool soak_report::all_passed() const
{
    if (invariants.empty()) return false;
    return std::all_of(invariants.begin(), invariants.end(),
                       [](const invariant_result& r) { return r.passed; });
}

runtime::json_value soak_report::to_json() const
{
    using runtime::json_value;
    auto doc = runtime::schema_object("mmtag.soak.result/1");
    doc.set("tags", json_value::unsigned_integer(tag_count));
    doc.set("faulted", json_value::unsigned_integer(faulted_count));
    doc.set("rounds", json_value::unsigned_integer(rounds));
    doc.set("trials", json_value::unsigned_integer(trials));
    doc.set("seed", json_value::unsigned_integer(seed));
    doc.set("fault_seed", json_value::unsigned_integer(fault_seed));
    auto delivered = json_value::array();
    for (const std::uint64_t d : delivered_per_tag) {
        delivered.push(json_value::unsigned_integer(d));
    }
    doc.set("delivered_per_tag", std::move(delivered));
    auto reference = json_value::array();
    for (const std::uint64_t d : reference_per_tag) {
        reference.push(json_value::unsigned_integer(d));
    }
    doc.set("reference_per_tag", std::move(reference));
    doc.set("transitions", json_value::unsigned_integer(transitions));
    doc.set("readmissions", json_value::unsigned_integer(readmissions));
    doc.set("max_readmit_rounds", json_value::unsigned_integer(max_readmit_rounds));
    doc.set("healthy_share_min_observed",
            healthy_share_min_observed >= 0.0
                ? json_value::number(healthy_share_min_observed)
                : json_value::null());
    auto checks = json_value::array();
    for (const auto& inv : invariants) {
        auto entry = json_value::object();
        entry.set("name", json_value::string(inv.name));
        entry.set("passed", json_value::boolean(inv.passed));
        entry.set("detail", json_value::string(inv.detail));
        checks.push(std::move(entry));
    }
    doc.set("invariants", std::move(checks));
    doc.set("passed", json_value::boolean(all_passed()));
    return doc;
}

namespace {

/// AND-fold one freshly evaluated invariant into the report slot, keeping
/// the first failure's detail (trials fold in order, so this is stable).
void fold_invariant(invariant_result& into, const invariant_result& from)
{
    if (into.passed && !from.passed) {
        into.passed = false;
        into.detail = from.detail;
    }
}

} // namespace

void validate(const soak_config& cfg)
{
    if (cfg.tag_count == 0) throw std::invalid_argument("soak: tags must be >= 1");
    if (cfg.faulted_count > cfg.tag_count) {
        throw std::invalid_argument("soak: faulted tags must not exceed tags");
    }
    if (cfg.rounds == 0) throw std::invalid_argument("soak: rounds must be >= 1");
    if (cfg.trials == 0) throw std::invalid_argument("soak: trials must be >= 1");
    if (cfg.payload_bytes == 0) throw std::invalid_argument("soak: payload must be >= 1 byte");
    if (!(cfg.min_range_m > 0.0) || !(cfg.max_range_m >= cfg.min_range_m)) {
        throw std::invalid_argument("soak: need 0 < min range <= max range");
    }
}

soak_report run_soak(const soak_config& cfg, runtime::thread_pool& pool,
                     obs::metrics_registry* metrics)
{
    validate(cfg);

    struct task_output {
        soak_trial_result result;
        obs::metrics_registry registry;
    };
    // Task grid: [0, trials) = faulted arm, [trials, 2*trials) = reference.
    const std::size_t tasks = 2 * cfg.trials;
    const bool want_metrics = metrics != nullptr;
    auto outputs = runtime::ordered_parallel_results(
        pool, tasks, [&](std::size_t index) {
            task_output out;
            const bool faulted = index < cfg.trials;
            const std::size_t trial = faulted ? index : index - cfg.trials;
            out.result = run_soak_trial(cfg, trial, faulted,
                                        want_metrics ? &out.registry : nullptr);
            return out;
        });

    soak_report report;
    report.tag_count = cfg.tag_count;
    report.faulted_count = cfg.faulted_count;
    report.rounds = cfg.rounds;
    report.trials = cfg.trials;
    report.seed = cfg.seed;
    report.fault_seed = cfg.fault_seed;
    report.delivered_per_tag.assign(cfg.tag_count, 0);
    report.reference_per_tag.assign(cfg.tag_count, 0);
    report.invariants = {
        {"transition_legality", true, ""}, {"no_starvation", true, ""},
        {"frame_conservation", true, ""},  {"bounded_recovery", true, ""},
        {"graceful_degradation", true, ""},
    };

    for (std::size_t trial = 0; trial < cfg.trials; ++trial) {
        const auto& faulted = outputs[trial].result;
        const auto& reference = outputs[cfg.trials + trial].result;
        for (std::size_t tag = 0; tag < cfg.tag_count; ++tag) {
            report.delivered_per_tag[tag] += faulted.delivered_per_tag[tag];
            report.reference_per_tag[tag] += reference.delivered_per_tag[tag];
        }
        report.transitions += faulted.trace.transitions.size();
        report.readmissions += faulted.trace.readmit_latencies_rounds.size();
        for (const std::size_t latency : faulted.trace.readmit_latencies_rounds) {
            report.max_readmit_rounds = std::max(report.max_readmit_rounds, latency);
        }

        // The four trace invariants audit both arms; degradation compares them.
        for (const auto* arm : {&faulted, &reference}) {
            fold_invariant(report.invariants[0],
                           check_transition_legality(arm->trace));
            fold_invariant(report.invariants[1],
                           check_no_starvation(arm->trace,
                                               cfg.starvation_window_rounds));
            fold_invariant(report.invariants[2],
                           check_frame_conservation(arm->trace,
                                                    arm->delivered_per_tag));
            fold_invariant(report.invariants[3],
                           check_bounded_recovery(arm->trace, cfg.session,
                                                  cfg.readmit_grace_factor));
        }
        fold_invariant(report.invariants[4],
                       check_graceful_degradation(
                           faulted.delivered_per_tag, reference.delivered_per_tag,
                           cfg.faulted_count, cfg.healthy_share_min));

        std::uint64_t healthy_faulted = 0;
        std::uint64_t healthy_reference = 0;
        for (std::size_t tag = cfg.faulted_count; tag < cfg.tag_count; ++tag) {
            healthy_faulted += faulted.delivered_per_tag[tag];
            healthy_reference += reference.delivered_per_tag[tag];
        }
        if (healthy_reference > 0) {
            const double share = static_cast<double>(healthy_faulted) /
                                 static_cast<double>(healthy_reference);
            report.healthy_share_min_observed =
                report.healthy_share_min_observed < 0.0
                    ? share
                    : std::min(report.healthy_share_min_observed, share);
        }
    }

    if (want_metrics) {
        for (const auto& out : outputs) metrics->merge(out.registry);
    }
    return report;
}

} // namespace mmtag::net
