// Chaos soak harness: drives the network supervisor through seeded
// multi-tag fault schedules (fault::multi_tag_plan — correlated blockage
// storms, rolling brownouts, a persistent interferer) on the sample-accurate
// core::multitag_simulator, records a per-round trace, and checks the
// resilience invariants against it:
//
//   * transition legality — every logged session transition is a legal edge;
//   * no starved healthy tag — a session that stays schedulable through a
//     whole window of rounds received at least one data slot in it;
//   * conservation of delivered frames — per round and per tag, delivered
//     frames never exceed scheduled slots, and the per-tag totals equal the
//     trace sum;
//   * bounded recovery — once the last physical fault has ended, no session
//     is still quarantined (or probing) after
//     grace x (probe backoff cap + readmit streak) further rounds;
//   * graceful degradation — the never-faulted tags keep at least
//     healthy_share_min of the frames they deliver in a fault-free
//     reference run of the same trial.
//
// Each trial runs twice (faulted arm + fault-free reference arm) as
// independent tasks on the runtime thread pool; per-trial results land in
// pre-allocated slots and fold in trial order, so the report (and its JSON)
// is byte-identical for any --jobs value. Invariant checkers are free
// functions over plain trace data so tests can prove they fail loudly on
// fabricated bad traces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mmtag/core/config.hpp"
#include "mmtag/fault/multi_tag_faults.hpp"
#include "mmtag/net/tag_session.hpp"
#include "mmtag/runtime/result_writer.hpp"

namespace mmtag::runtime {
class thread_pool;
}

namespace mmtag::obs {
class metrics_registry;
}

namespace mmtag::net {

/// Fault intensities with timescales sized for the soak's sub-millisecond
/// rounds (the generic fault::multi_tag_config defaults assume a much longer
/// horizon): storms long enough to quarantine, brownouts and background
/// events that only degrade, one brief shared interferer hiccup.
[[nodiscard]] fault::multi_tag_config soak_fault_defaults();

struct soak_config {
    std::size_t tag_count = 6;
    std::size_t faulted_count = 2;   ///< tags [0, faulted_count) take faults
    std::size_t rounds = 36;
    std::size_t payload_bytes = 16;
    std::size_t trials = 2;
    std::uint64_t seed = 1;
    std::uint64_t fault_seed = 42;
    double min_range_m = 1.5;        ///< population geometry
    double max_range_m = 3.0;
    core::system_config scenario = core::fast_scenario();
    /// Fault intensities; horizon_s is overwritten per trial from the
    /// measured round duration (horizon = round airtime x rounds), so
    /// active_fraction keeps its meaning for any round count.
    fault::multi_tag_config faults = soak_fault_defaults();
    session_config session{};
    std::size_t slot_budget = 0;     ///< 0 = one data slot per tag per round

    // Invariant bounds.
    double healthy_share_min = 0.9;
    std::size_t starvation_window_rounds = 6;
    /// Multiplies session.max_readmit_rounds() into the recovery bound
    /// (headroom for PHY-dropped probes on a healthy link).
    double readmit_grace_factor = 2.0;
};

/// One supervisor round as the trace records it (all vectors tag-indexed).
struct round_record {
    double start_clock_s = 0.0;            ///< simulator clock at round start
    std::vector<std::uint8_t> states;      ///< session_state after the round
    std::vector<std::uint16_t> scheduled;  ///< data slots granted
    std::vector<std::uint16_t> delivered;  ///< data frames delivered
    std::vector<std::uint8_t> probed;      ///< 1 = probe slot granted
    std::vector<std::uint8_t> probe_ok;    ///< 1 = that probe delivered
};

struct tagged_transition {
    std::uint32_t tag_id = 0;
    session_transition transition{};
};

/// Everything one faulted-arm trial leaves behind for the checkers.
struct soak_trace {
    std::size_t tag_count = 0;
    std::size_t faulted_count = 0;
    std::vector<round_record> rounds;
    std::vector<tagged_transition> transitions; ///< tag-major, chronological
    std::vector<std::size_t> readmit_latencies_rounds;
    double last_fault_end_s = 0.0;  ///< 0 in the reference arm
};

struct invariant_result {
    std::string name;
    bool passed = false;
    std::string detail; ///< empty when passed
};

/// Invariant checkers (free functions so tests can feed fabricated traces).
[[nodiscard]] invariant_result check_transition_legality(const soak_trace& trace);
[[nodiscard]] invariant_result check_no_starvation(const soak_trace& trace,
                                                   std::size_t window_rounds);
[[nodiscard]] invariant_result check_frame_conservation(
    const soak_trace& trace, const std::vector<std::uint64_t>& delivered_per_tag);
[[nodiscard]] invariant_result check_bounded_recovery(const soak_trace& trace,
                                                      const session_config& session,
                                                      double grace_factor);
[[nodiscard]] invariant_result check_graceful_degradation(
    const std::vector<std::uint64_t>& faulted_delivered,
    const std::vector<std::uint64_t>& reference_delivered,
    std::size_t faulted_count, double healthy_share_min);

/// One trial of one arm (exposed for the determinism tests).
struct soak_trial_result {
    soak_trace trace;
    std::vector<std::uint64_t> delivered_per_tag;
};

struct soak_report {
    std::size_t tag_count = 0;
    std::size_t faulted_count = 0;
    std::size_t rounds = 0;
    std::size_t trials = 0;
    std::uint64_t seed = 0;
    std::uint64_t fault_seed = 0;
    std::vector<std::uint64_t> delivered_per_tag;  ///< faulted arm, summed
    std::vector<std::uint64_t> reference_per_tag;  ///< reference arm, summed
    std::size_t transitions = 0;
    std::size_t readmissions = 0;
    std::size_t max_readmit_rounds = 0;
    /// Worst healthy-tag delivery share across trials (faulted / reference);
    /// negative when no trial could evaluate it.
    double healthy_share_min_observed = -1.0;
    /// Per-invariant verdicts ANDed across trials, first failure's detail.
    std::vector<invariant_result> invariants;

    [[nodiscard]] bool all_passed() const;
    /// Deterministic JSON document (schema mmtag.soak.result/1): a pure
    /// function of (config, seeds) — byte-identical for any --jobs.
    [[nodiscard]] runtime::json_value to_json() const;
};

/// Runs one arm of one trial (faulted or reference). `registry` may be
/// nullptr; when set it receives the trial's multitag/net metrics.
[[nodiscard]] soak_trial_result run_soak_trial(const soak_config& cfg,
                                               std::size_t trial, bool faulted,
                                               obs::metrics_registry* registry);

/// Throws std::invalid_argument unless `cfg` describes a runnable soak: at
/// least one tag, round, trial and payload byte, no more faulted tags than
/// tags, and 0 < min_range_m <= max_range_m. Cheap; call it before any
/// output so a bad configuration fails without side effects.
void validate(const soak_config& cfg);

/// Validates `cfg`, then runs `cfg.trials` trials, each as a faulted +
/// reference task pair on `pool`, folds them in trial order, and evaluates
/// every invariant.
/// `metrics` (optional) receives the merged per-trial registries.
[[nodiscard]] soak_report run_soak(const soak_config& cfg,
                                   runtime::thread_pool& pool,
                                   obs::metrics_registry* metrics = nullptr);

} // namespace mmtag::net
