// Deterministic discrete-event simulator for multi-AP, thousand-tag mmtag
// networks. Each AP cell runs its own TDMA round loop (planned by an
// unmodified net::network_supervisor); every scheduled slot becomes one
// event whose packet outcome is drawn from the calibrated scale::phy_table
// at the tag's per-slot SINR — static topology SINR perturbed by the
// fault::multi_tag_plan impairments active over the slot window.
//
// Cells share no state an outcome depends on: each has its own supervisor,
// static SINRs, copy of the shared fault timeline and per-tag fault
// timelines, which it builds for its own faulted tags from the trial's
// fault plan. So each cell is one task that runs its whole round loop: plan
// the round, run its probe slots, then its data slots. There is no event
// queue. run_scale puts every (trial, cell) pair of the run on the thread
// pool as one flat task list; run_scale_trial runs one trial's cells
// inline, in cell order. Both run the same cell body.
//
// Determinism contract (same as the Monte-Carlo runtime's):
//   * each packet draw is keyed by (cell, per-cell slot index) through
//     runtime::substream, so a cell's outcomes depend on nothing outside
//     the cell and never on --jobs;
//   * every event (round begin or slot) feeds its cell's hash as a fixed
//     binary record — kind, round or slot index, time bits, tag, rung,
//     outcome — mixed with runtime::mix64; the cell hashes fold in cell
//     order into the trial's `event_log_hash`. No text log is formatted;
//   * each cell result, metrics registry included, lands in a
//     pre-allocated slot, and the results fold in (trial, cell) order,
//     whatever the job count.
//
// Impairment -> SINR mapping mirrors how core::link_simulator applies the
// same impairments to samples: blockage shadows the tag path twice (power
// x a^4), a carrier dropout scales the illuminator once (power x c^2), the
// shared interferer adds power relative to the tag's nominal return, and a
// brownout suppresses the response entirely.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mmtag/fault/multi_tag_faults.hpp"
#include "mmtag/net/tag_session.hpp"
#include "mmtag/runtime/result_writer.hpp"
#include "mmtag/scale/phy_table.hpp"
#include "mmtag/scale/topology.hpp"

namespace mmtag::obs {
class metrics_registry;
}

namespace mmtag::scale {

struct scale_config {
    topology_config topology{};
    core::system_config scenario = core::fast_scenario();
    /// TDMA rounds each AP runs per trial.
    std::size_t frames = 200;
    std::size_t payload_bytes = 16;
    /// Data-slot budget per AP round; 0 = one per tag in the cell.
    std::size_t slot_budget = 0;
    net::session_config session{};
    /// Rate-adaptation margin for each tag's static MCS choice [dB].
    double margin_db = 2.0;
    /// Tags receiving per-tag fault timelines (ids [0, faulted)); the
    /// shared timeline applies regardless.
    std::size_t faulted = 0;
    /// Fault mix. `horizon_s`, `interferer_start_s`, and
    /// `interferer_duration_s` are overridden per trial: the engine rescales
    /// them to the nominal schedule length so the interferer transient and
    /// the recovery tail land inside the run at any tag count.
    fault::multi_tag_config faults{};
    /// Calibration parameters for the PHY table. `scenario` and
    /// `payload_bytes` inside are overridden from the fields above so the
    /// table always matches the simulated link; the grid/frames/seed fields
    /// control calibration cost (tests use a coarse grid).
    phy_table_config phy{};
    std::uint64_t seed = 1;
    std::uint64_t fault_seed = 99;
    std::size_t trials = 1;
};

/// One trial's raw outcome; merged across trials into scale_result.
struct scale_trial_result {
    std::vector<std::uint64_t> attempts_per_tag;
    std::vector<std::uint64_t> delivered_per_tag;
    std::uint64_t data_slots = 0;
    std::uint64_t probe_slots = 0;
    std::uint64_t delivered = 0;
    std::uint64_t brownout_losses = 0;
    std::uint64_t rounds = 0;
    std::uint64_t events = 0;
    double sim_time_s = 0.0; ///< latest AP round-loop end
    std::uint64_t transitions = 0;
    std::uint64_t readmissions = 0;
    std::vector<std::size_t> readmit_latencies_rounds;
    std::uint64_t event_log_hash = 0; ///< cell hashes of the event records, folded
};

struct scale_result {
    scale_config config;
    std::size_t jobs = 1;
    std::vector<std::uint64_t> attempts_per_tag;  ///< summed over trials
    std::vector<std::uint64_t> delivered_per_tag; ///< summed over trials
    std::uint64_t data_slots = 0;
    std::uint64_t probe_slots = 0;
    std::uint64_t delivered = 0;
    std::uint64_t brownout_losses = 0;
    std::uint64_t rounds = 0;
    std::uint64_t events = 0;
    double sim_time_s = 0.0; ///< summed across trials
    std::uint64_t transitions = 0;
    std::uint64_t readmissions = 0;
    std::uint64_t readmit_latency_count = 0;
    double readmit_latency_mean_rounds = 0.0;
    std::uint64_t readmit_latency_max_rounds = 0;
    /// Ordered fold of per-trial event-log hashes.
    std::uint64_t event_log_hash = 0;
    bool cache_hit = false; ///< phy_table came from disk
    std::string phy_table_path;

    /// Delivered payload bits per second of simulated time.
    [[nodiscard]] double goodput_bps() const;
    /// Jain's fairness index over delivered_per_tag (1 = perfectly fair).
    [[nodiscard]] double fairness_index() const;
    /// Schema "mmtag.scale.result/1"; deterministic for any --jobs.
    [[nodiscard]] runtime::json_value to_json() const;
};

/// Runs one trial's cells inline, in cell order, against a prebuilt
/// deployment + phy table, and folds them as run_scale does: the result
/// equals that trial's share of run_scale's. Exposed for the determinism
/// tests and the traced benchmark; run_scale is the normal entry point.
[[nodiscard]] scale_trial_result run_scale_trial(const scale_config& cfg,
                                                 const deployment& topo,
                                                 const phy_table& table,
                                                 std::size_t trial,
                                                 obs::metrics_registry* metrics);

/// Throws std::invalid_argument unless `cfg` describes a runnable scale-out:
/// at least one tag, AP, trial and payload byte, a positive floor size, and
/// no more faulted tags than tags. Cheap; call it before any output so a bad
/// configuration fails before the phy table is calibrated or written.
void validate(const scale_config& cfg);

/// Validates `cfg`, loads or generates the phy table (disk cache under
/// `cache_dir`), builds the deployment and each trial's fault plan, runs
/// every (trial, cell) task on `jobs` workers, and folds the results in
/// (trial, cell) order. `metrics` (optional) receives the merged scale/...
/// and net/... registries, folded deterministically. With a trace session
/// active it records scale.table_load, scale.topology, scale.plan and one
/// scale.cell span per task.
[[nodiscard]] scale_result run_scale(const scale_config& cfg, std::size_t jobs,
                                     obs::metrics_registry* metrics = nullptr,
                                     const std::string& cache_dir = "bench/out");

} // namespace mmtag::scale
