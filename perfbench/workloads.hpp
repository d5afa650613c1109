// The benchmark's workloads, run against the library's public entry points:
// runtime::run_sweep over core::link_simulator (link_waterfall),
// scale::run_scale (des_metro) and net::run_soak (soak_chaos). Each run
// returns one JSON document of raw measurements and simulated statistics;
// run.py checks the statistics and derives metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "mmtag/runtime/result_writer.hpp"

namespace perfbench {

struct run_options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Smoke-test inputs: the same workload shape at a fraction of the size.
    bool small = false;
    std::size_t jobs = 1;
    /// Directory under which each calibration gets a fresh, empty
    /// phy_table cache directory.
    std::string cache_root;
    /// Chrome trace output of the traced run; empty = not written.
    std::string trace_path;
};

[[nodiscard]] bool known_workload(const std::string& name);

/// Sets up, measures for `seconds`, runs the exactness probe, and (traced)
/// the per-layer split. Throws on invalid options.
[[nodiscard]] mmtag::runtime::json_value run_workload(const run_options& options);

} // namespace perfbench
