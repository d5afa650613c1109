// Calibrated PHY abstraction: per-MCS PER-vs-SINR curves measured once from
// the sample-accurate core::link_simulator, then consulted in O(log n) per
// packet by the discrete-event engine. This is the standard network-scale
// technique: the expensive PHY runs offline over a (MCS x SINR) grid; the
// scale simulator only interpolates.
//
// Calibration maps each SINR grid point to the distance at which the
// analytic link budget predicts that SNR (link_budget::max_range_m), runs
// `frames_per_point` sample-accurate frames there on the Monte-Carlo
// runtime, and records the measured PER. Curves are forced monotone
// non-increasing in SINR (pool-adjacent-violators), and the loader rejects
// any persisted table that is not.
//
// Disk cache: bench/out/phy_table_<fingerprint>.json with schema
// "mmtag.phy_table/1". The fingerprint hashes every parameter the curves
// depend on (scenario RF fields, SINR grid, frames, payload, seed, and the
// rate ladder itself), and the document records the PHY-model revision that
// measured it; load_or_generate() loads only when both match and regenerates
// with a loud stderr line on miss or mismatch — a stale table silently
// reused would corrupt every scale result downstream.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/core/config.hpp"
#include "mmtag/runtime/result_writer.hpp"

namespace mmtag::scale {

/// Revision of the sample-accurate PHY model the curves are measured from.
/// Bump it whenever a change moves the simulator's statistics (noise source,
/// receive chain, ...): from_json() rejects a table whose recorded revision
/// differs, so tables calibrated by an older model are regenerated instead
/// of loaded. Revision 2 draws Gaussian noise from runtime::gaussian_source;
/// tables from revision 1 (standard-library normal draws) carry no revision
/// field.
inline constexpr std::uint64_t phy_model_revision = 2;

inline constexpr std::uint64_t fnv1a64_offset = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a of `text`, continuing from `hash`: the table fingerprint
/// hashes a parameter document, the DES event-log hash runs line by line.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view text,
                                              std::uint64_t hash = fnv1a64_offset)
{
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

struct phy_table_config {
    core::system_config scenario = core::fast_scenario();
    /// SINR grid [dB]: inclusive start/stop swept in `sinr_step_db` steps.
    double sinr_start_db = -2.0;
    double sinr_stop_db = 26.0;
    double sinr_step_db = 2.0;
    /// Sample-accurate frames per (MCS, SINR) grid point.
    std::size_t frames_per_point = 48;
    std::size_t payload_bytes = 16;
    std::uint64_t seed = 0xca11b8;

    [[nodiscard]] std::vector<double> sinr_grid() const;
};

class phy_table {
public:
    struct curve {
        phy::modulation scheme = phy::modulation::bpsk;
        phy::fec_mode fec = phy::fec_mode::conv_half;
        std::vector<double> sinr_db; ///< ascending grid
        std::vector<double> per;     ///< monotone non-increasing
        std::vector<std::uint64_t> frames; ///< observations per point
    };

    /// Interpolated PER for rate_table()[mcs_index] at `sinr_db`, clamped to
    /// the curve ends (below the grid the first point's PER applies, above
    /// the last point's).
    [[nodiscard]] double per(std::size_t mcs_index, double sinr_db) const;

    [[nodiscard]] const std::vector<curve>& curves() const { return curves_; }
    [[nodiscard]] const std::string& fingerprint() const { return fingerprint_; }
    [[nodiscard]] const phy_table_config& parameters() const { return cfg_; }

    [[nodiscard]] runtime::json_value to_json() const;
    /// Parses a persisted table and validates it against the config the
    /// caller expects (the persisted params are a digest, not the full
    /// scenario). Throws simulation_error on schema mismatch, fingerprint
    /// or params mismatch, or non-monotone curves — the fail-loud half of
    /// the cache contract.
    [[nodiscard]] static phy_table from_json(const runtime::json_value& doc,
                                             const phy_table_config& cfg);

    /// Hash of everything the curves depend on (scenario, grid, seed, rate
    /// ladder); 16 lowercase hex digits.
    [[nodiscard]] static std::string fingerprint_of(const phy_table_config& cfg);

    /// Runs the calibration sweep on the Monte-Carlo runtime (`jobs` as in
    /// sweep_options; results are jobs-invariant).
    [[nodiscard]] static phy_table generate(const phy_table_config& cfg,
                                            std::size_t jobs);

    struct cache_result;
    /// Loads `<cache_dir>/phy_table_<fingerprint>.json` when present and
    /// valid; otherwise prints the loud "regenerating" line, generates, and
    /// persists. `cache_dir` defaults to bench/out.
    [[nodiscard]] static cache_result load_or_generate(const phy_table_config& cfg,
                                                       std::size_t jobs,
                                                       const std::string& cache_dir =
                                                           "bench/out");

private:
    phy_table_config cfg_;
    std::vector<curve> curves_;
    std::string fingerprint_;
};

struct phy_table::cache_result {
    phy_table table;
    bool cache_hit = false;
    std::string path; ///< file loaded from or written to
};

/// Forces `values` monotone non-increasing by pool-adjacent-violators
/// (least-squares isotonic fit); exposed for the calibration tests.
void enforce_non_increasing(std::vector<double>& values);

} // namespace mmtag::scale
