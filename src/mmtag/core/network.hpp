// Multi-tag network façade: inventory (framed slotted ALOHA) + steady-state
// TDMA data collection over a population of tags at different ranges and
// orientations.
//
// Scaling note: per-tag PHY behaviour is driven by the analytic link budget
// (SNR -> rate selection -> PER via modulation theory), which matches the
// sample-level simulator to within fractions of a dB (verified by the
// integration tests) while letting benches sweep populations of hundreds.
// Sample-accurate single-link validation lives in link_simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/core/config.hpp"
#include "mmtag/mac/slotted_aloha.hpp"
#include "mmtag/mac/tdma.hpp"

namespace mmtag::core {

struct tag_descriptor {
    std::uint32_t id = 0;
    double distance_m = 2.0;
    double incidence_rad = 0.0;
};

/// Deterministic random population: `count` tags with ids 0..count-1, ranges
/// uniform in [min_range_m, max_range_m] and incidence uniform in +/-35 deg.
/// Shared by the CLI `network` command, the soak harness, R22 and the warehouse example.
[[nodiscard]] std::vector<tag_descriptor> uniform_population(std::size_t count,
                                                             double min_range_m,
                                                             double max_range_m,
                                                             std::uint64_t seed);

struct tag_link_state {
    tag_descriptor tag;
    double snr_db = 0.0;
    ap::rate_option rate{};
    double frame_success = 0.0; ///< per-attempt frame delivery probability
    double goodput_bps = 0.0;   ///< per-tag goodput in steady state
};

struct network_report {
    mac::inventory_stats inventory;
    mac::tdma_metrics tdma;
    std::vector<tag_link_state> links;
    double aggregate_goodput_bps = 0.0;
    double min_snr_db = 0.0;
    double max_snr_db = 0.0;
};

class network {
public:
    network(const system_config& base, std::vector<tag_descriptor> tags);

    [[nodiscard]] const std::vector<tag_descriptor>& tags() const { return tags_; }

    /// Per-tag link state from the budget + rate adaptation.
    [[nodiscard]] std::vector<tag_link_state> evaluate_links(
        std::size_t frame_payload_bytes = 256) const;

    /// Full network run: inventory then one steady-state TDMA evaluation.
    [[nodiscard]] network_report run(std::uint64_t seed,
                                     std::size_t frame_payload_bytes = 256) const;

private:
    system_config base_;
    std::vector<tag_descriptor> tags_;
};

} // namespace mmtag::core
