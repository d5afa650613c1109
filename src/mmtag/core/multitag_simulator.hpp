// Sample-accurate multi-tag simulation: several tags' reflections superposed
// on one AP capture. Exercises what the slot-level MAC models abstract away —
// actual collisions, the capture effect between unequal links, and clean
// slotted separation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/ap/receiver.hpp"
#include "mmtag/ap/transmitter.hpp"
#include "mmtag/channel/backscatter_channel.hpp"
#include "mmtag/core/config.hpp"
#include "mmtag/core/network.hpp"
#include "mmtag/tag/modulator.hpp"

namespace mmtag::fault {
class fault_injector;
}

namespace mmtag::obs {
class metrics_registry;
}

namespace mmtag::core {

/// One tag's transmission in the shared capture window.
struct tag_burst {
    std::size_t tag_index = 0;            ///< into the constructor's tag list
    std::vector<std::uint8_t> payload;
    double start_s = 0.0;                 ///< burst start within the capture
    /// Per-burst MCS override, a rung of ap::rate_table(): the network
    /// supervisor drops a degraded session to ap::robust_rung without touching
    /// the other tags in the capture. The frame header self-describes scheme
    /// and FEC, so the receiver decodes an overridden burst with no
    /// configuration change. nullopt = the base configuration's MCS.
    std::optional<std::size_t> mcs = std::nullopt;
};

struct burst_outcome {
    bool frame_found = false;
    bool delivered = false;               ///< CRC passed and payload matches
    double snr_db = -100.0;
    std::vector<std::uint8_t> payload;
};

class multitag_simulator {
public:
    multitag_simulator(const system_config& base, const std::vector<tag_descriptor>& tags);

    [[nodiscard]] std::size_t tag_count() const { return channels_.size(); }

    /// Attaches a fault injector consulted once per capture (shared faults:
    /// carrier dropout, LO step, interferer) and once per burst (per-tag
    /// faults: blockage, brownout). Not owned; nullptr detaches.
    void attach_fault_injector(fault::fault_injector* injector) { faults_ = injector; }

    /// Attaches one injector per tag, consulted for each tag's own burst on
    /// top of the shared injector (per-tag faults: blockage, brownout). The
    /// vector must be empty (detach) or hold tag_count() entries; individual
    /// entries may be nullptr for healthy tags. Not owned.
    void attach_tag_fault_injectors(std::vector<fault::fault_injector*> injectors);

    /// Attaches an observability registry fed once per capture and per burst
    /// (capture/burst counters, per-burst SNR histogram, scoped timers).
    /// Not owned; nullptr detaches.
    void attach_metrics(obs::metrics_registry* metrics) { metrics_ = metrics; }

    /// Simulated time: the sum of all capture windows run so far.
    [[nodiscard]] double clock_s() const { return clock_s_; }

    /// Runs one shared capture containing all bursts, then attempts to
    /// receive each burst in its own window. Overlapping bursts interfere at
    /// the sample level; well-separated slots decode independently. Throws
    /// std::invalid_argument on a tag index or MCS rung out of range.
    [[nodiscard]] std::vector<burst_outcome> run(const std::vector<tag_burst>& bursts);

    /// The capture window run(bursts) would advance clock_s() by, unsimulated.
    [[nodiscard]] double capture_window_s(const std::vector<tag_burst>& bursts) const;

    /// Airtime of one burst for `payload_bytes` (for slot planning), at the
    /// base MCS or at rung `mcs` (robust-rung slots are longer: fewer bits
    /// per symbol, lower code rate).
    [[nodiscard]] double burst_duration_s(std::size_t payload_bytes,
                                          std::optional<std::size_t> mcs = std::nullopt) const;

private:
    /// A capture whose bursts end by sample `latest_end`: the quiet lead the
    /// canceller trains on, and the whole capture's length including it.
    struct capture_layout { std::size_t lead, capture; };
    [[nodiscard]] capture_layout layout(std::size_t latest_end) const;

    system_config base_;
    std::vector<channel::backscatter_channel> channels_;
    tag::backscatter_modulator modulator_;
    ap::ap_transmitter transmitter_;
    fault::fault_injector* faults_ = nullptr;
    std::vector<fault::fault_injector*> tag_faults_;
    obs::metrics_registry* metrics_ = nullptr;
    double clock_s_ = 0.0;
    std::uint64_t runs_ = 0;
};

} // namespace mmtag::core
