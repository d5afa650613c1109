// Stop-and-wait ARQ over the backscatter uplink: the AP re-queries a tag
// until a frame passes CRC. Simple, and the right fit for a half-duplex
// query/response link where the AP controls every transmission anyway.
//
// Retries optionally space out with capped exponential backoff (the policy
// the ap::link_supervisor reuses during outages), and the implicit ACK — the
// AP's next query — can itself be lost, in which case the tag retransmits a
// frame the AP already holds and the AP discards the duplicate.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mmtag::mac {

struct arq_config {
    std::size_t max_retries = 8; ///< attempts per frame before giving up
    double frame_time_s = 300e-6;
    double ack_time_s = 20e-6;   ///< re-query / implicit ACK airtime
    /// Idle wait before retry k (k >= 1): min(initial * factor^(k-1), cap).
    /// The default 0 keeps the classic immediate-retransmit behavior.
    double initial_backoff_s = 0.0;
    double backoff_factor = 2.0;
    double max_backoff_s = 5e-3;
    /// Probability the implicit ACK is lost after a successful delivery,
    /// forcing a redundant retransmission the receiver must deduplicate.
    double ack_loss = 0.0;
};

struct arq_stats {
    std::size_t frames_offered = 0;
    std::size_t frames_delivered = 0;
    std::size_t transmissions = 0;
    /// Successful deliveries repeated because the ACK was lost; the receiver
    /// discards these by sequence number.
    std::size_t duplicates_discarded = 0;
    double airtime_s = 0.0;
    double backoff_wait_s = 0.0; ///< idle time spent backing off (in airtime_s)

    [[nodiscard]] double delivery_ratio() const;
};

class stop_and_wait_arq {
public:
    explicit stop_and_wait_arq(const arq_config& cfg = {});

    [[nodiscard]] const arq_config& parameters() const { return cfg_; }

    /// Simulates `frame_count` frames over a link whose per-attempt frame
    /// success probability is `frame_success`.
    [[nodiscard]] arq_stats run(std::size_t frame_count, double frame_success,
                                std::uint64_t seed) const;

    /// Idle wait preceding attempt `attempt` (0-based; attempt 0 never
    /// waits): min(initial * factor^(attempt-1), cap).
    [[nodiscard]] double backoff_delay_s(std::size_t attempt) const;

private:
    arq_config cfg_;
};

} // namespace mmtag::mac
