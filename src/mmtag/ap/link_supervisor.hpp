// AP-side link supervision: outage detection from CRC-failure streaks,
// robust-rung probes spaced by the mac::arq capped-exponential backoff, MCS
// fallback with smoothed-SNR ramp-up capped at the nominal rung, and a
// watchdog that re-runs acquisition when an outage persists — plus the
// recovery metrics (time-to-detect, time-to-recover, goodput retained) R21
// reports. Link health is a net::tag_session with link parameters: the
// first failure degrades (alert), outage_streak failures quarantine
// (outage), every outage attempt is a probe and one clean probe re-admits
// (recovery); the session's round is the attempt counter. run_supervised()
// and the unsupervised run_plain_arq() drive any link through a callback
// bundle: the sample-accurate core::link_simulator or a unit test's script.
#pragma once

#include <cstddef>
#include <functional>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/mac/arq.hpp"
#include "mmtag/net/tag_session.hpp"

namespace mmtag::obs {
class metrics_registry;
}

namespace mmtag::ap {

struct supervisor_config {
    /// Consecutive failures that declare an outage (>= 2: the first alerts).
    std::size_t outage_streak = 3;
    /// Retry cap and the capped-exponential backoff between outage probes.
    mac::arq_config arq{.max_retries = 12,
                        .initial_backoff_s = 80e-6,
                        .backoff_factor = 2.0,
                        .max_backoff_s = 0.5e-3};
    /// Failed outage probes between acquisition re-runs (session watchdog).
    std::size_t watchdog_probes = 5;
    /// Airtime cost of one acquisition re-run (re-lock + canceller retrain).
    double reacquisition_time_s = 0.6e-3;
    /// Rate-adapter threshold margin [dB].
    double margin_db = 2.0;
    /// Optional registry for the supervisor/* series. Not owned; nullptr disables.
    obs::metrics_registry* metrics = nullptr;
};

struct recovery_metrics {
    std::size_t outages = 0;        ///< outages declared
    std::size_t recoveries = 0;     ///< outages that ended in a delivery
    std::size_t reacquisitions = 0; ///< watchdog acquisition re-runs
    std::size_t transmissions = 0;  ///< data-frame attempts
    std::size_t probes = 0;         ///< short robust-mode probes during outages
    double detect_total_s = 0.0;    ///< first-failure -> declaration
    double detect_max_s = 0.0;
    double recover_total_s = 0.0;   ///< declaration -> next delivery
    double recover_max_s = 0.0;

    [[nodiscard]] double mean_detect_s() const;
    [[nodiscard]] double mean_recover_s() const;

    /// Trial-ordered fold: counters and totals add, maxima take the max.
    void merge(const recovery_metrics& other);
};

class link_supervisor {
public:
    /// `nominal_rate` caps the ramp-up; off the ladder it throws invalid_argument.
    link_supervisor(const supervisor_config& cfg, std::size_t nominal_rate);

    /// What to do for the next transmission attempt.
    struct plan {
        double wait_s = 0.0;    ///< idle backoff before transmitting
        bool reacquire = false; ///< re-run acquisition first
        /// Send a short robust-rung probe instead of the data frame: blind
        /// full-frame retransmissions into an outage only burn airtime.
        bool probe = false;
        std::size_t rate = robust_rung; ///< rung for the attempt
    };
    [[nodiscard]] plan next_attempt() const;

    /// Reports the outcome of the attempt that just finished at `now_s`.
    /// `snr_db` is only consulted on delivery (rate ramp-up). `was_probe`
    /// distinguishes short link probes from data-frame attempts in the
    /// metrics; the session treats both outcomes identically.
    void record(bool delivered, double snr_db, double now_s, bool was_probe = false);

    /// The driver performed the reacquisition the plan asked for, at link
    /// time `now_s`.
    void note_reacquisition(double now_s);

    /// active = nominal, degraded = alert, quarantined = outage.
    [[nodiscard]] net::session_state state() const { return session_.state(); }
    [[nodiscard]] const net::tag_session& session() const { return session_; }
    [[nodiscard]] const recovery_metrics& metrics() const { return metrics_; }

private:
    supervisor_config cfg_;
    mac::stop_and_wait_arq arq_;
    rate_adapter adapter_;
    std::size_t nominal_rate_;
    std::size_t rate_;
    net::tag_session session_;
    recovery_metrics metrics_;
    std::size_t attempts_ = 0;         ///< attempts recorded (the session round)
    std::size_t declared_attempt_ = 0; ///< attempt that declared the outage
    std::size_t probes_since_reacquire_ = 0;
    double first_fail_s_ = 0.0;
    double declared_s_ = 0.0;
};

/// Outcome of one transmission attempt on the underlying link.
struct attempt_result {
    bool delivered = false;
    double snr_db = -100.0;
};

/// Callback bundle the supervised loop drives a link through.
struct link_driver {
    /// Called once per offered frame, before its first attempt (e.g. to
    /// draw the payload that all retransmissions of the frame share).
    std::function<void(std::size_t frame_index)> next_frame;
    /// Transmit one frame attempt at rung `rate`; returns the outcome.
    std::function<attempt_result(std::size_t rate)> transmit;
    /// Send a short link probe at rung `rate`; delivered == the link is back.
    /// Optional: when absent, probes fall back to full transmit attempts.
    std::function<attempt_result(std::size_t rate)> probe;
    /// Idle the link for `wait_s` (backoff).
    std::function<void(double wait_s)> wait;
    /// Re-run acquisition (re-lock the LO, retrain the canceller).
    std::function<void()> reacquire;
    /// Current link time [s].
    std::function<double()> now;
};

struct supervised_report {
    recovery_metrics recovery;
    std::size_t frames_offered = 0;
    std::size_t frames_delivered = 0;
    double elapsed_s = 0.0;
    double goodput_bps = 0.0;

    [[nodiscard]] double delivery_ratio() const;
    /// Fraction of a fault-free reference goodput retained.
    [[nodiscard]] double goodput_retained(double fault_free_goodput_bps) const;

    /// Trial-ordered fold: counters add, goodput recombines from the sums of
    /// delivered bits and elapsed airtime (an elapsed-weighted mean).
    void merge(const supervised_report& other);
};

/// Offers `frames` payloads of `payload_bits` each through the supervisor:
/// every frame is attempted up to cfg.arq.max_retries times following the
/// supervisor's backoff/fallback/watchdog plan, then dropped.
[[nodiscard]] supervised_report run_supervised(const supervisor_config& cfg,
                                               std::size_t nominal_rate,
                                               const link_driver& driver,
                                               std::size_t frames,
                                               double payload_bits);

/// The "supervisor off" baseline: every frame is transmitted at the fixed
/// rung `rate` (off the ladder: invalid_argument) up to `max_retries` times
/// back to back, then dropped. Only recovery.transmissions is counted.
[[nodiscard]] supervised_report run_plain_arq(std::size_t max_retries,
                                              std::size_t rate,
                                              const link_driver& driver,
                                              std::size_t frames, double payload_bits);

} // namespace mmtag::ap
