#include "mmtag/ap/link_supervisor.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/obs/trace.hpp"

namespace mmtag::ap {

namespace {

// State-transition trace marker with the link-time context an outage
// post-mortem needs.
void trace_transition(const char* name, double now_s)
{
    if (!obs::tracer::active()) return;
    char args[48];
    std::snprintf(args, sizeof args, "{\"link_s\": %.6f}", now_s);
    obs::trace_instant(name, "supervisor", args);
}

// Bumps a supervisor/* counter and sets the edge's timing gauge, if any.
void count(obs::metrics_registry* metrics, const char* counter,
           const char* gauge = nullptr, double value = 0.0)
{
    if (metrics == nullptr) return;
    metrics->get_counter(counter).add();
    if (gauge != nullptr) metrics->get_gauge(gauge).set(value);
}

/// Offers `frames` frames through `driver`, each attempted up to
/// `max_retries` times by `attempt` (true = the data frame was delivered),
/// and reports frame counts, elapsed link time and goodput.
template <class Attempt>
supervised_report offer_frames(const link_driver& driver, std::size_t frames,
                               std::size_t max_retries, double payload_bits,
                               Attempt&& attempt)
{
    if (!driver.transmit || !driver.now) {
        throw std::invalid_argument("link_driver: transmit and now are required");
    }
    supervised_report report;
    const double start_s = driver.now();
    for (std::size_t f = 0; f < frames; ++f) {
        ++report.frames_offered;
        if (driver.next_frame) driver.next_frame(f);
        for (std::size_t a = 0; a < max_retries; ++a) {
            if (!attempt()) continue;
            ++report.frames_delivered;
            break;
        }
    }
    report.elapsed_s = driver.now() - start_s;
    report.goodput_bps =
        report.elapsed_s > 0.0
            ? static_cast<double>(report.frames_delivered) * payload_bits / report.elapsed_s
            : 0.0;
    return report;
}

} // namespace

double recovery_metrics::mean_detect_s() const
{
    if (outages == 0) return 0.0;
    return detect_total_s / static_cast<double>(outages);
}

double recovery_metrics::mean_recover_s() const
{
    if (recoveries == 0) return 0.0;
    return recover_total_s / static_cast<double>(recoveries);
}

void recovery_metrics::merge(const recovery_metrics& other)
{
    outages += other.outages;
    recoveries += other.recoveries;
    reacquisitions += other.reacquisitions;
    transmissions += other.transmissions;
    probes += other.probes;
    detect_total_s += other.detect_total_s;
    detect_max_s = std::max(detect_max_s, other.detect_max_s);
    recover_total_s += other.recover_total_s;
    recover_max_s = std::max(recover_max_s, other.recover_max_s);
}

// Link parameters for the session: the first failure raises the alert, and
// the session's round backoff is pinned to one attempt because the wait
// between probes is the time-based ARQ ladder below. tag_session rejects
// outage_streak < 2 (a session degrades before it quarantines).
link_supervisor::link_supervisor(const supervisor_config& cfg, std::size_t nominal_rate)
    : cfg_(cfg),
      arq_(cfg.arq),
      adapter_(cfg.margin_db),
      nominal_rate_(nominal_rate),
      rate_(nominal_rate),
      session_(0, {.degraded_streak = 1,
                   .quarantine_streak = cfg.outage_streak,
                   .readmit_streak = 1,
                   .probe_backoff_initial_rounds = 1,
                   .probe_backoff_factor = 1.0,
                   .probe_backoff_cap_rounds = 1})
{
    if (nominal_rate >= rate_table().size()) {
        throw std::invalid_argument("link_supervisor: nominal rate is not a rung of the ladder");
    }
    if (cfg.watchdog_probes == 0) {
        throw std::invalid_argument("link_supervisor: watchdog_probes must be >= 1");
    }
    if (cfg.reacquisition_time_s < 0.0) {
        throw std::invalid_argument("link_supervisor: reacquisition time must be >= 0");
    }
}

link_supervisor::plan link_supervisor::next_attempt() const
{
    plan p;
    p.rate = rate_;
    if (session_.state() == net::session_state::quarantined) {
        p.rate = robust_rung;
        // Probe instead of retransmitting: a full data frame sent into an
        // outage is airtime lost, so test the link with a short frame first.
        p.probe = true;
        // Backoff counts from the outage declaration: pre-outage retries go
        // out immediately (plain ARQ), so a short fade costs nothing extra.
        p.wait_s = arq_.backoff_delay_s(
            std::min<std::size_t>(attempts_ - declared_attempt_, 32));
        p.reacquire = probes_since_reacquire_ >= cfg_.watchdog_probes;
    }
    return p;
}

void link_supervisor::record(bool delivered, double snr_db, double now_s, bool was_probe)
{
    ++(was_probe ? metrics_.probes : metrics_.transmissions);
    count(cfg_.metrics, was_probe ? "supervisor/probes" : "supervisor/transmissions");
    const std::size_t round = attempts_++;
    const net::session_state before = session_.state();
    if (before == net::session_state::quarantined) {
        session_.begin_probe(round);
        session_.record_probe(delivered, round);
        if (!delivered) {
            ++probes_since_reacquire_;
            return;
        }
        // PROBING -> ACTIVE: the outage is over.
        ++metrics_.recoveries;
        const double recover = std::max(0.0, now_s - declared_s_);
        metrics_.recover_total_s += recover;
        metrics_.recover_max_s = std::max(metrics_.recover_max_s, recover);
        count(cfg_.metrics, "supervisor/recoveries", "supervisor/recover_s", recover);
        trace_transition("supervisor.recovered", now_s);
    } else {
        if (!delivered && before == net::session_state::active) first_fail_s_ = now_s;
        session_.record_data(delivered, round);
        if (session_.state() == net::session_state::quarantined) {
            // DEGRADED -> QUARANTINED: the outage is declared.
            ++metrics_.outages;
            declared_s_ = now_s;
            declared_attempt_ = round;
            const double detect = std::max(0.0, now_s - first_fail_s_);
            metrics_.detect_total_s += detect;
            metrics_.detect_max_s = std::max(metrics_.detect_max_s, detect);
            probes_since_reacquire_ = 0;
            count(cfg_.metrics, "supervisor/outages", "supervisor/detect_s", detect);
            trace_transition("supervisor.outage", now_s);
        } else if (before == net::session_state::active &&
                   session_.state() == net::session_state::degraded) {
            // ACTIVE -> DEGRADED: the alert is raised.
            count(cfg_.metrics, "supervisor/alerts");
            trace_transition("supervisor.alert", now_s);
        }
        if (!delivered) return;
    }

    probes_since_reacquire_ = 0;
    // Ramp back up, but never above the configured nominal rung.
    rate_ = std::min(adapter_.select_smoothed(snr_db), nominal_rate_);
}

void link_supervisor::note_reacquisition(double now_s)
{
    ++metrics_.reacquisitions;
    probes_since_reacquire_ = 0;
    count(cfg_.metrics, "supervisor/reacquisitions");
    trace_transition("supervisor.reacquire", now_s);
}

double supervised_report::delivery_ratio() const
{
    if (frames_offered == 0) return 0.0;
    return static_cast<double>(frames_delivered) / static_cast<double>(frames_offered);
}

double supervised_report::goodput_retained(double fault_free_goodput_bps) const
{
    if (fault_free_goodput_bps <= 0.0) return 0.0;
    return goodput_bps / fault_free_goodput_bps;
}

void supervised_report::merge(const supervised_report& other)
{
    recovery.merge(other.recovery);
    const double delivered_bits =
        goodput_bps * elapsed_s + other.goodput_bps * other.elapsed_s;
    frames_offered += other.frames_offered;
    frames_delivered += other.frames_delivered;
    elapsed_s += other.elapsed_s;
    goodput_bps = elapsed_s > 0.0 ? delivered_bits / elapsed_s : 0.0;
}

supervised_report run_supervised(const supervisor_config& cfg,
                                 std::size_t nominal_rate,
                                 const link_driver& driver, std::size_t frames,
                                 double payload_bits)
{
    link_supervisor supervisor(cfg, nominal_rate);
    auto report = offer_frames(driver, frames, cfg.arq.max_retries, payload_bits, [&] {
        const auto plan = supervisor.next_attempt();
        if (plan.reacquire && driver.reacquire) {
            driver.reacquire();
            supervisor.note_reacquisition(driver.now());
        }
        if (plan.wait_s > 0.0 && driver.wait) driver.wait(plan.wait_s);
        const bool probing = plan.probe && static_cast<bool>(driver.probe);
        const attempt_result result =
            probing ? driver.probe(plan.rate) : driver.transmit(plan.rate);
        supervisor.record(result.delivered, result.snr_db, driver.now(), probing);
        // A successful probe proves the link is back but carries no payload;
        // the data frame goes out on the next attempt at the adapted rate.
        return !probing && result.delivered;
    });
    report.recovery = supervisor.metrics();
    return report;
}

supervised_report run_plain_arq(std::size_t max_retries, std::size_t rate,
                                const link_driver& driver, std::size_t frames,
                                double payload_bits)
{
    if (max_retries == 0) {
        throw std::invalid_argument("run_plain_arq: max_retries must be >= 1");
    }
    if (rate >= rate_table().size()) {
        throw std::invalid_argument("run_plain_arq: rate is not a rung of the ladder");
    }
    std::size_t transmissions = 0;
    auto report = offer_frames(driver, frames, max_retries, payload_bits, [&] {
        ++transmissions;
        return driver.transmit(rate).delivered;
    });
    report.recovery.transmissions = transmissions;
    return report;
}

} // namespace mmtag::ap
