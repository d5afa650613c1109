// The one link-health state machine, with two parameter sets: per tag across
// TDMA rounds under the network supervisor (airtime moves away from dead
// tags, which are probed back in), and per attempt on one link's CRC stream
// under ap::link_supervisor (see its link parameters there).
//
//   ACTIVE ----fail streak >= degraded_streak----> DEGRADED
//   DEGRADED --delivery-------------------------> ACTIVE
//   DEGRADED --fail streak >= quarantine_streak--> QUARANTINED
//   QUARANTINED --probe due (capped backoff)-----> PROBING
//   PROBING --probe failed-----------------------> QUARANTINED
//   PROBING --readmit_streak probe successes-----> ACTIVE (re-admitted)
//
// Every other transition is illegal; the machine throws std::logic_error
// rather than entering an undefined state, and logs each transition so the
// soak harness's legality checker can audit a whole run after the fact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mmtag::net {

enum class session_state : std::uint8_t {
    active = 0,      ///< scheduled every round at the adapted MCS
    degraded = 1,    ///< scheduled at the robust MCS, one delivery heals
    quarantined = 2, ///< unscheduled; waiting out the probe backoff
    probing = 3,     ///< spending one probe slot this round
};

[[nodiscard]] const char* session_state_name(session_state state);

struct session_config {
    /// Consecutive data failures that demote ACTIVE to DEGRADED.
    std::size_t degraded_streak = 2;
    /// Consecutive data failures that quarantine a DEGRADED session. Must
    /// exceed degraded_streak (a session always degrades before it is
    /// quarantined).
    std::size_t quarantine_streak = 5;
    /// Consecutive successful probes required for re-admission.
    std::size_t readmit_streak = 2;
    /// Rounds between quarantine entry and the first probe.
    std::size_t probe_backoff_initial_rounds = 1;
    /// Backoff growth per failed probe, capped at probe_backoff_cap_rounds
    /// (ladder 1, 2, 4, ... with the defaults).
    double probe_backoff_factor = 2.0;
    std::size_t probe_backoff_cap_rounds = 4;

    /// Documented re-admission bound: once the tag is physically healthy,
    /// the next probe is at most the backoff cap away and re-admission takes
    /// readmit_streak consecutive probe rounds after it.
    [[nodiscard]] std::size_t max_readmit_rounds() const
    {
        return probe_backoff_cap_rounds + readmit_streak;
    }
};

/// One logged state change ('round' is the supervisor round it happened in).
struct session_transition {
    session_state from = session_state::active;
    session_state to = session_state::active;
    std::size_t round = 0;
};

/// True for the six legal edges of the machine (self-transitions are not
/// transitions and return false).
[[nodiscard]] bool legal_transition(session_state from, session_state to);

class tag_session {
public:
    explicit tag_session(std::uint32_t tag_id, const session_config& cfg = {});

    [[nodiscard]] std::uint32_t tag_id() const { return tag_id_; }
    [[nodiscard]] const session_config& parameters() const { return cfg_; }
    [[nodiscard]] session_state state() const { return state_; }
    [[nodiscard]] bool schedulable() const
    {
        return state_ == session_state::active || state_ == session_state::degraded;
    }
    [[nodiscard]] std::size_t fail_streak() const { return fail_streak_; }

    /// QUARANTINED with the backoff expired by `round`, or already PROBING
    /// mid-streak (successive probes run back-to-back; backoff only spaces
    /// out probes after a failure).
    [[nodiscard]] bool probe_due(std::size_t round) const;
    /// QUARANTINED -> PROBING (no-op when already PROBING mid-streak);
    /// throws unless probe_due(round).
    void begin_probe(std::size_t round);
    /// Outcome of this round's probe; PROBING -> ACTIVE after readmit_streak
    /// consecutive successes, -> QUARANTINED (with grown backoff) on failure.
    void record_probe(bool delivered, std::size_t round);
    /// Outcome of one data frame; legal only while schedulable().
    void record_data(bool delivered, std::size_t round);

    /// Every state change since construction, in chronological order.
    [[nodiscard]] const std::vector<session_transition>& transitions() const
    {
        return transitions_;
    }
    /// Rounds from each quarantine entry to the matching re-admission.
    [[nodiscard]] const std::vector<std::size_t>& readmit_latencies_rounds() const
    {
        return readmit_latencies_;
    }

private:
    void transition_to(session_state to, std::size_t round);

    std::uint32_t tag_id_;
    session_config cfg_;
    session_state state_ = session_state::active;
    std::size_t fail_streak_ = 0;
    std::size_t probe_success_streak_ = 0;
    std::size_t backoff_rounds_ = 0;
    std::size_t next_probe_round_ = 0;
    std::size_t quarantined_since_ = 0;
    std::vector<session_transition> transitions_;
    std::vector<std::size_t> readmit_latencies_;
};

} // namespace mmtag::net
