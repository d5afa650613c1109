// Applies a fault_schedule to a running simulation. The simulators consult
// the injector once per frame/burst window and receive the aggregate
// impairment to apply; duration-bounded events (blockage, dropout,
// interferer, brownout) expire on their own, while an LO step detunes the
// receive chain *persistently* until the supervisor re-runs acquisition
// (clear_lo_steps) — the failure mode that turns into a goodput cliff when
// nobody is supervising the link.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "mmtag/common.hpp"
#include "mmtag/fault/fault_schedule.hpp"

namespace mmtag::obs {
class metrics_registry;
}

namespace mmtag::fault {

/// Aggregate impairment over one frame/burst window. Amplitude factors are
/// field (voltage) scalings; the deepest overlapping event of each kind wins.
struct impairment {
    double tag_amplitude = 1.0;     ///< one-way tag-path factor (blockage)
    double carrier_amplitude = 1.0; ///< AP carrier factor (dropout)
    double lo_offset_hz = 0.0;      ///< uncompensated RX/TX LO mismatch
    /// Interferer power relative to the tag's backscatter return [dB];
    /// <= -300 means no interferer burst overlaps the window.
    double interferer_rel_db = -300.0;
    bool tag_powered = true;        ///< false during a brownout

    [[nodiscard]] bool interferer_active() const { return interferer_rel_db > -300.0; }
    [[nodiscard]] bool any() const;

    /// Factor on the tag's reflection coefficient: blockage shadows the tag
    /// path twice (AP->tag and tag->AP); a brownout stops the modulation,
    /// leaving the absorptive idle state.
    [[nodiscard]] double tag_power_scale() const
    {
        return tag_powered ? tag_amplitude * tag_amplitude : 0.0;
    }

    /// Carrier dropout: scales the AP's transmitted carrier (the PA output
    /// collapses; the receive LO keeps running).
    void apply_to_carrier(std::span<cf64> rf) const;

    /// The impairments of the received capture. Adds the in-band CW
    /// interferer, `interferer_rel_db` above `reference_amplitude` (a tag's
    /// round-trip return at unit |Gamma|) and offset from the carrier by
    /// 0.35 x the symbol rate so it lands inside the receive bandwidth. Then
    /// spins the capture at the LO offset: the synthesizer stepped but the
    /// transmit-side LO record the receiver mixes against did not, which
    /// self-coherent downconversion cannot remove.
    void apply_to_capture(std::span<cf64> capture, double reference_amplitude,
                          double symbol_rate_hz, double sample_rate_hz) const;
};

class fault_injector {
public:
    explicit fault_injector(fault_schedule schedule);

    [[nodiscard]] const fault_schedule& schedule() const { return schedule_; }

    /// Attaches an observability registry: each at() query bumps a per-kind
    /// "fault/..." counter for every event it overlaps, and
    /// "fault/impaired_windows" once when it sees any impairment. Windows
    /// are counted, never traced, so a traced run stays cheap. Not owned;
    /// nullptr detaches.
    void attach_metrics(obs::metrics_registry* metrics) { metrics_ = metrics; }

    /// Impairment seen by a frame occupying [start_s, start_s + duration_s).
    /// Advances the lookup cursors, hence non-const: amortised O(1) and
    /// allocation-free while query times do not decrease; a query that goes
    /// back in time rewinds and returns what a full scan would.
    [[nodiscard]] impairment at(double start_s, double duration_s);

    /// Re-lock after acquisition: forgets every LO step that started at or
    /// before `time_s`. Called by the link supervisor's session watchdog.
    void clear_lo_steps(double time_s);

    /// Uncompensated LO offset at `time_s` (latest uncleared step wins).
    /// Moves the LO cursor like at().
    [[nodiscard]] double lo_offset_hz(double time_s);

private:
    fault_schedule schedule_;
    obs::metrics_registry* metrics_ = nullptr; ///< observer only, never read
    double lo_cleared_until_s_ = 0.0;
    // Cursors over schedule_.events(), which sort by start time.
    /// Every event before `live_` had ended by `live_from_s_`, so none of
    /// them overlaps a window starting at or after it.
    std::size_t live_ = 0;
    double live_from_s_ = -std::numeric_limits<double>::infinity();
    /// Events [0, started_) start at or before the last LO query time;
    /// `latest_lo_` is 1 + the index of the last lo_step among them (0: none).
    std::size_t started_ = 0;
    std::size_t latest_lo_ = 0;
};

} // namespace mmtag::fault
