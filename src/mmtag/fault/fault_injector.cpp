#include "mmtag/fault/fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/obs/trace.hpp"

namespace mmtag::fault {

namespace {

double db_to_amplitude(double db) { return std::pow(10.0, db / 20.0); }

} // namespace

bool impairment::any() const
{
    return tag_amplitude < 1.0 || carrier_amplitude < 1.0 || lo_offset_hz != 0.0 ||
           interferer_active() || !tag_powered;
}

void impairment::apply_to_carrier(std::span<cf64> rf) const
{
    if (carrier_amplitude == 1.0) return;
    for (auto& s : rf) s *= carrier_amplitude;
}

void impairment::apply_to_capture(std::span<cf64> capture, double reference_amplitude,
                                  double symbol_rate_hz, double sample_rate_hz) const
{
    if (interferer_active()) {
        const double amplitude =
            reference_amplitude * std::pow(10.0, interferer_rel_db / 20.0);
        const double step = two_pi * 0.35 * symbol_rate_hz / sample_rate_hz;
        for (std::size_t i = 0; i < capture.size(); ++i) {
            const double phase = step * static_cast<double>(i);
            capture[i] += amplitude * cf64{std::cos(phase), std::sin(phase)};
        }
    }
    if (lo_offset_hz != 0.0) {
        const double step = two_pi * lo_offset_hz / sample_rate_hz;
        for (std::size_t i = 0; i < capture.size(); ++i) {
            const double phase = step * static_cast<double>(i);
            capture[i] *= cf64{std::cos(phase), std::sin(phase)};
        }
    }
}

fault_injector::fault_injector(fault_schedule schedule)
    : schedule_(std::move(schedule))
{
}

impairment fault_injector::at(double start_s, double duration_s)
{
    static const std::string counter_names[] = {
        std::string("fault/") + fault_kind_name(fault_kind::blockage),
        std::string("fault/") + fault_kind_name(fault_kind::carrier_dropout),
        std::string("fault/") + fault_kind_name(fault_kind::lo_step),
        std::string("fault/") + fault_kind_name(fault_kind::interferer),
        std::string("fault/") + fault_kind_name(fault_kind::brownout),
    };
    const auto& events = schedule_.events();
    const double end_s = start_s + duration_s;
    if (start_s < live_from_s_) live_ = 0; // back in time: rescan from the top
    while (live_ < events.size() && events[live_].end_s() <= start_s) ++live_;
    live_from_s_ = start_s;

    impairment out;
    double blockage_db = 0.0;
    double dropout_db = 0.0;
    for (std::size_t i = live_; i < events.size() && events[i].start_s < end_s; ++i) {
        const fault_event& event = events[i];
        if (!event.overlaps(start_s, end_s)) continue;
        switch (event.kind) {
        case fault_kind::blockage:
            blockage_db = std::max(blockage_db, event.magnitude);
            break;
        case fault_kind::carrier_dropout:
            dropout_db = std::max(dropout_db, event.magnitude);
            break;
        case fault_kind::interferer:
            out.interferer_rel_db = std::max(out.interferer_rel_db, event.magnitude);
            break;
        case fault_kind::brownout:
            out.tag_powered = false;
            break;
        case fault_kind::lo_step:
            break; // persistent: handled below by the LO cursor
        }
        if (metrics_ != nullptr) {
            metrics_->get_counter(counter_names[static_cast<std::size_t>(event.kind)]).add();
        }
    }
    if (blockage_db > 0.0) out.tag_amplitude = db_to_amplitude(-blockage_db);
    if (dropout_db > 0.0) out.carrier_amplitude = db_to_amplitude(-dropout_db);
    out.lo_offset_hz = lo_offset_hz(end_s);

    if (metrics_ != nullptr && out.any()) {
        metrics_->get_counter("fault/impaired_windows").add();
    }
    return out;
}

double fault_injector::lo_offset_hz(double time_s)
{
    // Latest step that has fired and has not been cleared by a re-lock. The
    // synthesizer holds the detuned frequency, so duration is irrelevant.
    // Events sort by start, so the latest fired step is the last lo_step of
    // the prefix starting at or before `time_s`, and it is uncleared exactly
    // when any step of that prefix is.
    const auto& events = schedule_.events();
    while (started_ > 0 && events[started_ - 1].start_s > time_s) --started_;
    if (latest_lo_ > started_) { // rewound past the latest step: find the one before
        latest_lo_ = 0;
        for (std::size_t i = started_; i > 0; --i) {
            if (events[i - 1].kind == fault_kind::lo_step) {
                latest_lo_ = i;
                break;
            }
        }
    }
    for (; started_ < events.size() && events[started_].start_s <= time_s; ++started_) {
        if (events[started_].kind == fault_kind::lo_step) latest_lo_ = started_ + 1;
    }
    if (latest_lo_ == 0) return 0.0;
    const fault_event& step = events[latest_lo_ - 1];
    return step.start_s > lo_cleared_until_s_ ? step.magnitude : 0.0;
}

void fault_injector::clear_lo_steps(double time_s)
{
    lo_cleared_until_s_ = std::max(lo_cleared_until_s_, time_s);
    if (metrics_ != nullptr) metrics_->get_counter("fault/lo_relocks").add();
    if (obs::tracer::active()) {
        char args[48];
        std::snprintf(args, sizeof args, "{\"time_s\": %.6f}", time_s);
        obs::trace_instant("fault.lo_relock", "fault", args);
    }
}

} // namespace mmtag::fault
