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

impairment fault_injector::at(double start_s, double duration_s) const
{
    impairment out;
    double blockage_db = 0.0;
    double dropout_db = 0.0;
    for (const auto& event : schedule_.active(start_s, start_s + duration_s)) {
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
            break; // persistent: handled below from the full history
        }
        if (metrics_ != nullptr) {
            metrics_
                ->get_counter(std::string("fault/") + fault_kind_name(event.kind))
                .add();
        }
    }
    if (blockage_db > 0.0) out.tag_amplitude = db_to_amplitude(-blockage_db);
    if (dropout_db > 0.0) out.carrier_amplitude = db_to_amplitude(-dropout_db);
    out.lo_offset_hz = lo_offset_hz(start_s + duration_s);

    if (out.any()) {
        if (metrics_ != nullptr) metrics_->get_counter("fault/impaired_windows").add();
        if (obs::tracer::active()) {
            char args[96];
            std::snprintf(args, sizeof args,
                          "{\"start_s\": %.6f, \"duration_s\": %.6f}", start_s,
                          duration_s);
            obs::trace_instant("fault.window", "fault", args);
        }
    }
    return out;
}

double fault_injector::lo_offset_hz(double time_s) const
{
    // Latest step that has fired and has not been cleared by a re-lock. The
    // synthesizer holds the detuned frequency, so duration is irrelevant.
    double offset = 0.0;
    for (const auto& event : schedule_.events()) {
        if (event.kind != fault_kind::lo_step) continue;
        if (event.start_s > time_s) break;
        if (event.start_s <= lo_cleared_until_s_) continue;
        offset = event.magnitude;
    }
    return offset;
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
