#include "mmtag/core/link_simulator.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "mmtag/dsp/estimators.hpp"
#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/obs/trace.hpp"
#include "mmtag/phy/bitio.hpp"

namespace mmtag::core {

link_simulator::link_simulator(const system_config& cfg)
    : cfg_([&] {
          validate(cfg);
          return cfg;
      }()),
      channel_(make_channel_config(cfg_)),
      modulator_(cfg_.modulator),
      energy_(cfg_.energy),
      transmitter_(cfg_.transmitter, cfg_.seed * 7919 + 1),
      receiver_(cfg_.receiver, cfg_.seed * 104729 + 2)
{
}

link_simulator::frame_result link_simulator::run_frame(std::span<const std::uint8_t> payload)
{
    const obs::trace_span span("link.frame", "link");
    ++trial_;
    frame_result result;
    if (cfg_.rician_k_db < 80.0) {
        channel_.redraw_fading(cfg_.seed * 6364136223846793005ULL + trial_);
    }

    const tag::modulated_frame frame = modulator_.modulate(payload);
    // Trailing quiet margin sized to cover the canceller's drift-tracking
    // tail window plus symbol-level slack.
    const std::size_t margin =
        4 * modulator_.samples_per_symbol() +
        static_cast<std::size_t>(std::ceil(
            2.5 * cfg_.receiver.canceller.tail_fraction *
            static_cast<double>(frame.gamma.size())));
    const std::size_t base =
        frame.gamma.size() + 2 * channel_.one_way_delay_samples() + margin;

    // Quiet lead-in: the AP keys its carrier before the tag's turnaround
    // expires, giving the canceller a tag-free window to estimate the static
    // environment from. Sized to safely cover the training fraction.
    const double training = cfg_.receiver.canceller.training_fraction +
                            cfg_.receiver.canceller.training_skip;
    const auto lead = static_cast<std::size_t>(
        std::ceil(2.0 * training * static_cast<double>(base))) +
        modulator_.samples_per_symbol();
    cvec gamma(lead, frame.gamma.front());
    gamma.insert(gamma.end(), frame.gamma.begin(), frame.gamma.end());
    const std::size_t capture = base + lead;

    const double window_s = static_cast<double>(capture) / cfg_.sample_rate_hz;
    result.start_s = clock_s_;
    result.elapsed_s = window_s;

    fault::impairment imp;
    if (faults_ != nullptr) imp = faults_->at(clock_s_, window_s);
    result.fault_active = imp.any();

    const double tag_scale = imp.tag_power_scale();
    if (tag_scale != 1.0) {
        for (auto& g : gamma) g *= tag_scale;
    }

    auto query = transmitter_.generate(capture);
    imp.apply_to_carrier(query.rf);
    cvec antenna = channel_.ap_received(query.rf, gamma);
    imp.apply_to_capture(antenna,
                         channel_.round_trip_amplitude() * std::sqrt(transmitter_.tx_power_w()),
                         cfg_.symbol_rate_hz, cfg_.sample_rate_hz);
    result.rx = receiver_.receive(antenna, query.lo);
    clock_s_ += window_s;

    result.bits = payload.size() * 8;
    result.tag_energy_j = imp.tag_powered ? energy_.frame_energy_j(frame) : 0.0;
    result.airtime_s = frame.duration_s;
    result.delivered = result.rx.frame_found && result.rx.crc_ok;

    if (result.rx.frame_found && !result.rx.payload.empty()) {
        const std::size_t compare = std::min(payload.size(), result.rx.payload.size());
        for (std::size_t i = 0; i < compare; ++i) {
            std::uint8_t diff = static_cast<std::uint8_t>(payload[i] ^ result.rx.payload[i]);
            while (diff != 0) {
                result.bit_errors += diff & 1u;
                diff >>= 1;
            }
        }
        result.bit_errors += (payload.size() - compare) * 4;
    } else {
        result.bit_errors = payload.size() * 4; // lost frame: coin-flip bits
    }

    if (metrics_ != nullptr) {
        metrics_->get_counter("link/frames").add();
        if (result.delivered) metrics_->get_counter("link/frames_delivered").add();
        if (!result.rx.frame_found) metrics_->get_counter("link/frames_lost").add();
        if (result.fault_active) metrics_->get_counter("link/fault_windows").add();
        metrics_->get_counter("link/bits").add(result.bits);
        metrics_->get_counter("link/bit_errors").add(result.bit_errors);
        metrics_->get_histogram("link/suppression_db", obs::suppression_bounds_db())
            .observe(result.rx.suppression_db);
        if (result.rx.frame_found) {
            metrics_->get_histogram("link/snr_db", obs::snr_bounds_db())
                .observe(result.rx.snr_db);
        }
    }
    if (obs::tracer::active()) {
        // Canceller convergence milestone: the residual/input power the
        // self-interference canceller settled at for this capture window.
        char args[96];
        std::snprintf(args, sizeof args,
                      "{\"suppression_db\": %.2f, \"found\": %s}",
                      result.rx.suppression_db,
                      result.rx.frame_found ? "true" : "false");
        obs::trace_instant("canceller.converged", "link", args);
    }
    return result;
}

link_report link_simulator::run_trials(std::size_t frames, std::size_t payload_bytes)
{
    error_counter errors;
    link_report report;

    for (std::size_t f = 0; f < frames; ++f) {
        const auto payload =
            phy::random_bytes(payload_bytes, cfg_.seed * 1'000'003 + trial_ + f);
        const frame_result result = run_frame(payload);
        if (result.rx.frame_found) {
            errors.add_frame(payload, result.rx.payload, result.delivered);
            report.snr_samples += 1;
            report.snr_sum_db += result.rx.snr_db;
            report.evm_samples += 1;
            report.evm_sum_db += result.rx.evm_db;
        } else {
            errors.add_lost_frame(payload.size());
        }
        report.tag_energy_j += result.tag_energy_j;
        report.airtime_s += result.airtime_s;
        if (result.delivered) report.delivered_bits += result.bits;
    }

    report.frames = frames;
    report.frames_delivered = errors.frames_delivered();
    report.bits = errors.bits();
    report.bit_errors = errors.bit_errors();
    report.recompute();
    return report;
}

void link_simulator::advance_clock(double dt_s)
{
    if (dt_s < 0.0) throw std::invalid_argument("link_simulator: negative clock step");
    clock_s_ += dt_s;
}

void link_simulator::set_rate(phy::modulation scheme, phy::fec_mode fec)
{
    if (cfg_.modulator.frame.scheme == scheme && cfg_.modulator.frame.fec == fec) {
        return;
    }
    cfg_.modulator.frame.scheme = scheme;
    cfg_.modulator.frame.fec = fec;
    cfg_.receiver.frame = cfg_.modulator.frame;
    // Only the modulator is rebuilt. The receiver reads scheme and FEC from
    // each frame's header, and rebuilding it would restart its noise streams
    // from the construction seed, replaying the first frame's noise.
    modulator_ = tag::backscatter_modulator(cfg_.modulator);
}

} // namespace mmtag::core
