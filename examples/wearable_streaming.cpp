// Wearable streaming: a high-rate tag walks away from the AP.
//
// A body-worn sensor (e.g. an AR controller) streams frames while its range
// and orientation change each second. The AP tracks SNR with an exponential
// average and adapts modulation/FEC on the fly. Demonstrates sustained
// operation of the sample-level simulator plus the rate ladder — the
// "mmWave connectivity for low-power wearables" scenario that motivates
// mmWave backscatter.
//
//   $ ./wearable_streaming [steps]
#include <cstdio>
#include <cstdlib>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/phy/bitio.hpp"

int main(int argc, char** argv)
{
    using namespace mmtag;

    std::size_t steps = 12;
    if (argc > 1) steps = static_cast<std::size_t>(std::atoi(argv[1]));
    if (steps == 0 || steps > 1000) {
        std::fprintf(stderr, "usage: %s [steps in 1..1000]\n", argv[0]);
        return 1;
    }

    ap::rate_adapter adapter(2.0);
    double total_bits = 0.0;
    double total_airtime = 0.0;
    double total_energy = 0.0;

    std::printf("%-5s %-8s %-9s %-9s %-16s %-9s %s\n", "step", "range_m", "angle_deg",
                "snr_dB", "rate", "Mbps", "status");

    for (std::size_t step = 0; step < steps; ++step) {
        // A walking path: out to 7 m and back, with body rotation.
        const double phase = static_cast<double>(step) / static_cast<double>(steps);
        const double range = 1.5 + 5.5 * std::sin(pi * phase);
        const double angle_deg = 30.0 * std::sin(2.0 * two_pi * phase);

        auto cfg = core::default_scenario();
        cfg.distance_m = std::max(range, 0.5);
        cfg.tag_incidence_rad = deg_to_rad(angle_deg);
        cfg.seed = 100 + step;

        // Probe with the current rate, then adapt for the data burst.
        core::link_simulator probe_sim(cfg);
        const auto probe = probe_sim.run_frame(phy::random_bytes(16, step));
        const double snr = probe.rx.frame_found ? probe.rx.snr_db : -10.0;
        const auto& option = ap::rate_table()[adapter.select_smoothed(snr)];

        cfg.modulator.frame.scheme = option.scheme;
        cfg.modulator.frame.fec = option.fec;
        cfg.receiver.frame = cfg.modulator.frame;
        core::link_simulator sim(cfg);
        const auto report = sim.run_trials(4, 96);

        total_bits += (1.0 - report.per) * 4.0 * 96.0 * 8.0;
        total_airtime += 4.0 * 96.0 * 8.0 / (option.efficiency() * cfg.symbol_rate_hz);
        total_energy += report.tag_energy_per_bit_j * 4.0 * 96.0 * 8.0;

        const std::string rate = phy::modulation_name(option.scheme) + std::string("/") +
                                 phy::fec_mode_name(option.fec);
        std::printf("%-5zu %-8.2f %-9.1f %-9.1f %-16s %-9.2f %s\n", step, range, angle_deg,
                    adapter.smoothed_snr_db(), rate.c_str(), report.goodput_bps / 1e6,
                    report.per == 0.0 ? "clean" : "losses");
    }

    std::printf("\nsession: %.1f kb delivered, mean tag energy %.2f nJ/bit\n",
                total_bits / 1e3, total_energy / std::max(total_bits, 1.0) * 1e9);
    return 0;
}
