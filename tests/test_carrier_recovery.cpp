#include <gtest/gtest.h>

#include <random>

#include "mmtag/dsp/carrier_recovery.hpp"

namespace mmtag::dsp {
namespace {

cvec random_psk(std::size_t count, std::size_t m, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::size_t> dist(0, m - 1);
    cvec symbols(count);
    for (auto& s : symbols) {
        s = std::polar(1.0, two_pi * static_cast<double>(dist(rng)) / static_cast<double>(m));
    }
    return symbols;
}

TEST(carrier, data_aided_phase_estimate)
{
    const cvec pilots = random_psk(64, 4, 1);
    cvec received(pilots.size());
    const double true_phase = 0.7;
    for (std::size_t i = 0; i < pilots.size(); ++i) {
        received[i] = pilots[i] * std::polar(1.0, true_phase);
    }
    EXPECT_NEAR(estimate_phase_offset(received, pilots), true_phase, 1e-9);
}

TEST(carrier, data_aided_frequency_estimate)
{
    const cvec pilots = random_psk(128, 4, 2);
    cvec received(pilots.size());
    const double cfo = 0.003; // cycles/sample
    for (std::size_t i = 0; i < pilots.size(); ++i) {
        received[i] = pilots[i] * std::polar(1.0, two_pi * cfo * static_cast<double>(i));
    }
    EXPECT_NEAR(estimate_frequency_offset(received, pilots), cfo, 1e-6);
}

TEST(carrier, psk_loop_removes_static_rotation)
{
    const cvec symbols = random_psk(2000, 4, 3);
    cvec rotated(symbols.size());
    for (std::size_t i = 0; i < symbols.size(); ++i) {
        rotated[i] = symbols[i] * std::polar(1.0, 0.3);
    }
    psk_carrier_recovery::config cfg;
    cfg.modulation_order = 4;
    psk_carrier_recovery loop(cfg);
    const cvec out = loop.process(rotated);
    // Tail symbols must sit on the constellation (phase multiple of pi/2).
    for (std::size_t i = out.size() - 200; i < out.size(); ++i) {
        const double angle = std::arg(out[i]);
        const double nearest = std::round(angle / (pi / 2.0)) * (pi / 2.0);
        EXPECT_LT(std::abs(wrap_phase(angle - nearest)), 0.05);
    }
}

TEST(carrier, psk_loop_tracks_small_cfo)
{
    const cvec symbols = random_psk(4000, 2, 4);
    const double cfo = 0.001;
    cvec rotated(symbols.size());
    for (std::size_t i = 0; i < symbols.size(); ++i) {
        rotated[i] = symbols[i] * std::polar(1.0, two_pi * cfo * static_cast<double>(i));
    }
    psk_carrier_recovery::config cfg;
    cfg.modulation_order = 2;
    cfg.loop_bandwidth = 0.03;
    psk_carrier_recovery loop(cfg);
    const cvec out = loop.process(rotated);
    std::size_t on_constellation = 0;
    for (std::size_t i = out.size() - 500; i < out.size(); ++i) {
        const double angle = std::arg(out[i]);
        const double nearest = std::round(angle / pi) * pi;
        if (std::abs(wrap_phase(angle - nearest)) < 0.15) ++on_constellation;
    }
    EXPECT_GT(on_constellation, 450u);
}

TEST(carrier, validation)
{
    psk_carrier_recovery::config cfg;
    cfg.modulation_order = 1;
    EXPECT_THROW(psk_carrier_recovery{cfg}, std::invalid_argument);
    EXPECT_THROW((void)estimate_phase_offset(cvec{}, cvec{}), std::invalid_argument);
    const cvec one(1, cf64{1.0, 0.0});
    EXPECT_THROW((void)estimate_frequency_offset(one, one), std::invalid_argument);
    EXPECT_THROW((void)estimate_frequency_offset(cvec(4), cvec(3)), std::invalid_argument);
}

} // namespace
} // namespace mmtag::dsp
