// Full-link configuration matrix: every (modulation x FEC) pair that the
// rate ladder can select must deliver frames cleanly at short range through
// the complete chain. Parameterized so a failure names its exact cell.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>

#include "mmtag/core/link_simulator.hpp"
#include "mmtag/phy/bitio.hpp"

namespace mmtag::core {
namespace {

struct matrix_case {
    phy::modulation scheme;
    phy::fec_mode fec;
};

// gtest's default printer dumps the parameter's raw bytes, padding included,
// so the listed (and ctest-discovered) names varied from run to run. Print
// the same "N-byte object <..>" dump with the padding zeroed: the names stay
// as they were, minus the noise.
void PrintTo(const matrix_case& param, std::ostream* os)
{
    unsigned char bytes[sizeof(matrix_case)] = {};
    std::memcpy(bytes + offsetof(matrix_case, scheme), &param.scheme, sizeof param.scheme);
    std::memcpy(bytes + offsetof(matrix_case, fec), &param.fec, sizeof param.fec);
    char hex[3];
    *os << sizeof bytes << "-byte object <";
    for (std::size_t i = 0; i < sizeof bytes; ++i) {
        if (i > 0) *os << (i % 2 == 0 ? ' ' : '-');
        std::snprintf(hex, sizeof hex, "%02X", bytes[i]);
        *os << hex;
    }
    *os << '>';
}

std::string case_name(const ::testing::TestParamInfo<matrix_case>& info)
{
    std::string name = phy::modulation_name(info.param.scheme) + "_" +
                       phy::fec_mode_name(info.param.fec);
    for (auto& c : name) {
        if (c == '-' || c == '/') c = '_';
    }
    return name;
}

class link_matrix : public ::testing::TestWithParam<matrix_case> {
protected:
    static system_config scenario(const matrix_case& param)
    {
        auto cfg = default_scenario();
        cfg.sample_rate_hz = 50e6;
        cfg.symbol_rate_hz = 5e6;
        cfg.transmitter.sample_rate_hz = cfg.sample_rate_hz;
        cfg.receiver.sample_rate_hz = cfg.sample_rate_hz;
        cfg.receiver.samples_per_symbol = 10;
        cfg.receiver.lna.bandwidth_hz = cfg.sample_rate_hz;
        cfg.modulator.sample_rate_hz = cfg.sample_rate_hz;
        cfg.modulator.frame.scheme = param.scheme;
        cfg.modulator.frame.fec = param.fec;
        cfg.receiver.frame = cfg.modulator.frame;
        return cfg;
    }
};

TEST_P(link_matrix, clean_delivery_at_short_range)
{
    link_simulator sim(scenario(GetParam()));
    const auto report = sim.run_trials(4, 40);
    EXPECT_DOUBLE_EQ(report.per, 0.0);
    EXPECT_DOUBLE_EQ(report.ber, 0.0);
}

TEST_P(link_matrix, goodput_matches_spectral_efficiency)
{
    const auto cfg = scenario(GetParam());
    link_simulator sim(cfg);
    const auto report = sim.run_trials(3, 64);
    ASSERT_DOUBLE_EQ(report.per, 0.0);
    // Goodput = payload bits / airtime; airtime includes the 143-symbol
    // preamble, header, FEC expansion and guards, so it lands below the raw
    // info rate — by up to ~3.5x for dense constellations whose 64-byte
    // payload spans few symbols relative to the fixed overhead.
    const double info_rate = phy::spectral_efficiency(cfg.modulator.frame) *
                             cfg.symbol_rate_hz;
    EXPECT_LT(report.goodput_bps, info_rate);
    EXPECT_GT(report.goodput_bps, info_rate / 3.5);
}

INSTANTIATE_TEST_SUITE_P(
    all_pairs, link_matrix,
    ::testing::Values(matrix_case{phy::modulation::bpsk, phy::fec_mode::uncoded},
                      matrix_case{phy::modulation::bpsk, phy::fec_mode::conv_half},
                      matrix_case{phy::modulation::bpsk, phy::fec_mode::conv_two_thirds},
                      matrix_case{phy::modulation::bpsk, phy::fec_mode::conv_three_quarters},
                      matrix_case{phy::modulation::qpsk, phy::fec_mode::uncoded},
                      matrix_case{phy::modulation::qpsk, phy::fec_mode::conv_half},
                      matrix_case{phy::modulation::qpsk, phy::fec_mode::conv_two_thirds},
                      matrix_case{phy::modulation::qpsk, phy::fec_mode::conv_three_quarters},
                      matrix_case{phy::modulation::psk8, phy::fec_mode::uncoded},
                      matrix_case{phy::modulation::psk8, phy::fec_mode::conv_half},
                      matrix_case{phy::modulation::psk8, phy::fec_mode::conv_two_thirds},
                      matrix_case{phy::modulation::psk8, phy::fec_mode::conv_three_quarters},
                      matrix_case{phy::modulation::psk16, phy::fec_mode::uncoded},
                      matrix_case{phy::modulation::psk16, phy::fec_mode::conv_half},
                      matrix_case{phy::modulation::psk16, phy::fec_mode::conv_two_thirds},
                      matrix_case{phy::modulation::psk16,
                                  phy::fec_mode::conv_three_quarters}),
    case_name);

} // namespace
} // namespace mmtag::core
