#include <gtest/gtest.h>

#include <random>

#include "mmtag/phy/bitio.hpp"
#include "mmtag/phy/modulation.hpp"

namespace mmtag::phy {
namespace {

const modulation all_schemes[] = {modulation::bpsk, modulation::qpsk, modulation::psk8,
                                  modulation::psk16};

class scheme_properties : public ::testing::TestWithParam<modulation> {};

TEST_P(scheme_properties, constellation_unit_energy)
{
    for (const auto& point : constellation(GetParam())) {
        EXPECT_NEAR(std::abs(point), 1.0, 1e-12);
    }
}

TEST_P(scheme_properties, constellation_points_distinct)
{
    const cvec points = constellation(GetParam());
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (std::size_t j = i + 1; j < points.size(); ++j) {
            EXPECT_GT(std::abs(points[i] - points[j]), 1e-6);
        }
    }
}

TEST_P(scheme_properties, gray_mapping_adjacent_points_differ_by_one_bit)
{
    const modulation scheme = GetParam();
    const cvec points = constellation(scheme);
    const std::size_t m = points.size();
    if (m < 4) GTEST_SKIP() << "trivial for BPSK";
    // Walk the circle by phase; adjacent phases must differ in exactly 1 bit.
    std::vector<std::size_t> by_phase(m);
    for (std::size_t bits = 0; bits < m; ++bits) {
        const double angle = std::arg(points[bits]);
        const double positive = angle < -1e-9 ? angle + two_pi : angle;
        const auto position = static_cast<std::size_t>(
            std::llround(positive * static_cast<double>(m) / two_pi)) % m;
        by_phase[position] = bits;
    }
    for (std::size_t p = 0; p < m; ++p) {
        const std::size_t a = by_phase[p];
        const std::size_t b = by_phase[(p + 1) % m];
        EXPECT_EQ(__builtin_popcountll(a ^ b), 1) << "positions " << p;
    }
}

TEST_P(scheme_properties, map_demap_round_trip)
{
    const modulation scheme = GetParam();
    const std::size_t k = bits_per_symbol(scheme);
    const auto bits = random_bits(120 * k, 7);
    const cvec symbols = map_bits(bits, scheme);
    EXPECT_EQ(symbols.size(), 120u);
    const auto recovered = demap_hard(symbols, scheme);
    ASSERT_EQ(recovered.size(), bits.size());
    EXPECT_EQ(recovered, bits);
}

TEST_P(scheme_properties, soft_demap_signs_match_hard_decisions)
{
    const modulation scheme = GetParam();
    const std::size_t k = bits_per_symbol(scheme);
    const auto bits = random_bits(64 * k, 9);
    const cvec symbols = map_bits(bits, scheme);
    const auto soft = demap_soft(symbols, scheme, 0.1);
    ASSERT_EQ(soft.size(), bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits[i]) EXPECT_LT(soft[i], 0.0) << i;
        else EXPECT_GT(soft[i], 0.0) << i;
    }
}

TEST_P(scheme_properties, theoretical_ber_decreases_with_snr)
{
    const modulation scheme = GetParam();
    double previous = 1.0;
    for (double ebn0 = 0.0; ebn0 <= 16.0; ebn0 += 2.0) {
        const double ber = theoretical_ber(scheme, ebn0);
        EXPECT_LT(ber, previous);
        EXPECT_GE(ber, 0.0);
        previous = ber;
    }
}

INSTANTIATE_TEST_SUITE_P(schemes, scheme_properties, ::testing::ValuesIn(all_schemes));

TEST(modulation, bits_per_symbol_values)
{
    EXPECT_EQ(bits_per_symbol(modulation::bpsk), 1u);
    EXPECT_EQ(bits_per_symbol(modulation::qpsk), 2u);
    EXPECT_EQ(bits_per_symbol(modulation::psk8), 3u);
    EXPECT_EQ(bits_per_symbol(modulation::psk16), 4u);
}

TEST(modulation, bpsk_points_are_plus_minus_one)
{
    const cvec points = constellation(modulation::bpsk);
    EXPECT_NEAR(std::abs(points[0] - cf64{1.0, 0.0}), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(points[1] - cf64{-1.0, 0.0}), 0.0, 1e-12);
}

TEST(modulation, bpsk_subset_of_qpsk_and_psk8)
{
    // The tag realizes every scheme with one stub bank, so {+1,-1} must be
    // constellation points of every even-order scheme.
    for (auto scheme : {modulation::qpsk, modulation::psk8, modulation::psk16}) {
        const cvec points = constellation(scheme);
        bool has_plus = false;
        bool has_minus = false;
        for (const auto& p : points) {
            if (std::abs(p - cf64{1.0, 0.0}) < 1e-9) has_plus = true;
            if (std::abs(p - cf64{-1.0, 0.0}) < 1e-9) has_minus = true;
        }
        EXPECT_TRUE(has_plus && has_minus) << modulation_name(scheme);
    }
}

TEST(modulation, bpsk_theory_known_points)
{
    // Eb/N0 = 9.6 dB -> BER ~ 1e-5 for BPSK.
    EXPECT_NEAR(std::log10(theoretical_ber(modulation::bpsk, 9.6)), -5.0, 0.15);
    // Q(0) = 0.5 at very low SNR -> BER ~ 0.5 as Eb/N0 -> -inf.
    EXPECT_NEAR(theoretical_ber(modulation::bpsk, -40.0), 0.5, 0.02);
}

TEST(modulation, higher_order_needs_more_snr)
{
    const double ebn0 = 10.0;
    EXPECT_LT(theoretical_ber(modulation::bpsk, ebn0), theoretical_ber(modulation::psk8, ebn0));
    EXPECT_LT(theoretical_ber(modulation::psk8, ebn0), theoretical_ber(modulation::psk16, ebn0));
}

TEST(modulation, demap_hard_nearest_neighbor_under_noise)
{
    std::mt19937_64 rng(21);
    std::normal_distribution<double> g(0.0, 0.05);
    const auto bits = random_bits(400, 23);
    const cvec clean = map_bits(bits, modulation::qpsk);
    cvec noisy(clean.size());
    for (std::size_t i = 0; i < clean.size(); ++i) noisy[i] = clean[i] + cf64{g(rng), g(rng)};
    EXPECT_EQ(demap_hard(noisy, modulation::qpsk), bits);
}

TEST(modulation, soft_demap_validation)
{
    EXPECT_THROW((void)demap_soft(cvec{{1.0, 0.0}}, modulation::qpsk, 0.0),
                 std::invalid_argument);
}

TEST(modulation, q_function_values)
{
    EXPECT_NEAR(q_function(0.0), 0.5, 1e-12);
    EXPECT_NEAR(q_function(1.0), 0.1587, 1e-4);
    EXPECT_NEAR(q_function(3.0), 1.35e-3, 1e-5);
}

TEST(bitio, bytes_bits_round_trip)
{
    const auto bytes = random_bytes(33, 3);
    const auto bits = bytes_to_bits(bytes);
    EXPECT_EQ(bits.size(), 33u * 8);
    EXPECT_EQ(bits_to_bytes(bits), bytes);
}

TEST(bitio, msb_first_convention)
{
    const std::vector<std::uint8_t> bytes{0x80, 0x01};
    const auto bits = bytes_to_bits(bytes);
    EXPECT_EQ(bits[0], 1);
    EXPECT_EQ(bits[7], 0);
    EXPECT_EQ(bits[15], 1);
}

TEST(bitio, string_round_trip)
{
    const std::string text = "mmtag backscatter";
    EXPECT_EQ(bytes_to_string(string_to_bytes(text)), text);
}

TEST(bitio, hamming_distance_basic)
{
    const std::vector<std::uint8_t> a{0, 1, 1, 0};
    const std::vector<std::uint8_t> b{1, 1, 0, 0};
    EXPECT_EQ(hamming_distance(a, b), 2u);
    EXPECT_THROW((void)hamming_distance(a, std::vector<std::uint8_t>{0}),
                 std::invalid_argument);
}

TEST(bitio, random_deterministic_by_seed)
{
    EXPECT_EQ(random_bytes(16, 5), random_bytes(16, 5));
    EXPECT_NE(random_bytes(16, 5), random_bytes(16, 6));
}

TEST(bitio, random_bytes_and_bits_are_pinned)
{
    // The top byte (bit) of each runtime::gaussian_source(1) word, whose
    // first words are 0x5e41ab087439611e, 0xf18d6ce93d6cf1ee and
    // 0x0b95f66d327e8d78, whatever the standard library; a shorter draw is
    // a prefix of a longer one.
    const std::vector<std::uint8_t> bytes{0x5e, 0xf1, 0x0b, 0xc7, 0x38, 0xc6,
                                          0xa0, 0x3f, 0x2d, 0x3e, 0x9d, 0xed};
    EXPECT_EQ(random_bytes(12, 1), bytes);
    EXPECT_EQ(random_bytes(5, 1), std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + 5));

    const std::string pinned =
        "0101011000110110110010110011001011010000110101110111010100000001110110";
    std::string bits;
    for (const std::uint8_t bit : random_bits(pinned.size(), 1)) bits += bit != 0 ? '1' : '0';
    EXPECT_EQ(bits, pinned);
}

} // namespace
} // namespace mmtag::phy
