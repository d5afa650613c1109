// Convolutional codec checks against a plain reference: the table-driven
// Viterbi must return exactly what a textbook add-compare-select decoder
// returns (ties included), and the closed-form puncturing lengths must
// round-trip for every information length.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "mmtag/fec/convolutional.hpp"
#include "mmtag/phy/bitio.hpp"
#include "mmtag/runtime/gaussian_source.hpp"

namespace mmtag::fec {
namespace {

// ---------------------------------------------------------------------------
// Reference decoder: the K=7 (133, 171) code written out directly, one branch
// at a time, with a per-step survivor table and a linear scan for the flat
// length. On equal metrics the first-visited (lower-numbered, i.e. even)
// predecessor wins.

constexpr unsigned ref_state_bits = 6;
constexpr unsigned ref_states = 1u << ref_state_bits;

std::array<int, 2> ref_output(unsigned input, unsigned state)
{
    const unsigned window = (input << ref_state_bits) | state;
    return {std::popcount(window & 0133u) & 1, std::popcount(window & 0171u) & 1};
}

bool ref_kept(code_rate rate, std::size_t i)
{
    if (rate == code_rate::two_thirds) return i % 4 != 3;
    if (rate == code_rate::three_quarters) return i % 6 != 3 && i % 6 != 4;
    return true;
}

std::vector<std::uint8_t> reference_decode(const std::vector<double>& soft, code_rate rate)
{
    std::size_t flat = 0;
    for (;; flat += 2) {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < flat; ++i) kept += ref_kept(rate, i) ? 1 : 0;
        if (kept == soft.size()) break;
        if (flat > soft.size() * 2 + 8) throw std::invalid_argument("reference: bad length");
    }
    std::vector<double> pairs(flat, 0.0);
    for (std::size_t i = 0, used = 0; i < flat; ++i) {
        if (ref_kept(rate, i)) pairs[i] = soft[used++];
    }
    const std::size_t steps = flat / 2;
    if (steps < ref_state_bits) throw std::invalid_argument("reference: too short");

    const double lost = -std::numeric_limits<double>::infinity();
    std::vector<double> metric(ref_states, lost);
    metric[0] = 0.0;
    std::vector<std::vector<unsigned>> from(steps, std::vector<unsigned>(ref_states, 0));
    for (std::size_t t = 0; t < steps; ++t) {
        std::vector<double> next(ref_states, lost);
        for (unsigned state = 0; state < ref_states; ++state) {
            if (metric[state] == lost) continue;
            for (unsigned input = 0; input <= 1; ++input) {
                const auto out = ref_output(input, state);
                const double branch = (out[0] ? -pairs[2 * t] : pairs[2 * t]) +
                                      (out[1] ? -pairs[2 * t + 1] : pairs[2 * t + 1]);
                const unsigned to = ((input << ref_state_bits) | state) >> 1;
                if (metric[state] + branch > next[to]) {
                    next[to] = metric[state] + branch;
                    from[t][to] = (state << 1) | input;
                }
            }
        }
        metric = next;
    }
    std::vector<std::uint8_t> bits(steps);
    unsigned state = 0;
    for (std::size_t t = steps; t-- > 0;) {
        bits[t] = static_cast<std::uint8_t>(from[t][state] & 1u);
        state = from[t][state] >> 1;
    }
    bits.resize(steps - ref_state_bits);
    return bits;
}

// ---------------------------------------------------------------------------

class conv_differential : public ::testing::TestWithParam<code_rate> {};

/// Encodes random bits of a random length and returns the coded stream as
/// +-1 soft values (bit 1 -> -1).
std::vector<double> random_codeword(code_rate rate, runtime::gaussian_source& rng)
{
    const std::size_t length = rng.next_bits() % 300;
    const auto bits = phy::random_bits(length, rng.next_bits());
    std::vector<double> soft;
    for (const std::uint8_t bit : convolutional_encode(bits, rate)) {
        soft.push_back(bit ? -1.0 : 1.0);
    }
    return soft;
}

TEST_P(conv_differential, matches_reference_on_noisy_soft_inputs)
{
    runtime::gaussian_source rng(11);
    for (int trial = 0; trial < 150; ++trial) {
        auto soft = random_codeword(GetParam(), rng);
        const double sigma = 0.3 + 0.1 * static_cast<double>(trial % 10);
        for (double& s : soft) s += sigma * rng.normal();
        ASSERT_EQ(viterbi_decode_soft(soft, GetParam()), reference_decode(soft, GetParam()))
            << "trial " << trial;
    }
}

TEST_P(conv_differential, matches_reference_on_integer_inputs_with_ties_and_erasures)
{
    // Small integer soft values make equal path metrics common, and zeros are
    // erasures; both decoders must resolve every tie the same way.
    runtime::gaussian_source rng(12);
    for (int trial = 0; trial < 150; ++trial) {
        auto soft = random_codeword(GetParam(), rng);
        for (double& s : soft) {
            // 2/8 erasures, 2/8 flipped, 1/8 doubled, the rest the clean +-1.
            const std::uint64_t draw = rng.next_bits() % 8;
            if (draw < 2) s = 0.0;
            else if (draw < 4) s = -s;
            else if (draw < 5) s *= 2.0;
        }
        ASSERT_EQ(viterbi_decode_soft(soft, GetParam()), reference_decode(soft, GetParam()))
            << "trial " << trial;
    }
}

TEST_P(conv_differential, matches_reference_on_all_erasures)
{
    for (const std::size_t info : {0u, 1u, 7u, 64u}) {
        const std::vector<double> soft(coded_length(info, GetParam()), 0.0);
        ASSERT_EQ(viterbi_decode_soft(soft, GetParam()), reference_decode(soft, GetParam()));
    }
}

TEST_P(conv_differential, coded_length_round_trips_for_every_info_length)
{
    // Every coded_length(n) for n in 0..2048 decodes to exactly n bits, and
    // every stream length between those values is rejected, as the
    // reference's linear scan would reject it.
    const code_rate rate = GetParam();
    std::size_t next_valid = coded_length(0, rate);
    std::size_t info = 0;
    for (std::size_t length = 0; info <= 2048; ++length) {
        const std::vector<double> soft(length, 1.0);
        if (length == next_valid) {
            ASSERT_EQ(convolutional_encode(std::vector<std::uint8_t>(info, 1), rate).size(),
                      length);
            ASSERT_EQ(viterbi_decode_soft(soft, rate).size(), info) << "length " << length;
            next_valid = coded_length(++info, rate);
        } else {
            EXPECT_THROW((void)viterbi_decode_soft(soft, rate), std::invalid_argument)
                << "length " << length;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(rates, conv_differential,
                         ::testing::Values(code_rate::half, code_rate::two_thirds,
                                           code_rate::three_quarters));

} // namespace
} // namespace mmtag::fec
