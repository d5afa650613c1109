#include "mmtag/fec/convolutional.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>

namespace mmtag::fec {

namespace {

// K=7 (133, 171) octal generators; 64 trellis states.
constexpr unsigned constraint = 7;
constexpr unsigned state_bits = constraint - 1;
constexpr unsigned state_count = 1u << state_bits;
constexpr unsigned g0 = 0133; // 0b1'011'011
constexpr unsigned g1 = 0171; // 0b1'111'001

/// Output pair for (input bit, state) packed as (c0 << 1) | c1. State holds
/// the previous `state_bits` inputs with the most recent in the MSB.
constexpr unsigned encoder_output(unsigned input, unsigned state)
{
    const unsigned window = (input << state_bits) | state;
    return ((std::popcount(window & g0) & 1u) << 1) | (std::popcount(window & g1) & 1u);
}

constexpr unsigned next_state(unsigned input, unsigned state)
{
    return ((input << state_bits) | state) >> 1;
}

/// branch_output[input][state]: the packed output pair of every trellis edge.
constexpr auto branch_output = [] {
    std::array<std::array<std::uint8_t, state_count>, 2> table{};
    for (unsigned input = 0; input <= 1; ++input) {
        for (unsigned state = 0; state < state_count; ++state) {
            table[input][state] = static_cast<std::uint8_t>(encoder_output(input, state));
        }
    }
    return table;
}();

/// One puncturing period over the flattened c0/c1 stream: which of its
/// `period` positions are transmitted.
struct puncture_pattern {
    std::size_t period;
    std::array<bool, 6> keep;

    /// Kept positions among the first `count` of a period.
    [[nodiscard]] std::size_t kept_before(std::size_t count) const
    {
        return static_cast<std::size_t>(std::count(keep.begin(), keep.begin() + count, true));
    }
};

const puncture_pattern& pattern_of(code_rate rate)
{
    static constexpr puncture_pattern half{2, {true, true}};
    static constexpr puncture_pattern two_thirds{4, {true, true, true, false}};
    static constexpr puncture_pattern three_quarters{6, {true, true, true, false, false, true}};
    switch (rate) {
    case code_rate::half: return half;
    case code_rate::two_thirds: return two_thirds;
    case code_rate::three_quarters: return three_quarters;
    }
    throw std::invalid_argument("convolutional: unknown code rate");
}

bool is_kept(const puncture_pattern& pattern, std::size_t flat_index)
{
    return pattern.keep[flat_index % pattern.period];
}

std::size_t punctured_length(code_rate rate, std::size_t flat_length)
{
    const puncture_pattern& pattern = pattern_of(rate);
    return flat_length / pattern.period * pattern.kept_before(pattern.period) +
           pattern.kept_before(flat_length % pattern.period);
}

/// Core Viterbi over depunctured soft pairs. Sign convention: soft > 0 means
/// bit 0, soft < 0 means bit 1, soft == 0 means erasure.
std::vector<std::uint8_t> viterbi_core(std::span<const double> soft_pairs)
{
    if (soft_pairs.size() % 2 != 0) {
        throw std::invalid_argument("viterbi: coded stream must contain bit pairs");
    }
    const std::size_t steps = soft_pairs.size() / 2;
    if (steps < state_bits) {
        throw std::invalid_argument("viterbi: stream shorter than the trellis tail");
    }

    constexpr double negative_infinity = -std::numeric_limits<double>::infinity();
    constexpr unsigned half_states = state_count / 2;
    std::array<double, state_count> metric{};
    metric.fill(negative_infinity);
    metric[0] = 0.0;
    std::array<double, state_count> next_metric{};
    // Bit `to` of decisions[t] is set when state `to` at step t was entered
    // from its odd predecessor. State `to` is entered with input to >> 5 from
    // states 2 (to & 31) and 2 (to & 31) + 1.
    std::vector<std::uint64_t> decisions(steps);

    for (std::size_t t = 0; t < steps; ++t) {
        const double soft0 = soft_pairs[2 * t];
        const double soft1 = soft_pairs[2 * t + 1];
        // Correlation metric per packed output pair: +|soft| when the
        // hypothesis matches the observed sign, -|soft| otherwise, 0 for
        // erasures.
        const std::array<double, 4> branch{soft0 + soft1, soft0 + -soft1, -soft0 + soft1,
                                           -soft0 + -soft1};
        std::uint64_t decided = 0;
        for (unsigned input = 0; input <= 1; ++input) {
            for (unsigned low = 0; low < half_states; ++low) {
                const unsigned even = 2 * low;
                const unsigned to = input * half_states + low;
                const double from_even = metric[even] + branch[branch_output[input][even]];
                const double from_odd = metric[even + 1] + branch[branch_output[input][even + 1]];
                // Ties go to the even predecessor.
                const bool odd = from_odd > from_even;
                next_metric[to] = odd ? from_odd : from_even;
                decided |= static_cast<std::uint64_t>(odd) << to;
            }
        }
        decisions[t] = decided;
        metric = next_metric;
    }

    // The encoder appends zeros, so the terminated trellis ends in state 0.
    unsigned state = 0;
    std::vector<std::uint8_t> decoded(steps);
    for (std::size_t t = steps; t-- > 0;) {
        const unsigned odd = (decisions[t] >> state) & 1u;
        decoded[t] = static_cast<std::uint8_t>(state / half_states);
        state = 2 * (state % half_states) + odd;
    }
    decoded.resize(steps - state_bits); // strip the termination tail
    return decoded;
}

std::vector<double> depuncture(std::span<const double> soft_bits, code_rate rate,
                               std::size_t flat_length)
{
    const puncture_pattern& pattern = pattern_of(rate);
    std::vector<double> full(flat_length, 0.0);
    std::size_t consumed = 0;
    for (std::size_t i = 0; i < flat_length; ++i) {
        if (is_kept(pattern, i)) full[i] = soft_bits[consumed++];
    }
    return full;
}

/// The smallest even flat (unpunctured) length whose punctured size equals
/// `punctured`: whole puncturing periods plus the shortest even remainder
/// holding the leftover kept bits.
std::size_t infer_flat_length(code_rate rate, std::size_t punctured)
{
    const puncture_pattern& pattern = pattern_of(rate);
    const std::size_t kept = pattern.kept_before(pattern.period);
    for (std::size_t rest = 0; rest < pattern.period; rest += 2) {
        if (pattern.kept_before(rest) == punctured % kept) {
            return punctured / kept * pattern.period + rest;
        }
    }
    throw std::invalid_argument("viterbi: input length inconsistent with code rate");
}

} // namespace

std::vector<std::uint8_t> convolutional_encode(std::span<const std::uint8_t> bits, code_rate rate)
{
    std::vector<std::uint8_t> flat;
    flat.reserve(2 * (bits.size() + state_bits));
    unsigned state = 0;
    auto push = [&](unsigned input) {
        const unsigned out = encoder_output(input, state);
        flat.push_back(static_cast<std::uint8_t>(out >> 1));
        flat.push_back(static_cast<std::uint8_t>(out & 1u));
        state = next_state(input, state);
    };
    for (std::uint8_t bit : bits) push(bit & 1u);
    for (unsigned i = 0; i < state_bits; ++i) push(0); // terminate the trellis
    const puncture_pattern& pattern = pattern_of(rate);
    std::vector<std::uint8_t> out;
    out.reserve(punctured_length(rate, flat.size()));
    for (std::size_t i = 0; i < flat.size(); ++i) {
        if (is_kept(pattern, i)) out.push_back(flat[i]);
    }
    return out;
}

std::vector<std::uint8_t> viterbi_decode(std::span<const std::uint8_t> coded_bits, code_rate rate)
{
    std::vector<double> soft;
    soft.reserve(coded_bits.size());
    for (std::uint8_t bit : coded_bits) soft.push_back((bit & 1u) ? -1.0 : 1.0);
    return viterbi_decode_soft(soft, rate);
}

std::vector<std::uint8_t> viterbi_decode_soft(std::span<const double> soft_bits, code_rate rate)
{
    const std::size_t flat_length = infer_flat_length(rate, soft_bits.size());
    const std::vector<double> full = depuncture(soft_bits, rate, flat_length);
    return viterbi_core(full);
}

std::size_t coded_length(std::size_t info_bits, code_rate rate)
{
    return punctured_length(rate, 2 * (info_bits + state_bits));
}

} // namespace mmtag::fec
