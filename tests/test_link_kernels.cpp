// Bit-exactness of the link chain's hot kernels: the sync correlation, the
// symbol-timing search and the PA's buffer path each against a plain loop
// that defines the result (the kernels reorder independent chains for speed
// but must not move a single output bit).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mmtag/dsp/pn_sequence.hpp"
#include "mmtag/dsp/pulse_shape.hpp"
#include "mmtag/dsp/timing_recovery.hpp"
#include "mmtag/phy/preamble.hpp"
#include "mmtag/rf/amplifier.hpp"
#include "mmtag/rf/oscillator.hpp"
#include "mmtag/runtime/gaussian_source.hpp"

namespace mmtag {
namespace {

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b)
{
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

cvec noise(std::size_t count, std::uint64_t seed, double sigma = 1.0)
{
    runtime::gaussian_source source(seed);
    cvec out(count);
    for (cf64& x : out) x = cf64{sigma * source.normal(), sigma * source.normal()};
    return out;
}

// --- sync correlation ------------------------------------------------------

/// The complex sliding correlation, one lag at a time.
rvec reference_correlation(std::span<const cf64> haystack, std::span<const cf64> needle)
{
    if (needle.empty() || haystack.size() < needle.size()) return {};
    rvec out(haystack.size() - needle.size() + 1);
    for (std::size_t i = 0; i < out.size(); ++i) {
        cf64 acc{};
        for (std::size_t k = 0; k < needle.size(); ++k) {
            acc += haystack[i + k] * std::conj(needle[k]);
        }
        out[i] = std::abs(acc);
    }
    return out;
}

void expect_correlation_matches(const cvec& haystack, const rvec& needle)
{
    cvec complex_needle;
    for (const double c : needle) complex_needle.emplace_back(c, 0.0);
    const rvec expected = reference_correlation(haystack, complex_needle);
    const rvec got = dsp::correlate_magnitude(haystack, needle);
    EXPECT_TRUE(same_bits(got, expected))
        << "haystack " << haystack.size() << ", needle " << needle.size();
}

rvec chips(std::uint32_t degree)
{
    rvec out;
    for (const auto bit : dsp::m_sequence(degree)) out.push_back(bit ? -1.0 : 1.0);
    return out;
}

TEST(link_kernels, correlation_matches_complex_loop)
{
    const rvec sync = chips(6);
    // Lag counts 1 (needle == haystack), 2, 3, 4, 5, 7 and 653.
    for (const std::size_t lags : {1u, 2u, 3u, 4u, 5u, 7u, 653u}) {
        expect_correlation_matches(noise(sync.size() + lags - 1, lags), sync);
    }
    // A 127-chip word in a stream holding it, and a non-BPSK real needle.
    const rvec word = chips(7);
    cvec stream = noise(300, 11, 0.1);
    for (std::size_t k = 0; k < word.size(); ++k) stream[90 + k] += cf64{word[k], 0.0};
    expect_correlation_matches(stream, word);
    rvec taps;
    for (const cf64 x : noise(9, 12)) taps.push_back(x.real());
    expect_correlation_matches(noise(30, 13), taps);
}

TEST(link_kernels, correlation_matches_complex_loop_with_zeros)
{
    // Exact and negative zeros (a silent ADC) exercise the signed-zero terms
    // in which the complex product and the real scaling differ.
    cvec haystack = noise(70, 21);
    for (std::size_t i = 0; i < haystack.size(); i += 3) haystack[i] = cf64{};
    for (std::size_t i = 1; i < haystack.size(); i += 5) haystack[i] = cf64{-0.0, -0.0};
    for (std::size_t i = 2; i < haystack.size(); i += 7) haystack[i].imag(-0.0);
    expect_correlation_matches(haystack, chips(3));
    expect_correlation_matches(cvec(20, cf64{-0.0, 0.0}), chips(3));
    EXPECT_TRUE(dsp::correlate_magnitude(noise(5, 1), chips(3)).empty());
}

// --- symbol timing ---------------------------------------------------------

/// The timing search as one integrate-and-dump per offset.
std::size_t reference_offset(std::span<const cf64> samples, std::size_t sps)
{
    std::size_t best = 0;
    double best_metric = -1.0;
    for (std::size_t offset = 0; offset < sps; ++offset) {
        const cvec symbols = dsp::integrate_and_dump(samples, sps, offset);
        double energy = 0.0;
        for (cf64 s : symbols) energy += std::norm(s);
        if (!symbols.empty()) energy /= static_cast<double>(symbols.size());
        if (energy > best_metric) {
            best_metric = energy;
            best = offset;
        }
    }
    return best;
}

/// `count` samples repeating one random period of `sps` samples: every
/// offset then sums the same values in a rotated order, so which offset
/// wins is decided by rounding alone.
cvec periodic(std::size_t count, std::size_t sps, std::uint64_t seed)
{
    const cvec period = noise(sps, seed);
    cvec out(count);
    for (std::size_t i = 0; i < count; ++i) out[i] = period[i % sps] * (i % 2 == 0 ? 1e3 : 1.0);
    return out;
}

TEST(link_kernels, symbol_timing_matches_per_offset_search)
{
    for (const std::size_t sps : {2u, 10u, 50u}) {
        // Whole symbols, a ragged tail, one symbol plus a few samples, fewer
        // samples than one symbol, and none.
        for (const std::size_t count :
             {40 * sps, 40 * sps + sps - 1, sps + 1, sps - 1, std::size_t{0}}) {
            for (std::uint64_t seed = 1; seed <= 40; ++seed) {
                const cvec random = noise(count, seed);
                EXPECT_EQ(dsp::best_symbol_offset(random, sps), reference_offset(random, sps))
                    << "sps " << sps << ", " << count << " samples, seed " << seed;
                const cvec rotated = periodic(count, sps, seed);
                EXPECT_EQ(dsp::best_symbol_offset(rotated, sps), reference_offset(rotated, sps))
                    << "periodic, sps " << sps << ", " << count << " samples, seed " << seed;
            }
        }
    }
}

TEST(link_kernels, symbol_timing_breaks_ties_to_the_first_offset)
{
    // A constant capture scores every offset with whole symbols alike.
    const cvec flat(103, cf64{0.5, -0.25});
    for (const std::size_t sps : {2u, 10u, 50u}) {
        EXPECT_EQ(dsp::best_symbol_offset(flat, sps), reference_offset(flat, sps));
    }
    EXPECT_EQ(dsp::best_symbol_offset(flat, 200), 0u);
}

// --- PA buffer path --------------------------------------------------------

void expect_pa_matches(const rf::power_amplifier& pa, const cvec& input)
{
    cvec expected(input.size());
    std::transform(input.begin(), input.end(), expected.begin(),
                   [&](cf64 x) { return pa.process(x); });
    cvec got = input;
    pa.process(got);
    EXPECT_TRUE(same_bits(got, expected)) << input.size() << " samples";
}

TEST(link_kernels, pa_span_matches_per_sample_on_carrier)
{
    // A drive level times unit LO phasors, as the transmitter builds it: |x|
    // wobbles over a few one-ulp values.
    const rf::power_amplifier pa(rf::power_amplifier::config{});
    rf::oscillator lo(rf::oscillator::config{2e9, 1e5, 1e3, 0.3}, 7);
    const cvec phasors = lo.generate(5000);
    for (const double drive : {0.01, 0.031622776601683794, 0.2}) {
        cvec carrier(phasors.size());
        for (std::size_t i = 0; i < carrier.size(); ++i) carrier[i] = drive * phasors[i];
        expect_pa_matches(pa, carrier);
    }
}

TEST(link_kernels, pa_span_matches_per_sample_on_clamped_envelope)
{
    // generate_modulated's drive: an envelope clamped to [0, 1] times the
    // carrier, so zero, full-scale and in-between levels interleave.
    const rf::power_amplifier pa(rf::power_amplifier::config{});
    rf::oscillator lo(rf::oscillator::config{2e9, 0.0, 1e3, 0.0}, 9);
    const cvec phasors = lo.generate(4000);
    runtime::gaussian_source levels(5);
    cvec drive(phasors.size());
    for (std::size_t i = 0; i < drive.size(); ++i) {
        const double envelope = (i / 40) % 3 == 0 ? 1.7 : (i / 40) % 3 == 1 ? -0.4
                                                                        : 0.5 + levels.normal();
        drive[i] = 0.05 * std::clamp(envelope, 0.0, 1.0) * phasors[i];
    }
    expect_pa_matches(pa, drive);

    // More distinct amplitudes in rotation than any small memo holds.
    cvec cycling;
    for (int i = 0; i < 600; ++i) cycling.emplace_back(0.01 * (1 + i % 7), 0.0);
    expect_pa_matches(pa, cycling);
}

TEST(link_kernels, pa_span_matches_per_sample_on_zeros)
{
    const rf::power_amplifier pa(rf::power_amplifier::config{});
    const cvec samples{cf64{},        cf64{0.02, 0.0}, cf64{-0.0, -0.0}, cf64{1e-31, 0.0},
                       cf64{0.0, 0.02}, cf64{},        cf64{0.02, 0.0},  cf64{1e-300, 1e-300}};
    expect_pa_matches(pa, samples);
    expect_pa_matches(pa, cvec{});
    expect_pa_matches(pa, cvec(16, cf64{}));
}

// --- sync word ---------------------------------------------------------------

TEST(link_kernels, sync_word_is_built_once_per_degree)
{
    for (std::size_t degree = 3; degree <= 9; ++degree) {
        phy::preamble_layout layout;
        layout.sync_degree = degree;
        const cvec& word = phy::sync_word(layout);
        EXPECT_EQ(word, dsp::bits_to_bpsk(dsp::m_sequence(static_cast<std::uint32_t>(degree))));
        EXPECT_EQ(&phy::sync_word(layout), &word) << "degree " << degree;
    }
    phy::preamble_layout bad;
    bad.sync_degree = 2;
    EXPECT_THROW((void)phy::sync_word(bad), std::invalid_argument);
    bad.sync_degree = 17;
    EXPECT_THROW((void)phy::detect_preamble(noise(200, 1), bad), std::invalid_argument);
}

} // namespace
} // namespace mmtag
