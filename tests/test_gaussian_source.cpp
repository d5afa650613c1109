// runtime::gaussian_source: distribution checks with stated z-bounds, seed
// reproducibility, and pinned draws that fix the stream across platforms.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "mmtag/runtime/gaussian_source.hpp"

namespace mmtag::runtime {
namespace {

// Every statistical bound below is z standard errors of the estimator under
// an exact N(0, 1) source; z = 5 makes a false alarm a ~6e-7 event.
constexpr double z = 5.0;
constexpr std::size_t draws = std::size_t{1} << 23;

/// P(|X| > t) for a standard normal X.
double two_sided_tail(double t) { return std::erfc(t / std::sqrt(2.0)); }

struct sample_summary {
    double mean = 0.0;
    double m2 = 0.0;
    double m3 = 0.0;
    double m4 = 0.0;
    std::size_t beyond3 = 0;
    std::size_t beyond4 = 0;
    std::vector<std::size_t> bins; // width 0.25 over [-4, 4)
};

const sample_summary& summary()
{
    static const sample_summary s = [] {
        sample_summary out;
        out.bins.assign(32, 0);
        gaussian_source source(2024);
        double s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0;
        for (std::size_t i = 0; i < draws; ++i) {
            const double x = source.normal();
            const double x2 = x * x;
            s1 += x;
            s2 += x2;
            s3 += x2 * x;
            s4 += x2 * x2;
            if (std::abs(x) > 3.0) ++out.beyond3;
            if (std::abs(x) > 4.0) ++out.beyond4;
            if (x >= -4.0 && x < 4.0) ++out.bins[static_cast<std::size_t>((x + 4.0) * 4.0)];
        }
        const double n = static_cast<double>(draws);
        out.mean = s1 / n;
        out.m2 = s2 / n;
        out.m3 = s3 / n;
        out.m4 = s4 / n;
        return out;
    }();
    return s;
}

TEST(gaussian_source, moments_match_standard_normal)
{
    const auto& s = summary();
    const double n = static_cast<double>(draws);
    // Standard errors: sqrt(Var[X^k] / n) with E[X^2k] = 1, 3, 15, 105.
    EXPECT_NEAR(s.mean, 0.0, z * std::sqrt(1.0 / n));
    EXPECT_NEAR(s.m2, 1.0, z * std::sqrt((3.0 - 1.0) / n));
    EXPECT_NEAR(s.m3, 0.0, z * std::sqrt(15.0 / n));
    EXPECT_NEAR(s.m4, 3.0, z * std::sqrt((105.0 - 9.0) / n));
}

TEST(gaussian_source, tail_mass_matches_standard_normal)
{
    const auto& s = summary();
    const double n = static_cast<double>(draws);
    for (const auto& [t, count] : {std::pair{3.0, s.beyond3}, std::pair{4.0, s.beyond4}}) {
        const double p = two_sided_tail(t);
        const double observed = static_cast<double>(count) / n;
        EXPECT_NEAR(observed, p, z * std::sqrt(p * (1.0 - p) / n)) << "P(|x| > " << t << ")";
    }
}

TEST(gaussian_source, histogram_matches_normal_density)
{
    // Bin counts of width 0.25 over [-4, 4): covers every Ziggurat layer's
    // wedge, so a wrong layer edge or wedge test shows up as a bin outlier.
    const auto& s = summary();
    const double n = static_cast<double>(draws);
    const auto cdf = [](double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); };
    for (std::size_t b = 0; b < s.bins.size(); ++b) {
        const double lo = -4.0 + 0.25 * static_cast<double>(b);
        const double p = cdf(lo + 0.25) - cdf(lo);
        const double observed = static_cast<double>(s.bins[b]) / n;
        EXPECT_NEAR(observed, p, z * std::sqrt(p * (1.0 - p) / n)) << "bin at " << lo;
    }
}

TEST(gaussian_source, same_seed_same_stream)
{
    gaussian_source a(77);
    gaussian_source b(77);
    gaussian_source other(78);
    std::size_t differing = 0;
    for (int i = 0; i < 10000; ++i) {
        const double x = a.normal();
        EXPECT_EQ(x, b.normal());
        if (x != other.normal()) ++differing;
    }
    EXPECT_EQ(differing, 10000u);

    // A copy continues the stream from the same point.
    gaussian_source copy = a;
    for (int i = 0; i < 100; ++i) EXPECT_EQ(copy.normal(), a.normal());
}

TEST(gaussian_source, pinned_first_draws)
{
    // The portability contract: these values are fixed by the SplitMix64
    // constants and the generated layer tables, not by any standard library.
    // A change here changes every seeded result and must be deliberate.
    gaussian_source bits(1);
    EXPECT_EQ(bits.next_bits(), 0x5e41ab087439611eULL);
    EXPECT_EQ(bits.next_bits(), 0xf18d6ce93d6cf1eeULL);

    gaussian_source source(1);
    const std::array<double, 8> expected{
        0x1.84dc80d731c29p-1, -0x1.9eb985a5a0dc2p-1, 0x1.cef4c0874d22cp-6,
        -0x1.73e87ba63bf7bp+0, 0x1.249d89d2d0505p-2, -0x1.f4db35dfdae48p-1,
        0x1.9be0de331ce59p+0, -0x1.950ff6544b9e3p-2,
    };
    for (const double value : expected) EXPECT_EQ(source.normal(), value);
}

TEST(gaussian_source, pinned_unit_uniform_exponential)
{
    // The same seed-1 words as pinned_first_draws: unit() is the word's top
    // 53 bits over 2^53 (0x5e41ab087439611e >> 11 = 0x1.7906ac21d0e58p-2 *
    // 2^53), and uniform and exponential are fixed transforms of it.
    gaussian_source unit_source(1);
    for (const double value : {0x1.7906ac21d0e58p-2, 0x1.e31ad9d27ad9ep-1,
                               0x1.72becda64fd1p-5, 0x1.8e0c363726645p-1}) {
        EXPECT_EQ(unit_source.unit(), value);
    }
    gaussian_source uniform_source(1);
    for (const double value : {-0x1.45bd46add709p-3, 0x1.5be1904719906p+1,
                               -0x1.c6122fde03876p+0, 0x1.e31e8789dffacp+0}) {
        EXPECT_EQ(uniform_source.uniform(-2.0, 3.0), value);
    }
    gaussian_source exponential_source(1);
    for (const double value : {0x1.e178614279b8p-10, 0x1.78c951a8daa8cp-7,
                               0x1.848096404cd81p-13, 0x1.89e2117a14edbp-8}) {
        EXPECT_EQ(exponential_source.exponential(250.0), value);
    }
}

TEST(gaussian_source, pinned_below)
{
    gaussian_source source(1);
    for (const std::uint64_t value : {3u, 9u, 0u, 7u, 2u, 7u, 6u, 2u}) {
        EXPECT_EQ(source.below(10), value);
    }
    gaussian_source one(1);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(one.below(1), 0u);

    // n = 2^63 + 1 rejects every word whose low product half falls below
    // 2^64 mod n = 2^63 - 1: about half of them.
    constexpr std::uint64_t n = (std::uint64_t{1} << 63) + 1;
    gaussian_source wide(1);
    for (const std::uint64_t value :
         {8702843941935282423ULL, 2020980364105923368ULL, 7142571665318769130ULL,
          2277851939543494749ULL, 1631695060704397749ULL, 2249637583335451041ULL}) {
        EXPECT_EQ(wide.below(n), value);
    }
}

TEST(gaussian_source, below_rejects_about_half_the_words_at_two_pow_63_plus_one)
{
    // Each draw takes a geometric number of words with success probability
    // 1 - (2^63 - 1) / 2^64 (mean 2, variance 2); z = 5 over 2,000 draws.
    constexpr std::uint64_t n = (std::uint64_t{1} << 63) + 1;
    constexpr std::size_t count = 2000;
    gaussian_source source(1);
    for (std::size_t i = 0; i < count; ++i) EXPECT_LT(source.below(n), n);
    // Find the source's next word in a twin stream to count the words used.
    const std::uint64_t next = source.next_bits();
    gaussian_source twin(1);
    std::size_t used = 0;
    while (twin.next_bits() != next && used < 10 * count) ++used;
    EXPECT_EQ(used, 4060u);
    EXPECT_NEAR(static_cast<double>(used), 2.0 * count, z * std::sqrt(2.0 * count));
}

TEST(gaussian_source, pinned_long_stream)
{
    // FNV-1a over the bit patterns of the first 200,000 draws per seed. The
    // stream takes every path of normal(): its wedge and tail draws consume
    // about 4 % more uniform words than one per draw, and both signs and
    // the tail beyond the base layer appear. Any rewrite of the sampler
    // must keep these hashes.
    constexpr std::size_t count = 200000;
    const std::array<std::pair<std::uint64_t, std::uint64_t>, 3> expected{{
        {1, 0xea82a6a3a0f6135aULL},
        {2, 0x6f6a935c0650c785ULL},
        {3, 0x28e08c72a04fa195ULL},
    }};
    for (const auto& [seed, hash] : expected) {
        gaussian_source source(seed);
        std::uint64_t h = 0xcbf29ce484222325ULL;
        std::size_t negative = 0;
        std::size_t tail = 0;
        for (std::size_t i = 0; i < count; ++i) {
            const double x = source.normal();
            const auto bits = std::bit_cast<std::uint64_t>(x);
            for (int byte = 0; byte < 8; ++byte) {
                h ^= (bits >> (8 * byte)) & 0xffu;
                h *= 0x100000001b3ULL;
            }
            if (x < 0.0) ++negative;
            if (std::abs(x) > detail::ziggurat_x[1]) ++tail;
        }
        EXPECT_EQ(h, hash) << "seed " << seed << std::hex << ": 0x" << h;
        EXPECT_GT(negative, count / 3) << "seed " << seed;
        EXPECT_LT(negative, 2 * count / 3) << "seed " << seed;
        EXPECT_GT(tail, 0u) << "seed " << seed;
    }
}

} // namespace
} // namespace mmtag::runtime
