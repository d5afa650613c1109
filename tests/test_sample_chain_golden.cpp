// Golden values for the sample-accurate receive chain: noise, LNA, mixer,
// AGC-scaled ADC and canceller in ap_receiver::front_end, and the multi-tag
// capture superposition. Any change to a draw order, a stage's arithmetic or
// the order of the additions moves these values; a refactor that keeps the
// chain bit-exact keeps them. Recorded from the in-place chain once payload
// bytes came from runtime::gaussian_source instead of <random>.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/core/config.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/core/multitag_simulator.hpp"
#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/phy/bitio.hpp"

using namespace mmtag;

namespace {

/// FNV-1a over the raw bytes of 64-bit words.
class fnv {
public:
    void add(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (word >> (8 * i)) & 0xffu;
            hash_ *= 0x100000001b3ULL;
        }
    }
    void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
    void add(const cvec& values)
    {
        for (const cf64& x : values) {
            add(x.real());
            add(x.imag());
        }
    }
    [[nodiscard]] std::uint64_t value() const { return hash_; }

private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct link_golden {
    std::uint64_t symbols_hash;
    std::size_t symbol_count;
    std::uint64_t snr_bits;
    std::uint64_t suppression_bits;
};

/// Two frames through one simulator: the second frame sees the noise state
/// the first one left behind.
std::vector<link_golden> run_two_frames(const core::system_config& cfg)
{
    core::link_simulator sim(cfg);
    std::vector<link_golden> out;
    for (std::uint64_t frame = 0; frame < 2; ++frame) {
        const auto result = sim.run_frame(phy::random_bytes(24, 11 + frame));
        fnv symbols;
        symbols.add(result.rx.symbols);
        out.push_back({symbols.value(), result.rx.symbols.size(),
                       std::bit_cast<std::uint64_t>(result.rx.snr_db),
                       std::bit_cast<std::uint64_t>(result.rx.suppression_db)});
    }
    return out;
}

void expect_golden(const core::system_config& cfg, const std::vector<link_golden>& expected)
{
    const auto actual = run_two_frames(cfg);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].symbols_hash, expected[i].symbols_hash) << "frame " << i;
        EXPECT_EQ(actual[i].symbol_count, expected[i].symbol_count) << "frame " << i;
        EXPECT_EQ(actual[i].snr_bits, expected[i].snr_bits) << "frame " << i;
        EXPECT_EQ(actual[i].suppression_bits, expected[i].suppression_bits) << "frame " << i;
    }
}

} // namespace

TEST(SampleChainGolden, SelfCoherentBackgroundSubtract)
{
    expect_golden(core::fast_scenario(),
                  {{0xab8124ab1611de02ULL, 539, 0x404342e1eef87b07ULL, 0xc0414b3849b842dcULL},
                   {0x08e50e002e7178c4ULL, 539, 0x4042ce5b86e64826ULL, 0xc0414baade168643ULL}});
}

TEST(SampleChainGolden, IndependentLo)
{
    auto cfg = core::fast_scenario();
    cfg.transmitter.lo_linewidth_hz = 0.0;
    cfg.receiver.lo = ap::lo_mode::independent;
    cfg.receiver.independent_cfo_hz = 100.0;
    cfg.receiver.independent_linewidth_hz = 10.0;
    expect_golden(cfg,
                  {{0x522e845eb1a4f58cULL, 539, 0xc0106db54649770cULL, 0xc0400947ed084088ULL},
                   {0xe73179850b0d36abULL, 539, 0x40029d3481788a64ULL, 0xc04061f3f6235cf2ULL}});
}

TEST(SampleChainGolden, DcNotchCanceller)
{
    auto cfg = core::fast_scenario();
    cfg.receiver.canceller.mode = ap::cancellation_mode::dc_notch;
    expect_golden(cfg,
                  {{0xcbf29ce484222325ULL, 0, 0xc059000000000000ULL, 0xc024a813c43287a2ULL},
                   {0x7bdbcbdb7707648fULL, 539, 0x403512037082a9a2ULL, 0xc0414d1b0e5a5f9eULL}});
}

TEST(SampleChainGolden, MeanSubtractCanceller)
{
    auto cfg = core::fast_scenario();
    cfg.receiver.canceller.mode = ap::cancellation_mode::mean_subtract;
    expect_golden(cfg,
                  {{0x3f70b39e60aa4d9bULL, 539, 0x403bb642c3a79d11ULL, 0xc0414c865233f0d7ULL},
                   {0x8f956acab28898d7ULL, 539, 0x403c23b10e9d7364ULL, 0xc0414f24228a7e7aULL}});
}

TEST(SampleChainGolden, MultitagCaptureWithOverrideAndFaultedTag)
{
    const std::vector<core::tag_descriptor> tags{
        {0, 2.0, 0.0}, {1, 2.5, 0.0}, {2, 3.0, 0.0}, {3, 2.2, 0.1}};
    core::multitag_simulator sim(core::fast_scenario(), tags);
    const std::size_t robust = ap::robust_rung;
    const double slot = sim.burst_duration_s(24, robust) + 20e-6;

    // Tag 2 is shadowed by 12 dB for its whole burst.
    fault::fault_event blockage;
    blockage.kind = fault::fault_kind::blockage;
    blockage.start_s = 0.0;
    blockage.duration_s = 10.0;
    blockage.magnitude = 12.0;
    fault::fault_injector shadowed{fault::fault_schedule(10.0, {blockage})};
    sim.attach_tag_fault_injectors({nullptr, nullptr, &shadowed, nullptr});

    std::vector<core::tag_burst> bursts;
    for (std::size_t t = 0; t < tags.size(); ++t) {
        bursts.push_back(
            {t, phy::random_bytes(24, 40 + t), static_cast<double>(t) * slot, std::nullopt});
    }
    bursts[1].mcs = robust;

    const auto outcomes = sim.run(bursts);
    ASSERT_EQ(outcomes.size(), 4u);
    const std::uint64_t snr_bits[4] = {0x4042c3801fffd548ULL, 0x4040b5c9562883abULL,
                                       0x400e1dc2ca4a31cbULL, 0x4041e4de9587b408ULL};
    for (std::size_t b = 0; b < outcomes.size(); ++b) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(outcomes[b].snr_db), snr_bits[b]) << "burst " << b;
        EXPECT_TRUE(outcomes[b].delivered) << "burst " << b;
    }
}
