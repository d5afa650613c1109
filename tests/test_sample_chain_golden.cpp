// Golden values for the sample-accurate receive chain: noise, LNA, mixer,
// AGC-scaled ADC and canceller in ap_receiver::front_end, and the multi-tag
// capture superposition. Any change to a draw order, a stage's arithmetic or
// the order of the additions moves these values; a refactor that keeps the
// chain bit-exact keeps them. Recorded from the copy-per-stage chain, before
// the stages moved to in-place buffer operations.
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
                  {{0xd84138716ef2d431ULL, 539, 0x404342a5585b63b9ULL, 0xc0414aa33f67c035ULL},
                   {0x2b64a75e3c77eb5aULL, 539, 0x4042ce76075af7e6ULL, 0xc0414b95d8bb8e6aULL}});
}

TEST(SampleChainGolden, IndependentLo)
{
    auto cfg = core::fast_scenario();
    cfg.transmitter.lo_linewidth_hz = 0.0;
    cfg.receiver.lo = ap::lo_mode::independent;
    cfg.receiver.independent_cfo_hz = 100.0;
    cfg.receiver.independent_linewidth_hz = 10.0;
    expect_golden(cfg,
                  {{0xed9876efd68b1a95ULL, 539, 0xc01066a1e5ae74c2ULL, 0xc040024837d2580eULL},
                   {0xb347a038703e016fULL, 539, 0x400284f927346d73ULL, 0xc04057006e979049ULL}});
}

TEST(SampleChainGolden, DcNotchCanceller)
{
    auto cfg = core::fast_scenario();
    cfg.receiver.canceller.mode = ap::cancellation_mode::dc_notch;
    expect_golden(cfg,
                  {{0xcbf29ce484222325ULL, 0, 0xc059000000000000ULL, 0xc024a843349eeeccULL},
                   {0x8382d32f74f06d68ULL, 539, 0x403565f985eae818ULL, 0xc0414be6192814bbULL}});
}

TEST(SampleChainGolden, MeanSubtractCanceller)
{
    auto cfg = core::fast_scenario();
    cfg.receiver.canceller.mode = ap::cancellation_mode::mean_subtract;
    expect_golden(cfg,
                  {{0x96c1001bc68f5669ULL, 539, 0x403bb33ffc24d551ULL, 0xc0414cf31bd42ac4ULL},
                   {0x67d5e3adc672592aULL, 539, 0x403bf968a14bedfaULL, 0xc0414da214e72fedULL}});
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
    const std::uint64_t snr_bits[4] = {0x4042bff13db11362ULL, 0x4040b3823f42be52ULL,
                                       0x400e054627b29bf9ULL, 0x4041e3d093901188ULL};
    for (std::size_t b = 0; b < outcomes.size(); ++b) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(outcomes[b].snr_db), snr_bits[b]) << "burst " << b;
        EXPECT_TRUE(outcomes[b].delivered) << "burst " << b;
    }
}
