#include <gtest/gtest.h>

#include <cmath>

#include "mmtag/mac/arq.hpp"
#include "mmtag/mac/slotted_aloha.hpp"
#include "mmtag/mac/tdma.hpp"

namespace mmtag::mac {
namespace {

class aloha_population : public ::testing::TestWithParam<std::size_t> {};

TEST_P(aloha_population, inventories_everyone)
{
    aloha_inventory inventory{aloha_config{}};
    const auto stats = inventory.run(GetParam(), 42);
    EXPECT_TRUE(stats.complete()) << "found " << stats.tags_identified << "/"
                                  << stats.tags_total;
    EXPECT_EQ(stats.slots_used,
              stats.idle_slots + stats.singleton_slots + stats.collision_slots);
}

TEST_P(aloha_population, efficiency_in_plausible_band)
{
    if (GetParam() < 8) GTEST_SKIP() << "efficiency noisy for tiny populations";
    aloha_inventory inventory{aloha_config{}};
    const auto stats = inventory.run(GetParam(), 7);
    // Framed slotted ALOHA peaks at 1/e ~= 0.368; with Q adaptation overhead
    // (initial frame sizes far from the population) practical efficiency
    // lands between 0.10 and 0.45.
    EXPECT_GT(stats.efficiency(), 0.08);
    EXPECT_LT(stats.efficiency(), 0.45);
}

INSTANTIATE_TEST_SUITE_P(populations, aloha_population,
                         ::testing::Values(1u, 2u, 5u, 10u, 25u, 50u, 100u, 200u));

TEST(aloha, deterministic_for_seed)
{
    aloha_inventory inventory{aloha_config{}};
    const auto a = inventory.run(30, 5);
    const auto b = inventory.run(30, 5);
    EXPECT_EQ(a.slots_used, b.slots_used);
    EXPECT_EQ(a.rounds, b.rounds);
}

TEST(aloha, lossy_phy_needs_more_slots)
{
    aloha_config reliable;
    reliable.singleton_success = 1.0;
    aloha_config lossy;
    lossy.singleton_success = 0.5;
    const auto a = aloha_inventory(reliable).run(50, 9);
    const auto b = aloha_inventory(lossy).run(50, 9);
    EXPECT_LT(a.slots_used, b.slots_used);
}

TEST(aloha, theoretical_peak)
{
    EXPECT_DOUBLE_EQ(aloha_inventory::theoretical_peak_efficiency(1), 1.0);
    // (1 - 1/n)^(n-1) -> 1/e for large n.
    EXPECT_NEAR(aloha_inventory::theoretical_peak_efficiency(1000), 1.0 / std::exp(1.0),
                0.001);
}

TEST(aloha, zero_tags_trivial)
{
    const auto stats = aloha_inventory(aloha_config{}).run(0, 1);
    EXPECT_TRUE(stats.complete());
    EXPECT_EQ(stats.slots_used, 0u);
}

TEST(aloha, validation)
{
    aloha_config cfg;
    cfg.min_q = 5;
    cfg.max_q = 3;
    EXPECT_THROW(aloha_inventory{cfg}, std::invalid_argument);
}

TEST(tdma, slot_duration_arithmetic)
{
    tdma_config cfg;
    cfg.query_time_s = 10e-6;
    cfg.turnaround_s = 2e-6;
    cfg.guard_time_s = 1e-6;
    cfg.frame_payload_bytes = 125; // 1000 bits
    cfg.overhead_bits = 0;
    cfg.phy_rate_bps = 1e6;
    tdma_scheduler scheduler(cfg);
    EXPECT_NEAR(scheduler.slot_duration_s(), 13e-6 + 1e-3, 1e-12);
}

TEST(tdma, interleave_shares_spreads_weighted_tags)
{
    // Tag 7 holds three slots (two reallocated from quarantined tags), 13
    // none: 7 must not take a contiguous stretch, and 13 must not appear.
    const std::vector<slot_share> shares{{7, 3}, {11, 1}, {13, 0}, {17, 1}};
    const auto order = tdma_scheduler::interleave_shares(shares);
    EXPECT_EQ(order, (std::vector<std::uint32_t>{7, 11, 17, 7, 7}));
    EXPECT_TRUE(tdma_scheduler::interleave_shares({}).empty());
}

TEST(tdma, per_tag_goodput_divides_by_population)
{
    tdma_scheduler scheduler{tdma_config{}};
    const auto one = scheduler.metrics(1);
    const auto ten = scheduler.metrics(10);
    EXPECT_NEAR(ten.per_tag_goodput_bps, one.per_tag_goodput_bps / 10.0, 1.0);
    EXPECT_NEAR(ten.aggregate_goodput_bps, one.aggregate_goodput_bps, 1.0);
}

TEST(tdma, utilization_below_unity)
{
    tdma_scheduler scheduler{tdma_config{}};
    const auto m = scheduler.metrics(5);
    EXPECT_GT(m.channel_utilization, 0.0);
    EXPECT_LT(m.channel_utilization, 1.0);
}

TEST(tdma, larger_payload_improves_utilization)
{
    tdma_config small;
    small.frame_payload_bytes = 32;
    tdma_config large;
    large.frame_payload_bytes = 1024;
    EXPECT_GT(tdma_scheduler(large).metrics(1).channel_utilization,
              tdma_scheduler(small).metrics(1).channel_utilization);
}

TEST(arq, perfect_link_never_retransmits)
{
    stop_and_wait_arq arq{arq_config{}};
    const auto stats = arq.run(100, 1.0, 3);
    EXPECT_EQ(stats.frames_delivered, 100u);
    EXPECT_EQ(stats.transmissions, 100u);
}

TEST(arq, delivery_tracks_success_probability)
{
    stop_and_wait_arq arq{arq_config{}};
    const auto stats = arq.run(2000, 0.7, 5);
    // With 8 retries at p=0.7, delivery is essentially certain.
    EXPECT_GT(stats.delivery_ratio(), 0.999);
    // Mean transmissions per frame ~ 1/0.7.
    const double mean_tx =
        static_cast<double>(stats.transmissions) / static_cast<double>(stats.frames_offered);
    EXPECT_NEAR(mean_tx, 1.0 / 0.7, 0.08);
}

TEST(arq, gives_up_after_max_retries)
{
    arq_config cfg;
    cfg.max_retries = 2;
    stop_and_wait_arq arq(cfg);
    const auto stats = arq.run(5000, 0.1, 7);
    // Delivery probability = 1 - 0.9^2 = 0.19.
    EXPECT_NEAR(stats.delivery_ratio(), 0.19, 0.02);
}

TEST(arq, goodput_accounts_airtime)
{
    arq_config cfg;
    cfg.frame_time_s = 100e-6;
    cfg.ack_time_s = 0.0;
    stop_and_wait_arq arq(cfg);
    const auto stats = arq.run(100, 1.0, 9);
    // 1000-bit payload every 100 us -> 10 Mb/s goodput.
    EXPECT_NEAR(static_cast<double>(stats.frames_delivered) * 1000.0 / stats.airtime_s, 10e6,
                1.0);
}

TEST(arq, validation)
{
    EXPECT_THROW((void)stop_and_wait_arq(arq_config{}).run(10, 1.5, 1), std::invalid_argument);
    arq_config cfg;
    cfg.max_retries = 0;
    EXPECT_THROW(stop_and_wait_arq{cfg}, std::invalid_argument);
}

} // namespace
} // namespace mmtag::mac
