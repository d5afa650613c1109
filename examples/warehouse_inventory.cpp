// Warehouse inventory: an AP discovers and reads a population of tags.
//
// Fifty battery-free tags are scattered across a 1.5-8 m aisle at random
// orientations. The AP inventories them with framed slotted ALOHA, then
// polls each one for a 64-byte sensor record over TDMA. Demonstrates the
// MAC stack and per-tag rate adaptation over a heterogeneous population.
//
//   $ ./warehouse_inventory [tag_count]
#include <cstdio>
#include <cstdlib>

#include "mmtag/core/network.hpp"

int main(int argc, char** argv)
{
    using namespace mmtag;

    std::size_t tag_count = 50;
    if (argc > 1) tag_count = static_cast<std::size_t>(std::atoi(argv[1]));
    if (tag_count == 0 || tag_count > 5000) {
        std::fprintf(stderr, "usage: %s [tag_count in 1..5000]\n", argv[0]);
        return 1;
    }

    // Scatter tags through the aisle (deterministic so runs are comparable).
    const auto tags = core::uniform_population(tag_count, 1.5, 8.0, 2024);

    // The warehouse preset: 16-element tags against dense racking clutter.
    const core::network net(core::warehouse_scenario(), tags);
    const auto report = net.run(7, 64);

    std::printf("warehouse inventory, %zu tags:\n", tag_count);
    std::printf("  discovery: %zu/%zu identified in %zu slots over %zu rounds "
                "(%.0f%% slot efficiency)\n",
                report.inventory.tags_identified, report.inventory.tags_total,
                report.inventory.slots_used, report.inventory.rounds,
                100.0 * report.inventory.efficiency());
    std::printf("  SNR across the population: %.1f .. %.1f dB\n", report.min_snr_db,
                report.max_snr_db);
    std::printf("  TDMA cycle: %.2f ms, aggregate goodput %.2f Mb/s\n",
                report.tdma.cycle_time_s * 1e3, report.aggregate_goodput_bps / 1e6);

    // Show the five best and five worst links.
    auto links = report.links;
    std::sort(links.begin(), links.end(),
              [](const auto& a, const auto& b) { return a.snr_db > b.snr_db; });
    std::printf("\n  %-6s %-10s %-9s %-16s %-10s %s\n", "tag", "range_m", "angle_deg",
                "rate", "snr_dB", "delivery");
    auto show = [](const core::tag_link_state& link) {
        std::printf("  %-6u %-10.2f %-9.1f %-7s/%-8s %-10.1f %.3f\n", link.tag.id,
                    link.tag.distance_m, rad_to_deg(link.tag.incidence_rad),
                    phy::modulation_name(link.rate.scheme).c_str(),
                    phy::fec_mode_name(link.rate.fec), link.snr_db, link.frame_success);
    };
    const std::size_t show_count = std::min<std::size_t>(5, links.size());
    for (std::size_t i = 0; i < show_count; ++i) show(links[i]);
    if (links.size() > 2 * show_count) std::printf("  ...\n");
    for (std::size_t i = links.size() - std::min(show_count, links.size());
         i < links.size(); ++i) {
        show(links[i]);
    }
    return report.inventory.complete() ? 0 : 2;
}
