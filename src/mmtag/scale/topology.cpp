#include "mmtag/scale/topology.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mmtag/channel/path_loss.hpp"
#include "mmtag/core/link_budget.hpp"
#include "mmtag/runtime/thread_pool.hpp"
#include "mmtag/runtime/trial_rng.hpp"

namespace mmtag::scale {

layout_kind parse_layout(const std::string& text)
{
    if (text == "grid") return layout_kind::warehouse_grid;
    if (text == "poisson") return layout_kind::poisson_disc;
    if (text == "clustered") return layout_kind::clustered;
    throw std::invalid_argument("unknown layout '" + text +
                                "' (expected grid|poisson|clustered)");
}

const char* layout_name(layout_kind kind)
{
    switch (kind) {
    case layout_kind::warehouse_grid: return "grid";
    case layout_kind::poisson_disc: return "poisson";
    case layout_kind::clustered: return "clustered";
    }
    return "?";
}

namespace {

/// Uniform double in [0, 1) from a counter-based draw: position k's
/// coordinates never depend on how many tags were placed before it.
double uniform01(std::uint64_t seed, std::uint64_t stream)
{
    return runtime::unit_of(runtime::substream(seed, stream));
}

/// Standard normal via Box-Muller over two counter draws.
double normal01(std::uint64_t seed, std::uint64_t stream)
{
    const double u1 = uniform01(seed, 2 * stream);
    const double u2 = uniform01(seed, 2 * stream + 1);
    const double r = std::sqrt(-2.0 * std::log(1.0 - u1));
    return r * std::cos(2.0 * 3.14159265358979323846 * u2);
}

double clamp01_floor(double v, double floor_m)
{
    if (v < 0.0) return 0.0;
    if (v > floor_m) return floor_m;
    return v;
}

void place_tags(const topology_config& cfg, deployment& out)
{
    const std::uint64_t base = runtime::mix64(cfg.seed ^ 0x70b01097ULL);
    out.tags.resize(cfg.tag_count);
    switch (cfg.layout) {
    case layout_kind::warehouse_grid: {
        // Shelving rows: tags on a ceil(sqrt(n)) grid with +-10 cm jitter,
        // matching racked-inventory deployments.
        const auto cols = static_cast<std::size_t>(
            std::ceil(std::sqrt(static_cast<double>(cfg.tag_count))));
        const double pitch = cfg.floor_m / static_cast<double>(cols + 1);
        for (std::size_t k = 0; k < cfg.tag_count; ++k) {
            const double jx = (uniform01(base, 4 * k) - 0.5) * 0.2;
            const double jy = (uniform01(base, 4 * k + 1) - 0.5) * 0.2;
            out.tags[k].x_m =
                clamp01_floor(pitch * static_cast<double>(k % cols + 1) + jx, cfg.floor_m);
            out.tags[k].y_m =
                clamp01_floor(pitch * static_cast<double>(k / cols + 1) + jy, cfg.floor_m);
        }
        break;
    }
    case layout_kind::poisson_disc: {
        for (std::size_t k = 0; k < cfg.tag_count; ++k) {
            out.tags[k].x_m = uniform01(base, 4 * k) * cfg.floor_m;
            out.tags[k].y_m = uniform01(base, 4 * k + 1) * cfg.floor_m;
        }
        break;
    }
    case layout_kind::clustered: {
        const std::size_t clusters = cfg.clusters == 0 ? 1 : cfg.clusters;
        // Hotspot centres drawn inside the middle 80% of the floor so the
        // Gaussian spread rarely clips at the walls.
        std::vector<std::pair<double, double>> centres(clusters);
        for (std::size_t c = 0; c < clusters; ++c) {
            centres[c].first =
                (0.1 + 0.8 * uniform01(base, 1000000 + 2 * c)) * cfg.floor_m;
            centres[c].second =
                (0.1 + 0.8 * uniform01(base, 1000001 + 2 * c)) * cfg.floor_m;
        }
        for (std::size_t k = 0; k < cfg.tag_count; ++k) {
            const auto c = static_cast<std::size_t>(
                uniform01(base, 4 * k + 2) * static_cast<double>(clusters));
            const std::size_t cc = c >= clusters ? clusters - 1 : c;
            out.tags[k].x_m = clamp01_floor(
                centres[cc].first + cfg.cluster_sigma_m * normal01(base, 4 * k),
                cfg.floor_m);
            out.tags[k].y_m = clamp01_floor(
                centres[cc].second + cfg.cluster_sigma_m * normal01(base, 4 * k + 1),
                cfg.floor_m);
        }
        break;
    }
    }
    for (std::size_t k = 0; k < cfg.tag_count; ++k) {
        out.tags[k].id = static_cast<std::uint32_t>(k);
    }
}

double distance_3d(const placed_ap& ap, const placed_tag& tag)
{
    const double dx = ap.x_m - tag.x_m;
    const double dy = ap.y_m - tag.y_m;
    return std::sqrt(dx * dx + dy * dy + ap.z_m * ap.z_m);
}

} // namespace

deployment make_deployment(const topology_config& cfg,
                           const core::system_config& scenario)
{
    runtime::thread_pool inline_pool(1);
    return make_deployment(cfg, scenario, inline_pool);
}

deployment make_deployment(const topology_config& cfg,
                           const core::system_config& scenario,
                           runtime::thread_pool& pool)
{
    if (cfg.tag_count == 0) throw std::invalid_argument("topology: no tags");
    if (cfg.ap_count == 0) throw std::invalid_argument("topology: no APs");
    if (!(cfg.floor_m > 0.0)) throw std::invalid_argument("topology: floor <= 0");

    deployment out;
    out.config = cfg;

    // APs on a ceil(sqrt(m)) grid at mount height, centred per grid cell.
    const auto ap_cols = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(cfg.ap_count))));
    const auto ap_rows = (cfg.ap_count + ap_cols - 1) / ap_cols;
    out.aps.resize(cfg.ap_count);
    for (std::size_t a = 0; a < cfg.ap_count; ++a) {
        const std::size_t col = a % ap_cols;
        const std::size_t row = a / ap_cols;
        out.aps[a].x_m = cfg.floor_m * (static_cast<double>(col) + 0.5) /
                         static_cast<double>(ap_cols);
        out.aps[a].y_m = cfg.floor_m * (static_cast<double>(row) + 0.5) /
                         static_cast<double>(ap_rows);
        out.aps[a].z_m = cfg.ap_height_m;
    }

    place_tags(cfg, out);

    // Nearest-AP cell assignment: each tag's search on the pool, then the
    // cells filled in tag order.
    pool.parallel_for(out.tags.size(), [&](std::size_t k) {
        placed_tag& tag = out.tags[k];
        std::size_t best = 0;
        double best_d = distance_3d(out.aps[0], tag);
        for (std::size_t a = 1; a < cfg.ap_count; ++a) {
            const double d = distance_3d(out.aps[a], tag);
            if (d < best_d) {
                best_d = d;
                best = a;
            }
        }
        tag.ap = best;
        tag.distance_m = best_d;
    });
    out.cells.assign(cfg.ap_count, {});
    for (const placed_tag& tag : out.tags) out.cells[tag.ap].push_back(tag.id);

    // Static SINR. Signal and noise come straight from the calibrated
    // monostatic budget; interference sums, per serving AP,
    //   (a) other APs' carrier leak after canceller suppression, and
    //   (b) the mean cross-cell backscatter over each other cell's tags
    //       (one co-channel tag per cell transmits in any slot; the mean is
    //       the static stand-in for the per-slot draw),
    // with (b) reusing the monostatic budget at the geometric-mean distance
    // d_eq = sqrt(d1*d2), exact for the bistatic d1^2*d2^2 spreading law.
    // There are tags x APs cross-cell terms, so they and each tag's signal
    // come from the budget's closed form in watts (received_at_ap_w).
    const core::link_budget budget(scenario);
    const double noise_w =
        dbm_to_watt(budget.at(scenario.distance_m).noise_floor_dbm);
    const double tx_power_w = dbm_to_watt(scenario.transmitter.tx_power_dbm);
    const double frequency_hz = make_channel_config(scenario).frequency_hz;
    const double ap_suppression = from_db(-cfg.ap_suppression_db);
    const double tag_suppression = from_db(-cfg.tag_suppression_db);

    // interference_w[i] = total co-channel power into AP i's receiver. Each
    // AP's sum runs on one executor in a fixed order, so the pool's size
    // never changes a bit of it.
    std::vector<double> interference_w(cfg.ap_count, 0.0);
    pool.parallel_for(cfg.ap_count, [&](std::size_t i) {
        double total_w = 0.0;
        for (std::size_t j = 0; j < cfg.ap_count; ++j) {
            if (j == i) continue;
            const double dx = out.aps[i].x_m - out.aps[j].x_m;
            const double dy = out.aps[i].y_m - out.aps[j].y_m;
            const double d_ap = std::max(0.1, std::sqrt(dx * dx + dy * dy));
            total_w += channel::one_way_received_power(
                           tx_power_w, from_db(scenario.ap_tx_gain_dbi),
                           from_db(scenario.ap_rx_gain_dbi), d_ap, frequency_hz) *
                       ap_suppression;
            if (out.cells[j].empty()) continue;
            double cell_sum_w = 0.0;
            for (const std::size_t t : out.cells[j]) {
                const auto& u = out.tags[t];
                const double d1 = u.distance_m; // illuminated by its own AP
                const double d2 = distance_3d(out.aps[i], u);
                cell_sum_w += budget.received_at_ap_w(std::sqrt(d1 * d2));
            }
            total_w += tag_suppression * cell_sum_w /
                       static_cast<double>(out.cells[j].size());
        }
        interference_w[i] = total_w;
    });

    pool.parallel_for(out.tags.size(), [&](std::size_t k) {
        auto& tag = out.tags[k];
        const double signal_w = budget.received_at_ap_w(tag.distance_m);
        tag.sinr_db = to_db(signal_w / (noise_w + interference_w[tag.ap]));
    });
    return out;
}

} // namespace mmtag::scale
