#include "mmtag/core/supervised_link.hpp"

#include <span>
#include <stdexcept>
#include <vector>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/phy/bitio.hpp"

namespace mmtag::core {

namespace {

/// The rung of the link's configured (modulation, FEC) pair on the rate
/// ladder; throws std::invalid_argument when the pair is not a rung.
std::size_t nominal_rate_of(const link_simulator& link)
{
    const auto& frame = link.parameters().modulator.frame;
    const auto& ladder = ap::rate_table();
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        if (ladder[i].scheme == frame.scheme && ladder[i].fec == frame.fec) return i;
    }
    throw std::invalid_argument("supervised link: (modulation, FEC) is not a rate-ladder rung");
}

ap::attempt_result send(link_simulator& link, std::size_t rate,
                        std::span<const std::uint8_t> bytes)
{
    const auto& option = ap::rate_table()[rate];
    link.set_rate(option.scheme, option.fec);
    const auto result = link.run_frame(bytes);
    return {result.delivered, result.rx.snr_db};
}

/// A driver over `link` with `faults` attached: each offered frame draws a
/// fresh seeded payload into `payload` (which must outlive the driver), and
/// every transmission of it runs one sample-accurate frame.
ap::link_driver data_driver(link_simulator& link, fault::fault_injector* faults,
                            std::size_t payload_bytes, std::vector<std::uint8_t>& payload)
{
    link.attach_fault_injector(faults);
    ap::link_driver driver;
    driver.next_frame = [&link, &payload, payload_bytes](std::size_t f) {
        payload = phy::random_bytes(payload_bytes,
                                    link.parameters().seed * 1'000'003 + 500'000 + f);
    };
    driver.transmit = [&link, &payload](std::size_t rate) {
        return send(link, rate, payload);
    };
    driver.now = [&link] { return link.clock_s(); };
    return driver;
}

} // namespace

ap::supervised_report run_supervised_link(link_simulator& link,
                                          fault::fault_injector* faults,
                                          const ap::supervisor_config& cfg,
                                          std::size_t frames, std::size_t payload_bytes)
{
    const std::size_t nominal_rate = nominal_rate_of(link); // before any side effect
    std::vector<std::uint8_t> payload;
    ap::link_driver driver = data_driver(link, faults, payload_bytes, payload);
    // A probe is a short frame (minimal payload) at the requested robust
    // rung: a CRC pass proves the link is usable again without spending a
    // full data frame of airtime on a possibly dead channel.
    const std::vector<std::uint8_t> probe_payload =
        phy::random_bytes(ap::probe_payload_bytes,
                          link.parameters().seed * 1'000'003 + 499'999);
    driver.probe = [&link, probe_payload](std::size_t rate) {
        return send(link, rate, probe_payload);
    };
    driver.wait = [&link](double wait_s) { link.advance_clock(wait_s); };
    driver.reacquire = [&link, faults, reacquire_s = cfg.reacquisition_time_s] {
        link.advance_clock(reacquire_s);
        if (faults != nullptr) faults->clear_lo_steps(link.clock_s());
    };
    return ap::run_supervised(cfg, nominal_rate, driver, frames,
                              static_cast<double>(payload_bytes) * 8.0);
}

ap::supervised_report run_baseline_link(link_simulator& link,
                                        fault::fault_injector* faults,
                                        std::size_t max_retries, std::size_t frames,
                                        std::size_t payload_bytes)
{
    const std::size_t rate = nominal_rate_of(link); // before any side effect
    std::vector<std::uint8_t> payload;
    return ap::run_plain_arq(max_retries, rate,
                             data_driver(link, faults, payload_bytes, payload), frames,
                             static_cast<double>(payload_bytes) * 8.0);
}

} // namespace mmtag::core
