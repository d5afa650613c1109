// Two-way protocol walkthrough at the sample level.
//
// The AP addresses three tags over the PIE command channel (amplitude
// modulation decoded by each tag's envelope detector), reads each one's
// payload via backscatter, then puts one to sleep and shows it ignoring a
// later read. Every arrow in the protocol diagram is simulated RF.
//
//   $ ./two_way_protocol
#include <cstdio>

#include "mmtag/ap/query_encoder.hpp"
#include "mmtag/ap/receiver.hpp"
#include "mmtag/ap/transmitter.hpp"
#include "mmtag/channel/backscatter_channel.hpp"
#include "mmtag/core/config.hpp"
#include "mmtag/phy/bitio.hpp"
#include "mmtag/tag/addressable_tag.hpp"

using namespace mmtag;

namespace {

constexpr double fs = 50e6;

core::system_config scenario()
{
    auto cfg = core::default_scenario();
    cfg.sample_rate_hz = fs;
    cfg.symbol_rate_hz = 5e6;
    cfg.transmitter.sample_rate_hz = fs;
    cfg.receiver.sample_rate_hz = fs;
    cfg.receiver.samples_per_symbol = 10;
    cfg.receiver.lna.bandwidth_hz = fs;
    cfg.modulator.sample_rate_hz = fs;
    return cfg;
}

struct fleet {
    std::vector<tag::addressable_tag> tags;
    std::vector<channel::backscatter_channel> channels;
    std::vector<std::string> payloads;
};

/// One AP transaction: send `cmd`, listen, try to decode one response.
void transact(fleet& tags, ap::ap_transmitter& tx, ap::ap_receiver& rx,
              const ap::tag_command& cmd)
{
    ap::query_encoder::config enc_cfg;
    enc_cfg.sample_rate_hz = fs;
    enc_cfg.unit_s = 2e-6;
    const ap::query_encoder encoder(enc_cfg);

    rvec envelope = encoder.encode(cmd);
    const std::size_t command_end = envelope.size();
    envelope.insert(envelope.end(), static_cast<std::size_t>(400e-6 * fs), 1.0);
    const auto query = tx.generate_modulated(envelope);

    const char* kind_name = cmd.command == ap::tag_command::kind::select ? "SELECT"
                            : cmd.command == ap::tag_command::kind::read ? "READ"
                            : cmd.command == ap::tag_command::kind::sleep ? "SLEEP"
                                                                          : "QUERY";
    std::printf("AP  -> : %s tag %u\n", kind_name, cmd.tag_id);

    // Every tag hears the command and produces its reflection waveform.
    cvec antenna = query.rf; // start from leakage-free copy; channel adds paths
    bool first = true;
    for (std::size_t t = 0; t < tags.tags.size(); ++t) {
        const cvec at_tag = tags.channels[t].incident_at_tag(query.rf);
        const auto reaction =
            tags.tags[t].process(at_tag, phy::string_to_bytes(tags.payloads[t]));
        if (reaction.responded) {
            std::printf("        tag %u backscatters (%zu-sample reflection)\n",
                        tags.tags[t].tag_id(), reaction.gamma.size());
        }
        if (first) {
            antenna = tags.channels[t].ap_received(query.rf, reaction.gamma);
            first = false;
        } else {
            // The reflection spans the whole window, so it is one burst from 0.
            tags.channels[t].add_tag_burst(antenna, query.rf, reaction.gamma, 0, 1.0);
        }
    }

    const std::size_t window = antenna.size() - command_end;
    const auto result = rx.receive({antenna.data() + command_end, window},
                                   {query.lo.data() + command_end, window});
    if (result.frame_found && result.crc_ok) {
        std::printf("AP <-  : \"%s\" (SNR %.1f dB)\n\n",
                    phy::bytes_to_string(result.payload).c_str(), result.snr_db);
    } else {
        std::printf("AP <-  : (silence)\n\n");
    }
}

} // namespace

int main()
{
    const auto sys = scenario();

    fleet tags;
    const double distances[] = {1.5, 2.5, 4.0};
    for (std::uint16_t i = 0; i < 3; ++i) {
        tag::addressable_tag::config cfg;
        cfg.tag_id = static_cast<std::uint16_t>(100 + i);
        cfg.modulator = sys.modulator;
        cfg.detector.sample_rate_hz = fs;
        cfg.detector.video_bandwidth_hz = 5e6;
        cfg.detector.responsivity_v_per_w = 2000.0;
        cfg.detector.noise_equivalent_power_w = 1e-10;
        cfg.decoder.sample_rate_hz = fs;
        cfg.decoder.unit_s = 2e-6;
        cfg.turnaround_s = 20e-6;
        cfg.seed = 50 + i;
        tags.tags.emplace_back(cfg);

        auto geometry = sys;
        geometry.distance_m = distances[i];
        tags.channels.emplace_back(core::make_channel_config(geometry));
        tags.payloads.push_back("telemetry from tag " + std::to_string(100 + i));
    }

    ap::ap_transmitter tx(sys.transmitter, 1);
    ap::ap_receiver rx(sys.receiver, 2);

    std::printf("three tags at 1.5 / 2.5 / 4.0 m; AP runs the select-read protocol\n\n");
    for (std::uint16_t i = 0; i < 3; ++i) {
        ap::tag_command read;
        read.command = ap::tag_command::kind::read;
        read.tag_id = static_cast<std::uint16_t>(100 + i);
        transact(tags, tx, rx, read);
    }

    std::printf("-- putting tag 101 to sleep, then reading it again --\n\n");
    ap::tag_command sleep_cmd;
    sleep_cmd.command = ap::tag_command::kind::sleep;
    sleep_cmd.tag_id = 101;
    transact(tags, tx, rx, sleep_cmd);

    ap::tag_command read_again;
    read_again.command = ap::tag_command::kind::read;
    read_again.tag_id = 101;
    transact(tags, tx, rx, read_again);
    return 0;
}
