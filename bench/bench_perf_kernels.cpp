// Performance microbenchmarks (google-benchmark): throughput of the hot
// kernels — Gaussian noise, FFT, Viterbi, frame build/decode, the transmit
// and receive front-end stages of one link frame, the PA, symbol timing and
// preamble sync kernels on that frame's samples, and one full end-to-end
// frame exchange. Not a paper figure; used to keep the simulator fast enough
// for the R3-R8 sweeps.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "mmtag/ap/receiver.hpp"
#include "mmtag/ap/transmitter.hpp"
#include "mmtag/channel/backscatter_channel.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/dsp/fft.hpp"
#include "mmtag/dsp/pulse_shape.hpp"
#include "mmtag/dsp/timing_recovery.hpp"
#include "mmtag/fec/convolutional.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/obs/scoped_timer.hpp"
#include "mmtag/obs/trace.hpp"
#include "mmtag/phy/bitio.hpp"
#include "mmtag/phy/frame.hpp"
#include "mmtag/phy/preamble.hpp"
#include "mmtag/rf/amplifier.hpp"
#include "mmtag/rf/noise.hpp"
#include "mmtag/runtime/gaussian_source.hpp"
#include "mmtag/tag/modulator.hpp"

#include "bench_util.hpp"

using namespace mmtag;

namespace {

void bm_gaussian(benchmark::State& state)
{
    runtime::gaussian_source source(1);
    for (auto _ : state) benchmark::DoNotOptimize(source.normal());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_gaussian);

/// Noise added to a buffer: the inlined draw loop every noise stage runs.
void bm_gaussian_fill(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    rf::awgn_source noise(1.0, 1);
    cvec buffer(n);
    for (auto _ : state) {
        noise.add_to(buffer);
        benchmark::DoNotOptimize(buffer.data());
        benchmark::ClobberMemory();
    }
    // Two draws (I and Q) per sample.
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(bm_gaussian_fill)->Arg(4096);

void bm_fft(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const dsp::fft_plan plan(n);
    cvec data(n, cf64{1.0, -0.5});
    for (auto _ : state) {
        plan.forward(data);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(bm_fft)->Arg(1024)->Arg(4096)->Arg(16384);

void bm_viterbi(benchmark::State& state)
{
    const auto bits = phy::random_bits(static_cast<std::size_t>(state.range(0)), 5);
    const auto coded = fec::convolutional_encode(bits, fec::code_rate::half);
    for (auto _ : state) {
        auto decoded = fec::viterbi_decode(coded, fec::code_rate::half);
        benchmark::DoNotOptimize(decoded.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(bm_viterbi)->Arg(512)->Arg(4096);

void bm_frame_build(benchmark::State& state)
{
    const auto payload = phy::random_bytes(256, 7);
    const phy::frame_config cfg{};
    for (auto _ : state) {
        auto symbols = phy::build_frame(payload, cfg);
        benchmark::DoNotOptimize(symbols.data());
    }
}
BENCHMARK(bm_frame_build);

void bm_frame_decode(benchmark::State& state)
{
    const auto payload = phy::random_bytes(256, 9);
    const phy::frame_config cfg{};
    const cvec symbols = phy::build_frame(payload, cfg);
    const std::span<const cf64> frame_span{symbols.data() + cfg.preamble.total_symbols(),
                                           symbols.size() - cfg.preamble.total_symbols()};
    for (auto _ : state) {
        auto result = phy::decode_frame(frame_span, cfg, 0.05);
        benchmark::DoNotOptimize(&result);
    }
}
BENCHMARK(bm_frame_decode);

void bm_full_link_frame(benchmark::State& state)
{
    core::link_simulator sim(bench::bench_scenario());
    const auto payload = phy::random_bytes(32, 11);
    for (auto _ : state) {
        auto result = sim.run_frame(payload);
        benchmark::DoNotOptimize(&result);
    }
}
BENCHMARK(bm_full_link_frame)->Unit(benchmark::kMillisecond);

/// The samples of one bench-scenario frame exchange, so the transmit and
/// receive stages can be timed alone: the AP's carrier and LO over the tag's
/// frame, and the antenna-plane signal the channel returns.
struct link_capture {
    core::system_config cfg = bench::bench_scenario();
    cvec lo;
    cvec antenna;
};

link_capture make_capture()
{
    link_capture capture;
    const auto& cfg = capture.cfg;
    const tag::backscatter_modulator modulator(cfg.modulator);
    const auto frame = modulator.modulate(phy::random_bytes(32, 11));
    ap::ap_transmitter transmitter(cfg.transmitter, 1);
    auto query = transmitter.generate(frame.gamma.size());
    const channel::backscatter_channel channel(core::make_channel_config(cfg));
    capture.antenna = channel.ap_received(query.rf, frame.gamma);
    capture.lo = std::move(query.lo);
    return capture;
}

void bm_tx_generate(benchmark::State& state)
{
    const link_capture capture = make_capture();
    ap::ap_transmitter transmitter(capture.cfg.transmitter, 1);
    for (auto _ : state) {
        auto query = transmitter.generate(capture.lo.size());
        benchmark::DoNotOptimize(query.rf.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(capture.lo.size()));
}
BENCHMARK(bm_tx_generate)->Unit(benchmark::kMicrosecond);

void bm_rx_front_end(benchmark::State& state)
{
    const link_capture capture = make_capture();
    ap::ap_receiver receiver(capture.cfg.receiver, 2);
    for (auto _ : state) {
        auto cleaned = receiver.front_end(capture.antenna, capture.lo);
        benchmark::DoNotOptimize(cleaned.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(capture.lo.size()));
}
BENCHMARK(bm_rx_front_end)->Unit(benchmark::kMicrosecond);

/// The transmitter's PA on its carrier drive: a unit LO at one drive level,
/// whose |x| wobbles over a few one-ulp values. The level is the
/// small-signal estimate of the drive for the configured output power.
void bm_pa_carrier(benchmark::State& state)
{
    const link_capture capture = make_capture();
    const auto& tx = capture.cfg.transmitter;
    const rf::power_amplifier pa(tx.pa);
    const double drive = std::sqrt(dbm_to_watt(tx.tx_power_dbm)) /
                         std::pow(10.0, tx.pa.gain_db / 20.0);
    cvec carrier(capture.lo.size());
    for (std::size_t i = 0; i < carrier.size(); ++i) carrier[i] = drive * capture.lo[i];
    cvec buffer(carrier.size());
    for (auto _ : state) {
        std::copy(carrier.begin(), carrier.end(), buffer.begin());
        pa.process(buffer);
        benchmark::DoNotOptimize(buffer.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(carrier.size()));
}
BENCHMARK(bm_pa_carrier)->Unit(benchmark::kMicrosecond);

/// The receiver's baseband after the front end, as the timing search and
/// the preamble sync see it.
cvec cleaned_capture(const link_capture& capture)
{
    ap::ap_receiver receiver(capture.cfg.receiver, 2);
    return receiver.front_end(capture.antenna, capture.lo);
}

void bm_symbol_timing(benchmark::State& state)
{
    const link_capture capture = make_capture();
    const cvec cleaned = cleaned_capture(capture);
    const std::size_t sps = capture.cfg.receiver.samples_per_symbol;
    for (auto _ : state) benchmark::DoNotOptimize(dsp::best_symbol_offset(cleaned, sps));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(cleaned.size()));
}
BENCHMARK(bm_symbol_timing)->Unit(benchmark::kMicrosecond);

/// Preamble sync on the capture's symbol stream: the correlation, its peak
/// search and the gain estimate.
void bm_sync_correlate(benchmark::State& state)
{
    const link_capture capture = make_capture();
    const auto& rx = capture.cfg.receiver;
    const cvec cleaned = cleaned_capture(capture);
    const cvec symbols = dsp::integrate_and_dump(
        cleaned, rx.samples_per_symbol, dsp::best_symbol_offset(cleaned, rx.samples_per_symbol));
    for (auto _ : state) {
        auto sync = phy::detect_preamble(symbols, rx.frame.preamble, rx.min_sync_quality);
        benchmark::DoNotOptimize(&sync);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(symbols.size()));
}
BENCHMARK(bm_sync_correlate)->Unit(benchmark::kMicrosecond);

// The observability overhead contract: with no registry attached and no
// trace session, the per-frame cost is a couple of null/flag checks —
// compare against bm_full_link_frame (< 3% is the acceptance bar).
void bm_full_link_frame_with_metrics(benchmark::State& state)
{
    core::link_simulator sim(bench::bench_scenario());
    obs::metrics_registry metrics;
    sim.attach_metrics(&metrics);
    const auto payload = phy::random_bytes(32, 11);
    for (auto _ : state) {
        auto result = sim.run_frame(payload);
        benchmark::DoNotOptimize(&result);
    }
}
BENCHMARK(bm_full_link_frame_with_metrics)->Unit(benchmark::kMillisecond);

void bm_obs_counter_add(benchmark::State& state)
{
    obs::metrics_registry metrics;
    auto& counter = metrics.get_counter("bench/counter");
    for (auto _ : state) {
        counter.add();
        benchmark::DoNotOptimize(&counter);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_obs_counter_add);

void bm_obs_histogram_observe(benchmark::State& state)
{
    obs::metrics_registry metrics;
    auto& histogram = metrics.get_histogram("bench/snr_db", obs::snr_bounds_db());
    double value = -12.0;
    for (auto _ : state) {
        histogram.observe(value);
        value += 0.37;
        if (value > 45.0) value = -12.0;
        benchmark::DoNotOptimize(&histogram);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_obs_histogram_observe);

void bm_obs_scoped_timer_disabled(benchmark::State& state)
{
    // nullptr registry: the timer must skip both clock reads.
    for (auto _ : state) {
        MMTAG_SCOPED_TIMER(static_cast<obs::metrics_registry*>(nullptr), "time/bench");
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_obs_scoped_timer_disabled);

void bm_obs_trace_emit_inactive(benchmark::State& state)
{
    // No session: one relaxed atomic load per emit.
    for (auto _ : state) {
        obs::trace_instant("bench.instant", "bench");
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_obs_trace_emit_inactive);

} // namespace

BENCHMARK_MAIN();
