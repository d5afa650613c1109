// Counter-based per-trial seeding for the Monte-Carlo runtime.
//
// Every trial's entire random state derives from
//     trial_seed(base_seed, sweep_point, trial_index)
// so a trial's result depends only on *which* trial it is, never on which
// worker ran it or in what order — the property that makes sweep results
// bit-identical for any --jobs value. The scheme is part of the recorded
// BENCH_*.json contract: changing these constants invalidates every stored
// baseline, so treat them as frozen.
#pragma once

#include <cstdint>

namespace mmtag::runtime {

/// SplitMix64 finalizer: a bijective 64-bit avalanche mix.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits of a random word (as an
/// int64_t, whose conversion is one instruction).
[[nodiscard]] constexpr double unit_of(std::uint64_t bits)
{
    return static_cast<double>(static_cast<std::int64_t>(bits >> 11)) * 0x1.0p-53;
}

/// The per-trial seed: hash(base_seed, sweep_point, trial). Successive
/// counters land in unrelated parts of the 64-bit space, so neighbouring
/// trials (and neighbouring sweep points) get decorrelated RNG streams.
[[nodiscard]] constexpr std::uint64_t trial_seed(std::uint64_t base_seed,
                                                 std::uint64_t sweep_point,
                                                 std::uint64_t trial)
{
    return mix64(mix64(mix64(base_seed) ^ sweep_point) ^ trial);
}

/// Derives an independent substream from a trial seed (payload draw vs
/// fault schedule vs placement, ...) without risking overlap.
[[nodiscard]] constexpr std::uint64_t substream(std::uint64_t seed, std::uint64_t stream)
{
    return mix64(seed ^ (0xa0761d6478bd642fULL + stream));
}

} // namespace mmtag::runtime
