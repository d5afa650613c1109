// Byte <-> bit packing helpers (MSB-first throughout the PHY).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace mmtag::phy {

/// Unpacks bytes into bits, MSB first.
[[nodiscard]] std::vector<std::uint8_t> bytes_to_bits(std::span<const std::uint8_t> bytes);

/// Packs bits (0/1) into bytes, MSB first; length must be a multiple of 8.
[[nodiscard]] std::vector<std::uint8_t> bits_to_bytes(std::span<const std::uint8_t> bits);

/// String <-> byte conveniences for examples and tests.
[[nodiscard]] std::vector<std::uint8_t> string_to_bytes(const std::string& text);
[[nodiscard]] std::string bytes_to_string(std::span<const std::uint8_t> bytes);

/// Hamming distance between two equal-length bit vectors.
[[nodiscard]] std::size_t hamming_distance(std::span<const std::uint8_t> a,
                                           std::span<const std::uint8_t> b);

/// Random payload generator for BER runs (seeded, deterministic): the top
/// byte or bit of each runtime::gaussian_source(seed) word.
[[nodiscard]] std::vector<std::uint8_t> random_bytes(std::size_t count, std::uint64_t seed);
[[nodiscard]] std::vector<std::uint8_t> random_bits(std::size_t count, std::uint64_t seed);

} // namespace mmtag::phy
