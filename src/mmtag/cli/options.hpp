// Command-line option parsing for the mmtag_sim tool. Kept in the library
// (rather than the tool's main.cpp) so parsing and validation are unit
// tested like everything else.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mmtag/phy/frame.hpp"

namespace mmtag::cli {

/// Tokenized command line: an optional subcommand plus --key value pairs.
///
/// Accepted forms: `--key value`, `--key=value` and a bare `--key`, which
/// reads as the value "true". Unknown keys are collected so callers can
/// reject them with a precise message.
class option_set {
public:
    /// Parses argv[1..]; argv[1] must be the subcommand (no leading dashes).
    /// Throws std::invalid_argument on malformed input.
    static option_set parse(int argc, const char* const* argv);

    /// Parses argv[1..] as options only (no subcommand), as the bench
    /// binaries take them. Throws std::invalid_argument on malformed input.
    static option_set parse_flags(int argc, const char* const* argv);

    [[nodiscard]] const std::string& command() const { return command_; }

    [[nodiscard]] bool has(const std::string& key) const;

    /// Typed getters: return the default when absent, throw
    /// std::invalid_argument when present but unparseable/out of range.
    /// get_double rejects non-finite values ("nan", "inf").
    [[nodiscard]] double get_double(const std::string& key, double fallback) const;
    /// Strict non-negative integer: rejects a leading sign (stoull would
    /// silently wrap "-1" to 2^64-1), scientific notation ("1e3"), trailing
    /// junk, and overflow — the counts (--jobs, --trials, --seed) where a
    /// wrapped or truncated value would silently run the wrong experiment.
    [[nodiscard]] std::uint64_t get_uint(const std::string& key,
                                         std::uint64_t fallback) const;
    [[nodiscard]] std::string get_string(const std::string& key,
                                         const std::string& fallback) const;
    /// get_string for options that need a value (a path): a bare `--key`
    /// throws "--key needs a value".
    [[nodiscard]] std::string get_value(const std::string& key,
                                        const std::string& fallback) const;
    /// An on/off switch: true when given bare, false when absent; a value
    /// (`--key 5`) throws.
    [[nodiscard]] bool get_flag(const std::string& key) const;

    /// Keys that were supplied but never consumed by a getter; commands call
    /// this last to reject typos.
    [[nodiscard]] std::vector<std::string> unconsumed() const;

private:
    std::string command_;
    std::map<std::string, std::string> values_;
    mutable std::map<std::string, bool> consumed_;
};

/// Parses a modulation name ("bpsk", "qpsk", "8psk", "16psk").
[[nodiscard]] phy::modulation parse_modulation(const std::string& name);

/// Parses a FEC name ("none", "1/2", "2/3", "3/4").
[[nodiscard]] phy::fec_mode parse_fec(const std::string& name);

} // namespace mmtag::cli
