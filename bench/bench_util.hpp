// Shared plumbing for the experiment harnesses: the common flags
// (--csv/--json/--jobs/--seed), aligned-table/CSV printing, and the standard
// bench scenario (a faster-sampling variant of the default system so sweeps
// finish in seconds).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "mmtag/cli/options.hpp"
#include "mmtag/core/config.hpp"

namespace mmtag::bench {

/// The flags every experiment binary accepts, read through
/// cli::option_set, plus the integer extras a bench declares.
struct bench_options {
    bool csv = false;        ///< machine-readable table on stdout
    std::string json_path;   ///< --json PATH; empty = bench/out/BENCH_<id>.json
    std::size_t jobs = 0;    ///< --jobs N parallel executors; 0 = auto
    std::uint64_t seed = 1;  ///< --seed S: base of the per-trial seeding scheme

    /// Parses argv. `extras` maps the bench's own integer flags
    /// (`--fault-seed`, ...) to their defaults. A malformed value, a stray
    /// argument or a flag the bench does not read prints one error line and
    /// exits(2) before the bench prints anything.
    static bench_options parse(int argc, char** argv,
                               std::map<std::string, std::uint64_t> extras = {})
    {
        try {
            const auto flags = cli::option_set::parse_flags(argc, argv);
            bench_options opts;
            opts.csv = flags.get_flag("csv");
            opts.json_path = flags.get_value("json", "");
            opts.jobs = static_cast<std::size_t>(flags.get_uint("jobs", 0));
            opts.seed = flags.get_uint("seed", 1);
            for (auto& [key, value] : extras) value = flags.get_uint(key, value);
            const auto leftover = flags.unconsumed();
            if (!leftover.empty()) {
                throw std::invalid_argument("unknown option --" + leftover.front());
            }
            opts.extras_ = std::move(extras);
            return opts;
        } catch (const std::invalid_argument& error) {
            std::fprintf(stderr, "error: %s\n", error.what());
            std::exit(2);
        }
    }

    /// The value of an extra declared to parse().
    [[nodiscard]] std::uint64_t extra(const std::string& key) const
    {
        return extras_.at(key);
    }

private:
    std::map<std::string, std::uint64_t> extras_;
};

/// Simple column-aligned table with an optional CSV mode.
class table {
public:
    table(std::vector<std::string> headers, bool csv)
        : headers_(std::move(headers)), csv_(csv)
    {
    }

    void add_row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

    void print() const
    {
        if (csv_) {
            print_delimited(",");
            return;
        }
        std::vector<std::size_t> widths(headers_.size());
        for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
        for (const auto& row : rows_) {
            for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
                widths[c] = std::max(widths[c], row[c].size());
            }
        }
        print_row(headers_, widths);
        std::string rule;
        for (std::size_t c = 0; c < widths.size(); ++c) {
            rule += std::string(widths[c], '-');
            if (c + 1 < widths.size()) rule += "--";
        }
        std::printf("%s\n", rule.c_str());
        for (const auto& row : rows_) print_row(row, widths);
    }

private:
    void print_delimited(const char* sep) const
    {
        auto emit = [&](const std::vector<std::string>& row) {
            for (std::size_t c = 0; c < row.size(); ++c) {
                std::printf("%s%s", row[c].c_str(), c + 1 < row.size() ? sep : "");
            }
            std::printf("\n");
        };
        emit(headers_);
        for (const auto& row : rows_) emit(row);
    }

    void print_row(const std::vector<std::string>& row,
                   const std::vector<std::size_t>& widths) const
    {
        for (std::size_t c = 0; c < row.size(); ++c) {
            std::printf("%-*s%s", static_cast<int>(widths[c]), row[c].c_str(),
                        c + 1 < row.size() ? "  " : "");
        }
        std::printf("\n");
    }

    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
    bool csv_;
};

inline std::string fmt(const char* format, double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, format, value);
    return buffer;
}

/// The bench scenario: the library's fast (50 MS/s) preset.
inline core::system_config bench_scenario()
{
    return core::fast_scenario();
}

/// Runs `check` — a library validator such as net::validate or
/// scale::validate over a config the bench built from its flags. A rejected
/// config prints one error line and exits(2) before the bench prints
/// anything, like a malformed flag.
template <typename Check>
void validate_or_exit(Check&& check)
{
    try {
        check();
    } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        std::exit(2);
    }
}

inline void banner(const char* id, const char* title, bool csv)
{
    if (csv) return;
    std::printf("\n=== %s: %s ===\n\n", id, title);
}

} // namespace mmtag::bench
