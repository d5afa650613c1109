// bench_util flag parsing: the strict numeric contract. strtoull would
// happily wrap "--jobs -1" to 2^64-1 and truncate "--seed 1e3" to 1, and a
// misspelt flag would silently run the default bench; the parser must
// instead print one error line and exit(2).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "../bench/bench_util.hpp"
#include "mmtag/net/soak_harness.hpp"
#include "mmtag/scale/des_engine.hpp"

namespace mmtag::bench {
namespace {

/// Runs bench_options::parse over a brace-list of flags (argv[0] added),
/// with `extras` as the bench's declared integer flags.
bench_options parse_flags(std::vector<std::string> flags,
                          std::map<std::string, std::uint64_t> extras = {})
{
    flags.insert(flags.begin(), "bench_test");
    std::vector<char*> argv;
    argv.reserve(flags.size());
    for (auto& flag : flags) argv.push_back(flag.data());
    return bench_options::parse(static_cast<int>(argv.size()), argv.data(),
                                std::move(extras));
}

TEST(bench_options, parses_well_formed_flags)
{
    const auto opts = parse_flags({"--csv", "--jobs", "4", "--seed", "99", "--json",
                                   "out.json", "--trials", "250"},
                                  {{"trials", 1}, {"absent", 7}});
    EXPECT_TRUE(opts.csv);
    EXPECT_EQ(opts.jobs, 4u);
    EXPECT_EQ(opts.seed, 99u);
    EXPECT_EQ(opts.json_path, "out.json");
    EXPECT_EQ(opts.extra("trials"), 250u);
    EXPECT_EQ(opts.extra("absent"), 7u);

    const auto defaults = parse_flags({});
    EXPECT_FALSE(defaults.csv);
    EXPECT_EQ(defaults.jobs, 0u);
    EXPECT_EQ(defaults.seed, 1u);
    EXPECT_EQ(defaults.json_path, "");
}

TEST(bench_options_death, negative_jobs_exits_with_code_2)
{
    EXPECT_EXIT(parse_flags({"--jobs", "-1"}), testing::ExitedWithCode(2),
                "--jobs expects a non-negative integer");
}

TEST(bench_options_death, scientific_notation_seed_exits)
{
    EXPECT_EXIT(parse_flags({"--seed", "1e3"}), testing::ExitedWithCode(2),
                "--seed expects a non-negative integer");
}

TEST(bench_options_death, trailing_junk_in_extra_u64_exits)
{
    EXPECT_EXIT(parse_flags({"--trials", "12x"}, {{"trials", 1}}),
                testing::ExitedWithCode(2), "--trials expects a non-negative integer");
}

TEST(bench_options_death, overflowing_u64_exits)
{
    EXPECT_EXIT(parse_flags({"--seed", "99999999999999999999999999"}),
                testing::ExitedWithCode(2),
                "--seed expects a non-negative integer");
}

TEST(bench_options_death, unknown_flag_exits_before_any_output)
{
    // bench_r09 reads no extras: `--jbos 4` is a typo, not a setting. Stdout
    // is folded into stderr so the anchored pattern also proves nothing
    // reached stdout.
    EXPECT_EXIT(
        {
            dup2(fileno(stderr), fileno(stdout));
            (void)parse_flags({"--csv", "--jbos", "4"});
        },
        testing::ExitedWithCode(2), "^error: unknown option --jbos\n$");
    EXPECT_EXIT((void)parse_flags({"--trials", "3"}, {{"aps", 4}}),
                testing::ExitedWithCode(2), "unknown option --trials");
    EXPECT_EXIT((void)parse_flags({"--csv", "yes"}), testing::ExitedWithCode(2),
                "--csv takes no value");
}

TEST(bench_options_death, zero_soak_or_scale_extra_exits_before_any_output)
{
    // bench_r22 `--trials 0` / `--rounds 0` and bench_r23 `--aps 0` build
    // configs the library rejects; the bench validates them before its
    // banner and exits(2) with the validator's message instead of aborting
    // inside run_soak/run_scale. Stdout is folded into stderr as above.
    const auto expect_rejected = [](auto check, const char* pattern) {
        EXPECT_EXIT(
            {
                dup2(fileno(stderr), fileno(stdout));
                validate_or_exit(check);
            },
            testing::ExitedWithCode(2), pattern);
    };
    net::soak_config soak;
    soak.trials = 0;
    expect_rejected([&] { net::validate(soak); }, "^error: soak: trials must be >= 1\n$");
    soak.trials = 1;
    soak.rounds = 0;
    expect_rejected([&] { net::validate(soak); }, "^error: soak: rounds must be >= 1\n$");
    scale::scale_config scale_cfg;
    scale_cfg.topology.ap_count = 0;
    expect_rejected([&] { scale::validate(scale_cfg); },
                    "^error: scale: APs must be >= 1\n$");

    soak.rounds = 1;
    scale_cfg.topology.ap_count = 1;
    validate_or_exit([&] { net::validate(soak); });
    validate_or_exit([&] { scale::validate(scale_cfg); });
}

TEST(bench_options_death, missing_value_exits)
{
    EXPECT_EXIT(parse_flags({"--json"}), testing::ExitedWithCode(2),
                "--json needs a value");
}

TEST(bench_options_death, unexpected_positional_exits)
{
    EXPECT_EXIT(parse_flags({"stray"}), testing::ExitedWithCode(2),
                "unexpected argument 'stray'");
}

} // namespace
} // namespace mmtag::bench
