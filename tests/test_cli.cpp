#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "mmtag/cli/commands.hpp"
#include "mmtag/cli/options.hpp"

#include "json_checker.hpp"

namespace mmtag::cli {
namespace {

option_set parse(std::initializer_list<const char*> args)
{
    std::vector<const char*> argv{"mmtag_sim"};
    argv.insert(argv.end(), args.begin(), args.end());
    return option_set::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(options, parses_subcommand_and_pairs)
{
    const auto opts = parse({"link", "--distance", "3.5", "--frames", "7"});
    EXPECT_EQ(opts.command(), "link");
    EXPECT_DOUBLE_EQ(opts.get_double("distance", 0.0), 3.5);
    EXPECT_EQ(opts.get_uint("frames", 0), 7u);
}

TEST(options, equals_form)
{
    const auto opts = parse({"budget", "--tx-power=30", "--points=5"});
    EXPECT_DOUBLE_EQ(opts.get_double("tx-power", 0.0), 30.0);
    EXPECT_EQ(opts.get_uint("points", 0), 5u);
}

TEST(options, defaults_when_absent)
{
    const auto opts = parse({"link"});
    EXPECT_DOUBLE_EQ(opts.get_double("distance", 2.0), 2.0);
    EXPECT_EQ(opts.get_string("scheme", "qpsk"), "qpsk");
    EXPECT_EQ(opts.get_uint("frames", 40), 40u);
}

TEST(options, bare_flag)
{
    // A bare key reads as the value "true" (how `--metrics` without a file
    // is told apart from `--metrics=FILE`).
    const auto opts = parse({"link", "--metrics"});
    EXPECT_EQ(opts.get_string("metrics", ""), "true");
}

TEST(options, rejects_malformed_input)
{
    EXPECT_THROW(parse({"--no-subcommand"}), std::invalid_argument);
    EXPECT_THROW(parse({"link", "distance", "3"}), std::invalid_argument);
    EXPECT_THROW(parse({"link", "--d", "1", "--d", "2"}), std::invalid_argument);
    const char* argv[] = {"mmtag_sim"};
    EXPECT_THROW(option_set::parse(1, argv), std::invalid_argument);
}

TEST(options, rejects_bad_numbers)
{
    const auto opts = parse({"link", "--distance", "abc", "--frames", "2.5"});
    EXPECT_THROW((void)opts.get_double("distance", 0.0), std::invalid_argument);
    EXPECT_THROW((void)opts.get_uint("frames", 0), std::invalid_argument);

    // Non-finite values parse with stod but are never a valid setting.
    const auto non_finite = parse({"link", "--a=nan", "--b=inf", "--c=-inf", "--d=1e999",
                                   "--e=3.x", "--f=", "--g=-2.5e-3"});
    for (const char* key : {"a", "b", "c", "d", "e", "f"}) {
        EXPECT_THROW((void)non_finite.get_double(key, 0.0), std::invalid_argument) << key;
    }
    EXPECT_DOUBLE_EQ(non_finite.get_double("g", 0.0), -2.5e-3);
}

TEST(options, tracks_unconsumed_keys)
{
    const auto opts = parse({"link", "--distance", "2", "--typo", "1"});
    (void)opts.get_double("distance", 0.0);
    const auto leftover = opts.unconsumed();
    ASSERT_EQ(leftover.size(), 1u);
    EXPECT_EQ(leftover.front(), "typo");
}

TEST(options, modulation_and_fec_names)
{
    EXPECT_EQ(parse_modulation("bpsk"), phy::modulation::bpsk);
    EXPECT_EQ(parse_modulation("16psk"), phy::modulation::psk16);
    EXPECT_THROW((void)parse_modulation("qam64"), std::invalid_argument);
    EXPECT_EQ(parse_fec("none"), phy::fec_mode::uncoded);
    EXPECT_EQ(parse_fec("3/4"), phy::fec_mode::conv_three_quarters);
    EXPECT_THROW((void)parse_fec("7/8"), std::invalid_argument);
}

TEST(commands, dispatch_help_and_unknown)
{
    const char* help[] = {"mmtag_sim", "help"};
    EXPECT_EQ(dispatch(2, help), 0);
    const char* unknown[] = {"mmtag_sim", "frobnicate"};
    EXPECT_EQ(dispatch(2, unknown), 1);
    const char* missing[] = {"mmtag_sim"};
    EXPECT_EQ(dispatch(1, missing), 1);
}

TEST(commands, link_runs_and_rejects_typos)
{
    const char* ok[] = {"mmtag_sim", "link", "--frames", "2", "--payload", "16"};
    EXPECT_EQ(dispatch(6, ok), 0);
    const char* typo[] = {"mmtag_sim", "link", "--distnace", "2"};
    EXPECT_EQ(dispatch(4, typo), 1);
}

TEST(commands, budget_runs)
{
    const char* argv[] = {"mmtag_sim", "budget", "--points", "3"};
    EXPECT_EQ(dispatch(4, argv), 0);
}

TEST(commands, inventory_runs)
{
    const char* argv[] = {"mmtag_sim", "inventory", "--tags", "10", "--seeds", "3"};
    EXPECT_EQ(dispatch(6, argv), 0);
}

TEST(commands, network_runs)
{
    const char* argv[] = {"mmtag_sim", "network", "--tags", "5"};
    EXPECT_EQ(dispatch(4, argv), 0);
}

TEST(commands, link_presets)
{
    const char* warehouse[] = {"mmtag_sim", "link", "--preset", "warehouse",
                               "--frames", "2"};
    EXPECT_EQ(dispatch(6, warehouse), 0);
    const char* wearable[] = {"mmtag_sim", "link", "--preset", "wearable",
                              "--frames", "2"};
    EXPECT_EQ(dispatch(6, wearable), 0);
    const char* bogus[] = {"mmtag_sim", "link", "--preset", "garage"};
    EXPECT_EQ(dispatch(4, bogus), 1);
}

TEST(commands, sweep_runs_and_rejects_typos)
{
    const char* ok[] = {"mmtag_sim", "sweep", "--points", "2", "--trials", "2",
                        "--frames", "1", "--jobs", "2"};
    EXPECT_EQ(dispatch(10, ok), 0);
    const char* typo[] = {"mmtag_sim", "sweep", "--trails", "2"};
    EXPECT_EQ(dispatch(4, typo), 1);
    const char* zero[] = {"mmtag_sim", "sweep", "--points", "0"};
    EXPECT_EQ(dispatch(4, zero), 1);
}

TEST(commands, faults_multi_trial_runs)
{
    const char* argv[] = {"mmtag_sim", "faults", "--frames", "20", "--trials", "2",
                          "--jobs", "2"};
    const int code = dispatch(8, argv);
    EXPECT_TRUE(code == 0 || code == 2) << code;
}

TEST(options, get_uint_strict_parsing)
{
    const auto good = parse({"sweep", "--trials", "250", "--jobs=0"});
    EXPECT_EQ(good.get_uint("trials", 1), 250u);
    EXPECT_EQ(good.get_uint("jobs", 4), 0u);
    EXPECT_EQ(good.get_uint("absent", 7), 7u);

    // Values stoull would silently accept as the wrong number.
    const auto bad = parse({"sweep", "--jobs=-1", "--trials=1e3", "--seed=12x",
                            "--points=+5", "--frames="});
    EXPECT_THROW((void)bad.get_uint("jobs", 0), std::invalid_argument);
    EXPECT_THROW((void)bad.get_uint("trials", 0), std::invalid_argument);
    EXPECT_THROW((void)bad.get_uint("seed", 0), std::invalid_argument);
    EXPECT_THROW((void)bad.get_uint("points", 0), std::invalid_argument);
    EXPECT_THROW((void)bad.get_uint("frames", 0), std::invalid_argument);

    const auto overflow = parse({"sweep", "--seed=99999999999999999999999999"});
    EXPECT_THROW((void)overflow.get_uint("seed", 0), std::invalid_argument);
}

TEST(commands, rejects_malformed_counts_with_exit_1)
{
    const char* neg[] = {"mmtag_sim", "sweep", "--jobs=-1"};
    EXPECT_EQ(dispatch(3, neg), 1);
    const char* sci[] = {"mmtag_sim", "sweep", "--trials=1e3"};
    EXPECT_EQ(dispatch(3, sci), 1);
    const char* junk[] = {"mmtag_sim", "faults", "--seed=12x"};
    EXPECT_EQ(dispatch(3, junk), 1);
    const char* frames[] = {"mmtag_sim", "link", "--frames=-5"};
    EXPECT_EQ(dispatch(3, frames), 1);
}

TEST(commands, sweep_emits_metrics_trace_and_v2_results)
{
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "mmtag_cli_obs_test";
    fs::create_directories(dir);
    const std::string metrics_arg = "--metrics=" + (dir / "metrics.json").string();
    const std::string trace_arg = "--trace=" + (dir / "trace.json").string();
    const std::string json_arg = "--json=" + (dir / "result.json").string();
    const char* argv[] = {"mmtag_sim", "sweep",  "--points",         "2",
                          "--trials",  "2",      "--frames",         "1",
                          "--jobs",    "2",      metrics_arg.c_str(), trace_arg.c_str(),
                          json_arg.c_str()};
    EXPECT_EQ(dispatch(13, argv), 0);

    auto read_file = [](const fs::path& path) {
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    };

    const auto metrics_text = read_file(dir / "metrics.json");
    EXPECT_TRUE(testutil::json_checker(metrics_text).valid()) << metrics_text;
    EXPECT_NE(metrics_text.find("link/frames"), std::string::npos);
    // Standalone metrics files hold the deterministic view only.
    EXPECT_EQ(metrics_text.find("time/"), std::string::npos);

    const auto trace_text = read_file(dir / "trace.json");
    EXPECT_TRUE(testutil::json_checker(trace_text).valid());
    EXPECT_NE(trace_text.find("traceEvents"), std::string::npos);
    EXPECT_NE(trace_text.find("sweep.trial"), std::string::npos);
    EXPECT_NE(trace_text.find("link.frame"), std::string::npos);

    const auto result_text = read_file(dir / "result.json");
    EXPECT_TRUE(testutil::json_checker(result_text).valid());
    EXPECT_NE(result_text.find("mmtag.bench.result/2"), std::string::npos);
    EXPECT_NE(result_text.find("\"metrics\""), std::string::npos);
    EXPECT_EQ(result_text.find("\"profile\""), std::string::npos);
    fs::remove_all(dir);
}

TEST(commands, sweep_without_metrics_keeps_v1_schema)
{
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "mmtag_cli_v1_test";
    fs::create_directories(dir);
    const std::string json_arg = "--json=" + (dir / "result.json").string();
    const char* argv[] = {"mmtag_sim", "sweep", "--points", "2", "--trials", "1",
                          "--frames", "1", json_arg.c_str()};
    EXPECT_EQ(dispatch(9, argv), 0);
    std::ifstream in(dir / "result.json");
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto text = buffer.str();
    EXPECT_NE(text.find("mmtag.bench.result/1"), std::string::npos);
    // Per-point "metrics" objects are part of /1; the sweep-wide registry
    // snapshot ("counters"/"histograms" sections) must not be.
    EXPECT_EQ(text.find("\"counters\""), std::string::npos);
    fs::remove_all(dir);
}

TEST(commands, faults_accepts_metrics_and_trace)
{
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "mmtag_cli_faults_obs";
    fs::create_directories(dir);
    const std::string metrics_arg = "--metrics=" + (dir / "metrics.json").string();
    const std::string trace_arg = "--trace=" + (dir / "trace.json").string();
    const char* argv[] = {"mmtag_sim", "faults", "--frames", "20", "--trials", "2",
                          "--jobs", "2", metrics_arg.c_str(), trace_arg.c_str()};
    const int code = dispatch(10, argv);
    EXPECT_TRUE(code == 0 || code == 2) << code;

    std::ifstream in(dir / "metrics.json");
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto metrics_text = buffer.str();
    EXPECT_TRUE(testutil::json_checker(metrics_text).valid()) << metrics_text;
    EXPECT_NE(metrics_text.find("link/frames"), std::string::npos);
    EXPECT_NE(metrics_text.find("supervisor/"), std::string::npos);
    EXPECT_TRUE(fs::exists(dir / "trace.json"));
    fs::remove_all(dir);
}

TEST(commands, soak_runs_and_reports_via_exit_code)
{
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "mmtag_cli_soak_test";
    fs::create_directories(dir);
    const std::string json_arg = "--json=" + (dir / "soak.json").string();
    const std::string metrics_arg = "--metrics=" + (dir / "metrics.json").string();
    const char* argv[] = {"mmtag_sim", "soak",     "--tags",   "4",
                          "--faulted", "1",        "--rounds", "36",
                          "--trials",  "1",        "--jobs",   "2",
                          json_arg.c_str(),        metrics_arg.c_str()};
    // 0 = every invariant held, 3 = one tripped; both mean the harness ran.
    const int code = dispatch(14, argv);
    EXPECT_TRUE(code == 0 || code == 3) << code;

    std::ifstream in(dir / "soak.json");
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto text = buffer.str();
    EXPECT_TRUE(testutil::json_checker(text).valid()) << text;
    EXPECT_NE(text.find("mmtag.soak.result/1"), std::string::npos);
    EXPECT_NE(text.find("\"invariants\""), std::string::npos);

    std::ifstream metrics_in(dir / "metrics.json");
    std::stringstream metrics_buffer;
    metrics_buffer << metrics_in.rdbuf();
    const auto metrics_text = metrics_buffer.str();
    EXPECT_TRUE(testutil::json_checker(metrics_text).valid()) << metrics_text;
    EXPECT_NE(metrics_text.find("net/rounds"), std::string::npos);
    fs::remove_all(dir);
}

TEST(commands, one_round_soak_reaches_its_invariant_verdict)
{
    // One round measures a fault horizon shorter than the shared
    // interferer's start; the soak must still run to its verdict.
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "mmtag_cli_short_soak_test";
    fs::create_directories(dir);
    const std::string json_arg = "--json=" + (dir / "soak.json").string();
    const char* argv[] = {"mmtag_sim", "soak",     "--tags",   "4", "--faulted",
                          "1",         "--trials", "1",        "--rounds", "1",
                          json_arg.c_str()};
    const int code = dispatch(11, argv);
    EXPECT_TRUE(code == 0 || code == 3) << code;
    std::ifstream in(dir / "soak.json");
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_NE(buffer.str().find("\"invariants\""), std::string::npos);
    fs::remove_all(dir);
}

TEST(commands, soak_rejects_bad_arguments_with_exit_1)
{
    const char* typo[] = {"mmtag_sim", "soak", "--tgs", "4"};
    EXPECT_EQ(dispatch(4, typo), 1);
    const char* zero[] = {"mmtag_sim", "soak", "--rounds", "0"};
    EXPECT_EQ(dispatch(4, zero), 1);
    const char* lopsided[] = {"mmtag_sim", "soak", "--tags", "2", "--faulted", "3"};
    EXPECT_EQ(dispatch(6, lopsided), 1);
}

/// Names of the cached phy tables the scale command writes.
std::set<std::string> phy_tables()
{
    namespace fs = std::filesystem;
    std::set<std::string> names;
    const fs::path cache = "bench/out";
    if (!fs::is_directory(cache)) return names;
    for (const auto& entry : fs::directory_iterator(cache)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("phy_table_", 0) == 0) names.insert(name);
    }
    return names;
}

/// Runs each command line and expects exit 1 with nothing on stdout and no
/// phy table calibrated (and cached) along the way.
void expect_rejected_before_any_output(const std::vector<std::vector<const char*>>& cases)
{
    const auto before = phy_tables();
    for (const auto& args : cases) {
        std::vector<const char*> argv{"mmtag_sim"};
        argv.insert(argv.end(), args.begin(), args.end());
        std::string line;
        for (const char* arg : args) line += std::string(arg) + " ";
        ::testing::internal::CaptureStdout();
        const int code = dispatch(static_cast<int>(argv.size()), argv.data());
        const std::string out = ::testing::internal::GetCapturedStdout();
        EXPECT_EQ(code, 1) << line;
        EXPECT_EQ(out, "") << line;
    }
    EXPECT_EQ(phy_tables(), before);
}

TEST(commands, scale_and_soak_reject_bad_input_before_any_output)
{
    // Out-of-range input must fail with exit 1 before the banner prints and
    // before the scale command calibrates (and caches) a phy table.
    expect_rejected_before_any_output({
        {"scale", "--tags", "10", "--faulted", "50"},
        {"scale", "--tags", "10", "--payload", "0"},
        {"scale", "--tags", "0"},
        {"scale", "--tags", "10", "--aps", "0"},
        {"scale", "--tags", "10", "--trials", "0"},
        {"soak", "--tags", "4", "--faulted", "9"},
        {"soak", "--tags", "4", "--faulted", "1", "--payload", "0"},
        {"soak", "--tags", "0", "--faulted", "0"},
        {"soak", "--tags", "4", "--faulted", "1", "--trials", "0"},
    });
}

TEST(commands, zero_frames_is_rejected_before_any_output)
{
    // --frames 0, --payload 0 and --tags 0 ask for no work, and a config
    // the run would reject (a sweep point or fault link at distance <= 0, an
    // empty or reversed budget sweep, an array with no elements) must be
    // caught by the parse step: no banner, no results, no round run, no phy
    // table calibrated.
    expect_rejected_before_any_output({
        {"scale", "--tags", "20", "--aps", "1", "--frames", "0"},
        {"link", "--frames", "0"},
        {"link", "--payload", "0"},
        {"sweep", "--payload", "0"},
        {"faults", "--payload", "0"},
        {"inventory", "--tags", "0"},
        {"faults", "--distance", "0"},
        {"sweep", "--start", "-1", "--stop", "0", "--points", "2"},
        {"budget", "--points", "0"},
        {"budget", "--elements", "0"},
        {"budget", "--start", "5", "--stop", "1"},
    });
}

TEST(commands, rejects_unbounded_numbers_before_any_output)
{
    // Non-finite values and the faults caps (--fault-rate <= 10000 events/s,
    // --mean-duration <= the 120 ms schedule horizon); path options given
    // bare. The over-cap values stay small enough to run if a check broke.
    expect_rejected_before_any_output({
        {"link", "--distance", "nan"},
        {"link", "--distance", "inf"},
        {"faults", "--fault-rate", "nan"},
        {"faults", "--fault-rate", "20000", "--frames", "2"},
        {"faults", "--mean-duration", "1e308", "--frames", "2"},
        {"faults", "--mean-duration", "121", "--frames", "2"},
        {"soak", "--min-range", "nan"},
        {"soak", "--tags", "4", "--faulted", "1", "--json"},
        {"sweep", "--points", "1", "--frames", "1", "--trace"},
    });
}

TEST(commands, observability_files_are_valid_json)
{
    // Every Monte-Carlo command writes --metrics=FILE and --trace=FILE (and
    // --json where it has one) through the same harness. Runs in a temporary
    // working directory so scale's phy table cache stays out of bench/out.
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "mmtag_cli_obs_files";
    fs::create_directories(dir);
    const auto cwd = fs::current_path();
    fs::current_path(dir);
    struct obs_case {
        std::vector<const char*> args;
        bool json;
        const char* metric; ///< a counter the snapshot must hold
    };
    const std::vector<obs_case> cases = {
        {{"faults", "--frames", "20", "--jobs", "2"}, false, "link/frames"},
        {{"soak", "--tags", "4", "--faulted", "1", "--trials", "1", "--jobs", "2"}, true,
         "net/rounds"},
        {{"scale", "--tags", "20", "--aps", "1", "--frames", "5", "--jobs", "0"}, true,
         "scale/"},
        {{"sweep", "--points", "2", "--trials", "1", "--frames", "1", "--jobs", "2"}, true,
         "link/frames"},
    };
    auto read_file = [](const fs::path& path) {
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    };
    for (const auto& test : cases) {
        const std::string name = test.args.front();
        const std::string metrics_arg = "--metrics=" + (dir / (name + "_m.json")).string();
        const std::string trace_arg = "--trace=" + (dir / (name + "_t.json")).string();
        const std::string json_arg = "--json=" + (dir / (name + "_r.json")).string();
        std::vector<const char*> argv{"mmtag_sim"};
        argv.insert(argv.end(), test.args.begin(), test.args.end());
        argv.push_back(metrics_arg.c_str());
        argv.push_back(trace_arg.c_str());
        if (test.json) argv.push_back(json_arg.c_str());
        const int code = dispatch(static_cast<int>(argv.size()), argv.data());
        EXPECT_NE(code, 1) << name;

        const auto metrics_text = read_file(dir / (name + "_m.json"));
        EXPECT_TRUE(testutil::json_checker(metrics_text).valid()) << name << metrics_text;
        EXPECT_NE(metrics_text.find(test.metric), std::string::npos) << name;
        const auto trace_text = read_file(dir / (name + "_t.json"));
        EXPECT_TRUE(testutil::json_checker(trace_text).valid()) << name;
        EXPECT_NE(trace_text.find("traceEvents"), std::string::npos) << name;
        if (test.json) {
            const auto result_text = read_file(dir / (name + "_r.json"));
            EXPECT_TRUE(testutil::json_checker(result_text).valid()) << name;
        }
    }
    fs::current_path(cwd);
    fs::remove_all(dir);
}

TEST(commands, link_plate_at_angle_fails_gracefully)
{
    // A flat-plate tag rotated 30 degrees loses the link: exit code 2
    // (ran fine, delivered nothing).
    const char* argv[] = {"mmtag_sim", "link", "--reflector", "plate", "--angle", "30",
                          "--frames", "2"};
    EXPECT_EQ(dispatch(8, argv), 2);
}

} // namespace
} // namespace mmtag::cli
