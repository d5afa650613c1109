// perfbench_runner: runs one benchmark workload and prints one JSON
// document of raw measurements on stdout. perfbench/run.py builds it,
// checks the simulated statistics, and derives the metrics.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --cache-root DIR [--small] [--trace-out FILE]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "mmtag/runtime/json_io.hpp"
#include "workloads.hpp"

namespace {

// Sanitizer and optimisation state as the compiler saw this file.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool sanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool sanitized = true;
#else
constexpr bool sanitized = false;
#endif
#else
constexpr bool sanitized = false;
#endif

#if defined(__OPTIMIZE__)
constexpr bool optimized = true;
#else
constexpr bool optimized = false;
#endif

const std::string compile_flags = PERFBENCH_CXX_FLAGS;

[[noreturn]] void usage(const std::string& error)
{
    std::fprintf(stderr,
                 "error: %s\n"
                 "usage: perfbench_runner --workload NAME --seed N --seconds S "
                 "--trace 0|1 --cache-root DIR [--small] [--trace-out FILE]\n",
                 error.c_str());
    std::exit(2);
}

std::uint64_t parse_uint(const std::string& text, const char* flag)
{
    if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
        text.size() > 19) {
        usage(std::string(flag) + " needs a non-negative integer, got '" + text + "'");
    }
    return std::stoull(text);
}

} // namespace

int main(int argc, char** argv)
{
    // A sanitizer or unoptimised build measures the instrumentation, not
    // the simulator: refuse to time it.
    if (sanitized || !optimized || compile_flags.find("-fsanitize") != std::string::npos ||
        compile_flags.find("-O0") != std::string::npos) {
        std::fprintf(stderr, "error: refusing to time a sanitizer or unoptimised build "
                             "(flags: %s)\n",
                     compile_flags.c_str());
        return 2;
    }

    perfbench::run_options options;
    bool have_workload = false;
    bool have_root = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--small") {
            options.small = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value for " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            options.seed = parse_uint(value, "--seed");
        } else if (arg == "--seconds") {
            options.seconds = static_cast<double>(parse_uint(value, "--seconds"));
        } else if (arg == "--trace") {
            if (value != "0" && value != "1") usage("--trace takes 0 or 1");
            options.trace = value == "1";
        } else if (arg == "--cache-root") {
            options.cache_root = value;
            have_root = true;
        } else if (arg == "--trace-out") {
            options.trace_path = value;
        } else {
            usage("unknown option " + arg);
        }
    }
    if (!have_workload || !perfbench::known_workload(options.workload)) {
        usage("--workload must be one of link_waterfall, des_metro, soak_chaos");
    }
    if (!have_root) usage("--cache-root is required");
    if (options.seconds < 1.0) usage("--seconds must be >= 1");

    // Each workload runs in one process with at most four executors.
    const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
    options.jobs = std::min<std::size_t>(4, hardware);

    using mmtag::runtime::json_value;
    try {
        json_value doc = perfbench::run_workload(options);
        auto build = json_value::object();
        build.set("compiler", json_value::string(PERFBENCH_COMPILER));
        build.set("build_type", json_value::string(PERFBENCH_BUILD_TYPE));
        build.set("flags", json_value::string(compile_flags));
        build.set("optimized", json_value::boolean(optimized));
        build.set("sanitized", json_value::boolean(sanitized));
        build.set("nproc", json_value::unsigned_integer(hardware));
        doc.set("build", std::move(build));
        std::printf("%s\n", doc.dump().c_str());
    } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    return 0;
}
