// In-memory span recorder for the traced benchmark run. Spans are opened
// by the benchmark around calls into each layer's public functions (never
// inside the library), kept per thread, and collected once the parallel
// work that recorded them has joined.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct span_record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< innermost open span on the same thread; 0 = root
    const char* name = "";
    std::uint32_t thread = 0;
    double start_us = 0.0;
    double dur_us = 0.0;
};

/// Microseconds on the steady clock since the first call in the process.
[[nodiscard]] double now_us();

/// Turns recording on or off process-wide. Off, a scoped_span reads no
/// clock and records nothing.
void set_tracing(bool on);
[[nodiscard]] bool tracing();

/// Every span recorded so far, across threads, in id order. Call only when
/// no thread is recording (after the parallel work has joined).
[[nodiscard]] std::vector<span_record> collect_spans();
void clear_spans();

class scoped_span {
public:
    explicit scoped_span(const char* name);
    ~scoped_span();
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    const char* name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    double start_us_ = 0.0;
};

/// Per span name: count, total time, and every duration for percentiles.
/// Stage self times are differences of these totals (see workloads.cpp).
struct span_stats {
    std::uint64_t count = 0;
    double total_us = 0.0;
    std::vector<double> durations_us;
};

[[nodiscard]] std::map<std::string, span_stats>
summarize(const std::vector<span_record>& spans);

/// Writes the spans as a Chrome trace_event document (ph "X" events, span
/// id and parent in args).
bool write_chrome_trace(const std::string& path, const std::vector<span_record>& spans);

} // namespace perfbench
