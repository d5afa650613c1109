#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

#include "mmtag/runtime/json_io.hpp"

namespace perfbench {

namespace {

struct thread_buffer {
    std::uint32_t thread = 0;
    std::vector<span_record> spans;
    std::vector<std::uint64_t> open; ///< stack of open span ids
};

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_id{1};

// Buffers outlive their threads (the library's pools join and exit
// between sweeps), so the registry owns them.
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<thread_buffer>> g_buffers;

thread_buffer& local_buffer()
{
    thread_local thread_buffer* buffer = nullptr;
    if (buffer == nullptr) {
        const std::scoped_lock lock(g_buffers_mutex);
        g_buffers.push_back(std::make_unique<thread_buffer>());
        buffer = g_buffers.back().get();
        buffer->thread = static_cast<std::uint32_t>(g_buffers.size());
    }
    return *buffer;
}

} // namespace

double now_us()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                     origin)
        .count();
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

std::vector<span_record> collect_spans()
{
    const std::scoped_lock lock(g_buffers_mutex);
    std::vector<span_record> all;
    for (const auto& buffer : g_buffers) {
        all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
    std::sort(all.begin(), all.end(),
              [](const span_record& a, const span_record& b) { return a.id < b.id; });
    return all;
}

void clear_spans()
{
    const std::scoped_lock lock(g_buffers_mutex);
    for (const auto& buffer : g_buffers) buffer->spans.clear();
}

scoped_span::scoped_span(const char* name) : name_(name)
{
    if (!tracing()) return;
    thread_buffer& buffer = local_buffer();
    id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
    parent_ = buffer.open.empty() ? 0 : buffer.open.back();
    buffer.open.push_back(id_);
    start_us_ = now_us();
}

scoped_span::~scoped_span()
{
    if (id_ == 0) return;
    const double end_us = now_us();
    thread_buffer& buffer = local_buffer();
    buffer.open.pop_back();
    buffer.spans.push_back({id_, parent_, name_, buffer.thread, start_us_, end_us - start_us_});
}

std::map<std::string, span_stats> summarize(const std::vector<span_record>& spans)
{
    std::map<std::string, span_stats> out;
    for (const auto& s : spans) {
        span_stats& stats = out[s.name];
        ++stats.count;
        stats.total_us += s.dur_us;
        stats.durations_us.push_back(s.dur_us);
    }
    return out;
}

bool write_chrome_trace(const std::string& path, const std::vector<span_record>& spans)
{
    using mmtag::runtime::json_value;
    auto events = json_value::array();
    for (const auto& s : spans) {
        auto args = json_value::object();
        args.set("id", json_value::unsigned_integer(s.id));
        args.set("parent", json_value::unsigned_integer(s.parent));
        auto event = json_value::object();
        event.set("name", json_value::string(s.name));
        event.set("ph", json_value::string("X"));
        event.set("pid", json_value::unsigned_integer(1));
        event.set("tid", json_value::unsigned_integer(s.thread));
        event.set("ts", json_value::number(s.start_us));
        event.set("dur", json_value::number(s.dur_us));
        event.set("args", std::move(args));
        events.push(std::move(event));
    }
    auto doc = json_value::object();
    doc.set("traceEvents", std::move(events));
    return mmtag::runtime::write_text_file(path, doc.dump());
}

} // namespace perfbench
