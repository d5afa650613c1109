#include "mmtag/runtime/result_writer.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "mmtag/core/metrics.hpp"
#include "mmtag/runtime/json_io.hpp"

namespace mmtag::runtime {

json_value json_value::boolean(bool b)
{
    json_value v;
    v.kind_ = kind::boolean;
    v.bool_ = b;
    return v;
}

json_value json_value::number(double value)
{
    json_value v;
    v.kind_ = kind::number;
    v.number_ = value;
    return v;
}

json_value json_value::integer(std::int64_t value)
{
    json_value v;
    v.kind_ = kind::integer;
    v.integer_ = value;
    return v;
}

json_value json_value::unsigned_integer(std::uint64_t value)
{
    json_value v;
    v.kind_ = kind::unsigned_integer;
    v.unsigned_ = value;
    return v;
}

json_value json_value::string(std::string value)
{
    json_value v;
    v.kind_ = kind::string;
    v.string_ = std::move(value);
    return v;
}

json_value json_value::array()
{
    json_value v;
    v.kind_ = kind::array;
    return v;
}

json_value json_value::object()
{
    json_value v;
    v.kind_ = kind::object;
    return v;
}

json_value& json_value::set(const std::string& key, json_value value)
{
    if (kind_ != kind::object) throw std::logic_error("json_value::set on non-object");
    for (auto& member : members_) {
        if (member.first == key) {
            member.second = std::move(value);
            return *this;
        }
    }
    members_.emplace_back(key, std::move(value));
    return *this;
}

json_value& json_value::push(json_value value)
{
    if (kind_ != kind::array) throw std::logic_error("json_value::push on non-array");
    items_.push_back(std::move(value));
    return *this;
}

std::size_t json_value::size() const
{
    if (kind_ == kind::array) return items_.size();
    if (kind_ == kind::object) return members_.size();
    return 0;
}

const json_value* json_value::find(const std::string& key) const
{
    if (kind_ != kind::object) return nullptr;
    for (const auto& member : members_) {
        if (member.first == key) return &member.second;
    }
    return nullptr;
}

const json_value& json_value::at(std::size_t index) const
{
    if (kind_ != kind::array) throw std::logic_error("json_value::at on non-array");
    if (index >= items_.size()) throw std::out_of_range("json_value::at out of range");
    return items_[index];
}

double json_value::as_number() const
{
    switch (kind_) {
    case kind::number: return number_;
    case kind::integer: return static_cast<double>(integer_);
    case kind::unsigned_integer: return static_cast<double>(unsigned_);
    default: throw std::logic_error("json_value::as_number on non-number");
    }
}

std::uint64_t json_value::as_uint() const
{
    if (!is_uint()) throw std::logic_error("json_value::as_uint on non-unsigned value");
    return kind_ == kind::unsigned_integer ? unsigned_ : static_cast<std::uint64_t>(integer_);
}

bool json_value::as_boolean() const
{
    if (kind_ != kind::boolean) throw std::logic_error("json_value::as_boolean on non-boolean");
    return bool_;
}

const std::string& json_value::as_string() const
{
    if (kind_ != kind::string) throw std::logic_error("json_value::as_string on non-string");
    return string_;
}

void append_json_string(std::string& out, std::string_view text)
{
    out += '"';
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

namespace {

// Shortest decimal that round-trips, so 0.1 prints as "0.1" not
// "0.10000000000000001" — and identically on every run, which the
// byte-comparison determinism test relies on.
void format_double(std::string& out, double value)
{
    if (!std::isfinite(value)) {
        out += "null";
        return;
    }
    std::array<char, 40> buffer{};
    for (const int precision : {15, 16, 17}) {
        std::snprintf(buffer.data(), buffer.size(), "%.*g", precision, value);
        double parsed = 0.0;
        std::sscanf(buffer.data(), "%lf", &parsed);
        if (parsed == value) break;
    }
    out += buffer.data();
}

void newline_indent(std::string& out, int indent, int depth)
{
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
}

} // namespace

void json_value::dump_to(std::string& out, int indent, int depth) const
{
    switch (kind_) {
    case kind::null: out += "null"; break;
    case kind::boolean: out += bool_ ? "true" : "false"; break;
    case kind::number: format_double(out, number_); break;
    case kind::integer: {
        char buffer[24];
        std::snprintf(buffer, sizeof buffer, "%lld", static_cast<long long>(integer_));
        out += buffer;
        break;
    }
    case kind::unsigned_integer: {
        char buffer[24];
        std::snprintf(buffer, sizeof buffer, "%llu",
                      static_cast<unsigned long long>(unsigned_));
        out += buffer;
        break;
    }
    case kind::string: append_json_string(out, string_); break;
    case kind::array: {
        if (items_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i != 0) out += ',';
            newline_indent(out, indent, depth + 1);
            items_[i].dump_to(out, indent, depth + 1);
        }
        newline_indent(out, indent, depth);
        out += ']';
        break;
    }
    case kind::object: {
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i != 0) out += ',';
            newline_indent(out, indent, depth + 1);
            append_json_string(out, members_[i].first);
            out += indent > 0 ? ": " : ":";
            members_[i].second.dump_to(out, indent, depth + 1);
        }
        newline_indent(out, indent, depth);
        out += '}';
        break;
    }
    }
}

std::string json_value::dump(int indent) const
{
    std::string out;
    dump_to(out, indent, 0);
    return out;
}

result_writer::result_writer(std::string id, std::string title,
                             std::vector<std::string> axes, std::uint64_t base_seed)
    : id_(std::move(id)), title_(std::move(title)), axes_(std::move(axes)),
      base_seed_(base_seed)
{
}

void result_writer::add_point(json_value axis, std::size_t trials, json_value metrics)
{
    if (!axis.is_object()) throw std::invalid_argument("result_writer: axis not an object");
    if (!metrics.is_object()) {
        throw std::invalid_argument("result_writer: metrics not an object");
    }
    auto point = json_value::object();
    point.set("axis", std::move(axis));
    point.set("trials", json_value::unsigned_integer(trials));
    point.set("metrics", std::move(metrics));
    points_.push_back(std::move(point));
}

json_value result_writer::metrics(const core::error_counter& errors)
{
    auto m = json_value::object();
    m.set("bits", json_value::unsigned_integer(errors.bits()));
    m.set("bit_errors", json_value::unsigned_integer(errors.bit_errors()));
    m.set("ber", ratio_or_null(errors.ber(), errors.bits()));
    m.set("ber_ci95", ratio_or_null(errors.ber_confidence(), errors.bits()));
    m.set("frames", json_value::unsigned_integer(errors.frames()));
    m.set("frames_delivered", json_value::unsigned_integer(errors.frames_delivered()));
    m.set("per", ratio_or_null(errors.per(), errors.frames()));
    return m;
}

json_value result_writer::metrics(const core::link_report& report)
{
    auto m = json_value::object();
    m.set("ber", ratio_or_null(report.ber, report.bits));
    m.set("ber_ci95", ratio_or_null(report.ber_confidence(), report.bits));
    m.set("per", ratio_or_null(report.per, report.frames));
    m.set("mean_snr_db", ratio_or_null(report.mean_snr_db, report.snr_samples));
    m.set("mean_evm_db", ratio_or_null(report.mean_evm_db, report.evm_samples));
    m.set("goodput_bps", ratio_or_null(report.goodput_bps, report.frames_delivered));
    m.set("tag_energy_per_bit_j", ratio_or_null(report.tag_energy_per_bit_j, report.bits));
    m.set("frames", json_value::unsigned_integer(report.frames));
    m.set("frames_delivered", json_value::unsigned_integer(report.frames_delivered));
    m.set("bits", json_value::unsigned_integer(report.bits));
    m.set("bit_errors", json_value::unsigned_integer(report.bit_errors));
    return m;
}

void result_writer::set_metrics(json_value metrics)
{
    if (!metrics.is_object()) {
        throw std::invalid_argument("result_writer: metrics snapshot not an object");
    }
    has_metrics_ = true;
    metrics_ = std::move(metrics);
}

namespace {

json_value aggregates_value(const std::string& id, const std::string& title,
                            const std::vector<std::string>& axes,
                            std::uint64_t base_seed,
                            const std::vector<json_value>& points,
                            const json_value* metrics)
{
    auto doc = json_value::object();
    // Schema /2 only when an observability snapshot rides along, so existing
    // consumers of /1 output see byte-identical files when metrics are off.
    doc.set("schema", json_value::string(metrics != nullptr ? "mmtag.bench.result/2"
                                                            : "mmtag.bench.result/1"));
    doc.set("id", json_value::string(id));
    doc.set("title", json_value::string(title));
    doc.set("base_seed", json_value::unsigned_integer(base_seed));
    auto axis_list = json_value::array();
    for (const auto& axis : axes) axis_list.push(json_value::string(axis));
    doc.set("axes", std::move(axis_list));
    auto point_list = json_value::array();
    for (const auto& point : points) point_list.push(point);
    doc.set("points", std::move(point_list));
    if (metrics != nullptr) doc.set("metrics", *metrics);
    return doc;
}

} // namespace

std::string result_writer::aggregates_json() const
{
    return aggregates_value(id_, title_, axes_, base_seed_, points_,
                            has_metrics_ ? &metrics_ : nullptr)
        .dump(2);
}

std::string result_writer::document(double wall_s, std::size_t jobs,
                                    double trials_per_s) const
{
    auto doc = aggregates_value(id_, title_, axes_, base_seed_, points_,
                                has_metrics_ ? &metrics_ : nullptr);
    auto run = json_value::object();
    run.set("jobs", json_value::unsigned_integer(jobs));
    run.set("wall_s", json_value::number(wall_s));
    run.set("trials_per_s", json_value::number(trials_per_s));
    run.set("git", json_value::string(git_describe()));
    doc.set("run", std::move(run));
    return doc.dump(2);
}

std::string result_writer::write(const std::string& path, double wall_s, std::size_t jobs,
                                 double trials_per_s) const
{
    const std::string target = path.empty() ? default_output_path(id_) : path;
    if (!write_text_file(target, document(wall_s, jobs, trials_per_s))) return {};
    return target;
}

std::string default_output_path(const std::string& id)
{
    return "bench/out/BENCH_" + id + ".json";
}

const std::string& git_describe()
{
    static const std::string described = [] {
        std::string result = "unknown";
#ifndef _WIN32
        if (FILE* pipe = popen("git describe --always --dirty --tags 2>/dev/null", "r")) {
            char buffer[128];
            if (std::fgets(buffer, sizeof buffer, pipe) != nullptr) {
                std::string line(buffer);
                while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
                    line.pop_back();
                }
                if (!line.empty()) result = line;
            }
            pclose(pipe);
        }
#endif
        return result;
    }();
    return described;
}

} // namespace mmtag::runtime
