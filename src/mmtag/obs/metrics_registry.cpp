#include "mmtag/obs/metrics_registry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "mmtag/runtime/result_writer.hpp"

namespace mmtag::obs {

void gauge::set(double value)
{
    last_ = value;
    min_ = count_ == 0 ? value : std::min(min_, value);
    max_ = count_ == 0 ? value : std::max(max_, value);
    sum_ += value;
    ++count_;
}

double gauge::mean() const
{
    if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
    return sum_ / static_cast<double>(count_);
}

void gauge::merge(const gauge& other)
{
    if (other.count_ == 0) return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    last_ = other.last_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
    count_ += other.count_;
}

histogram::histogram(std::span<const double> upper_bounds)
    : upper_bounds_(upper_bounds.begin(), upper_bounds.end()),
      counts_(upper_bounds.size() + 1, 0)
{
    if (!std::is_sorted(upper_bounds_.begin(), upper_bounds_.end())) {
        throw std::invalid_argument("histogram: bucket bounds must be ascending");
    }
}

void histogram::observe(double value)
{
    if (counts_.empty()) counts_.assign(1, 0); // default-constructed: one bucket
    // lower_bound keeps the documented inclusive tops: a value equal to a
    // bucket's upper bound lands in that bucket, not the next one.
    const auto bucket = static_cast<std::size_t>(
        std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value) -
        upper_bounds_.begin());
    ++counts_[bucket];
    ++count_;
    sum_ += value;
}

double histogram::mean() const
{
    if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
    return sum_ / static_cast<double>(count_);
}

void histogram::merge(const histogram& other)
{
    if (other.count_ == 0 && other.upper_bounds_.empty()) return;
    if (count_ == 0 && upper_bounds_.empty()) {
        *this = other;
        return;
    }
    if (upper_bounds_ != other.upper_bounds_) {
        throw std::invalid_argument("histogram::merge: bucket bounds differ");
    }
    for (std::size_t b = 0; b < counts_.size() && b < other.counts_.size(); ++b) {
        counts_[b] += other.counts_[b];
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

counter& metrics_registry::get_counter(const std::string& name)
{
    return counters_[name];
}

gauge& metrics_registry::get_gauge(const std::string& name)
{
    return gauges_[name];
}

histogram& metrics_registry::get_histogram(const std::string& name,
                                           std::span<const double> upper_bounds)
{
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        return histograms_.emplace(name, histogram(upper_bounds)).first->second;
    }
    const auto& existing = it->second.upper_bounds();
    if (existing.size() != upper_bounds.size() ||
        !std::equal(existing.begin(), existing.end(), upper_bounds.begin())) {
        throw std::invalid_argument("metrics_registry: histogram '" + name +
                                    "' already exists with different bounds");
    }
    return it->second;
}

const counter* metrics_registry::find_counter(const std::string& name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
}

const gauge* metrics_registry::find_gauge(const std::string& name) const
{
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : &it->second;
}

const histogram* metrics_registry::find_histogram(const std::string& name) const
{
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

bool metrics_registry::empty() const
{
    return counters_.empty() && gauges_.empty() && histograms_.empty();
}

std::size_t metrics_registry::size() const
{
    return counters_.size() + gauges_.size() + histograms_.size();
}

void metrics_registry::clear()
{
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

void metrics_registry::merge(const metrics_registry& other)
{
    for (const auto& [name, value] : other.counters_) counters_[name].merge(value);
    for (const auto& [name, value] : other.gauges_) gauges_[name].merge(value);
    for (const auto& [name, value] : other.histograms_) {
        const auto it = histograms_.find(name);
        if (it == histograms_.end()) {
            histograms_.emplace(name, value);
        } else {
            it->second.merge(value);
        }
    }
}

bool metrics_registry::is_timing_name(const std::string& name)
{
    return name.rfind("time/", 0) == 0;
}

namespace {

bool view_includes(metric_view view, const std::string& name)
{
    switch (view) {
    case metric_view::all: return true;
    case metric_view::deterministic: return !metrics_registry::is_timing_name(name);
    }
    return true;
}

runtime::json_value number_or_null(double value)
{
    if (!std::isfinite(value)) return runtime::json_value::null();
    return runtime::json_value::number(value);
}

} // namespace

runtime::json_value metrics_registry::to_json(metric_view view) const
{
    auto doc = runtime::json_value::object();

    auto counters = runtime::json_value::object();
    for (const auto& [name, value] : counters_) {
        if (!view_includes(view, name)) continue;
        counters.set(name, runtime::json_value::unsigned_integer(value.value()));
    }
    auto gauges = runtime::json_value::object();
    for (const auto& [name, value] : gauges_) {
        if (!view_includes(view, name)) continue;
        auto g = runtime::json_value::object();
        g.set("count", runtime::json_value::unsigned_integer(value.count()));
        g.set("last", number_or_null(value.last()));
        g.set("min", number_or_null(value.min()));
        g.set("max", number_or_null(value.max()));
        g.set("sum", number_or_null(value.sum()));
        g.set("mean", number_or_null(value.mean()));
        gauges.set(name, std::move(g));
    }
    auto histograms = runtime::json_value::object();
    for (const auto& [name, value] : histograms_) {
        if (!view_includes(view, name)) continue;
        auto h = runtime::json_value::object();
        auto bounds = runtime::json_value::array();
        for (const double b : value.upper_bounds()) bounds.push(number_or_null(b));
        h.set("upper_bounds", std::move(bounds));
        auto counts = runtime::json_value::array();
        for (const std::uint64_t c : value.counts()) {
            counts.push(runtime::json_value::unsigned_integer(c));
        }
        h.set("counts", std::move(counts));
        h.set("count", runtime::json_value::unsigned_integer(value.count()));
        h.set("sum", number_or_null(value.sum()));
        h.set("mean", number_or_null(value.mean()));
        histograms.set(name, std::move(h));
    }

    doc.set("counters", std::move(counters));
    doc.set("gauges", std::move(gauges));
    doc.set("histograms", std::move(histograms));
    return doc;
}

std::string metrics_registry::to_json_string(metric_view view, int indent) const
{
    return to_json(view).dump(indent);
}

namespace {

constexpr double kTimeBoundsS[] = {1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3,
                                   3e-3, 1e-2, 3e-2, 0.1,  0.3,  1.0,  3.0, 10.0};
constexpr double kSnrBoundsDb[] = {-10.0, -5.0, 0.0,  5.0,  10.0, 15.0,
                                   20.0,  25.0, 30.0, 35.0, 40.0};
constexpr double kSuppressionBoundsDb[] = {-80.0, -70.0, -60.0, -50.0, -40.0,
                                           -30.0, -20.0, -10.0, 0.0};
constexpr double kRoundsBounds[] = {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0};

} // namespace

std::span<const double> time_bounds_s() { return kTimeBoundsS; }
std::span<const double> snr_bounds_db() { return kSnrBoundsDb; }
std::span<const double> suppression_bounds_db() { return kSuppressionBoundsDb; }
std::span<const double> rounds_bounds() { return kRoundsBounds; }

} // namespace mmtag::obs
