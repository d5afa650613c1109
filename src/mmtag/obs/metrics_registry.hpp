// Observability metrics: named counters, gauges, and fixed-bucket
// histograms collected per trial and folded through the sweep runner's
// ordered reduction.
//
// Every metric carries additive sufficient statistics and an exact merge()
// (the same contract as core::error_counter), so a merged registry is
// bit-identical to sequential accumulation over the same observations —
// which is what keeps `--metrics` output byte-identical across --jobs.
//
// Wall-clock metrics (scoped timers) record under "time/..." names; the
// `deterministic` view excludes them, so timing data never leaks into the
// jobs-invariant half of a result document.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace mmtag::runtime {
class json_value;
}

namespace mmtag::obs {

/// Monotonic event count. Merge is integer addition, hence exact.
class counter {
public:
    void add(std::uint64_t n = 1) { value_ += n; }
    [[nodiscard]] std::uint64_t value() const { return value_; }
    void merge(const counter& other) { value_ += other.value_; }

private:
    std::uint64_t value_ = 0;
};

/// Point-in-time sample with additive summary statistics. `last` follows
/// the merge order, which the sweep runner keeps deterministic by folding
/// trials strictly in (point, trial) order.
class gauge {
public:
    void set(double value);

    [[nodiscard]] std::uint64_t count() const { return count_; }
    [[nodiscard]] double last() const { return last_; }
    [[nodiscard]] double min() const { return min_; }
    [[nodiscard]] double max() const { return max_; }
    [[nodiscard]] double sum() const { return sum_; }
    /// NaN when no value was ever set.
    [[nodiscard]] double mean() const;

    void merge(const gauge& other);

private:
    std::uint64_t count_ = 0;
    double last_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/// Fixed-bucket histogram: `upper_bounds` are the inclusive bucket tops in
/// ascending order, plus one implicit overflow bucket. Bounds are frozen at
/// creation so counts from different trials merge bucket-for-bucket.
class histogram {
public:
    histogram() = default;
    explicit histogram(std::span<const double> upper_bounds);

    void observe(double value);

    [[nodiscard]] const std::vector<double>& upper_bounds() const { return upper_bounds_; }
    /// Per-bucket counts; size() == upper_bounds().size() + 1 (overflow last).
    [[nodiscard]] const std::vector<std::uint64_t>& counts() const { return counts_; }
    [[nodiscard]] std::uint64_t count() const { return count_; }
    [[nodiscard]] double sum() const { return sum_; }
    /// NaN when empty.
    [[nodiscard]] double mean() const;

    /// Throws std::invalid_argument when the bucket bounds differ.
    void merge(const histogram& other);

private:
    std::vector<double> upper_bounds_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

/// Which metrics a snapshot includes. Scoped-timer histograms ("time/...")
/// are wall-clock dependent, so the `deterministic` view the result writer
/// embeds per sweep excludes them.
enum class metric_view { all, deterministic };

/// Name-addressed collection of metrics. Not thread-safe: each trial owns
/// its registry and the reduction merges them on one thread, mirroring how
/// core::error_counter aggregates flow through runtime::run_sweep.
class metrics_registry {
public:
    /// Get-or-create. Names are free-form; "subsystem/metric" by convention.
    counter& get_counter(const std::string& name);
    gauge& get_gauge(const std::string& name);
    /// Creates with `upper_bounds` on first use; throws std::invalid_argument
    /// when the name exists with different bounds.
    histogram& get_histogram(const std::string& name, std::span<const double> upper_bounds);

    [[nodiscard]] const counter* find_counter(const std::string& name) const;
    [[nodiscard]] const gauge* find_gauge(const std::string& name) const;
    [[nodiscard]] const histogram* find_histogram(const std::string& name) const;

    [[nodiscard]] bool empty() const;
    [[nodiscard]] std::size_t size() const;
    void clear();

    /// Exact union-by-name fold of `other` into this registry.
    void merge(const metrics_registry& other);

    /// Name-sorted JSON object {"counters": {...}, "gauges": {...},
    /// "histograms": {...}} — byte-stable for a given set of observations.
    /// Non-finite doubles serialize as null.
    [[nodiscard]] runtime::json_value to_json(metric_view view = metric_view::all) const;
    [[nodiscard]] std::string to_json_string(metric_view view = metric_view::all,
                                             int indent = 0) const;

    /// True for wall-clock metric names (the "time/" prefix).
    [[nodiscard]] static bool is_timing_name(const std::string& name);

private:
    std::map<std::string, counter> counters_;
    std::map<std::string, gauge> gauges_;
    std::map<std::string, histogram> histograms_;
};

/// Shared bucket edges so the same quantity lands in the same buckets no
/// matter which subsystem observed it.
[[nodiscard]] std::span<const double> time_bounds_s();        ///< 1 us .. 10 s, log-spaced
[[nodiscard]] std::span<const double> snr_bounds_db();        ///< -10 .. 40 dB
[[nodiscard]] std::span<const double> suppression_bounds_db();///< -80 .. 0 dB
[[nodiscard]] std::span<const double> rounds_bounds();        ///< 1 .. 128, power-of-two

} // namespace mmtag::obs
