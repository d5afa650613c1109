// Machine-readable bench output: a minimal ordered JSON document model and
// the BENCH_<id>.json emitter the perf trajectory reads.
//
// Schema "mmtag.bench.result/1":
//   {
//     "schema": "mmtag.bench.result/1",
//     "id": "R4", "title": "...",
//     "base_seed": S,
//     "axes": ["distance_m", "rate"],
//     "points": [
//       {"axis": {...}, "trials": N, "metrics": {...}},
//       ...
//     ],
//     "run": {"jobs": J, "wall_s": W, "trials_per_s": R,
//             "git": "<git describe>"}
//   }
// Everything outside "run" is a pure function of (bench, base_seed) — the
// deterministic half the jobs-invariance regression test compares
// byte-for-byte (aggregates_json()). "run" carries the timing/provenance
// that legitimately varies between machines and runs.
//
// Schema "mmtag.bench.result/2" is /1 plus a top-level "metrics" section
// after "points" — the sweep-wide merged obs::metrics_registry snapshot
// (deterministic view, --jobs-invariant) — and is emitted only when
// set_metrics() was called (v1 output is byte-unchanged when metrics are
// off).
// Ratio metrics with zero observations (BER with no bits, PER with no
// frames, mean SNR with no found frames, ...) serialize as null, never as
// bare nan/inf.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mmtag::core {
class error_counter;
struct link_report;
} // namespace mmtag::core

namespace mmtag::runtime {

/// A small owned JSON value. Object keys keep insertion order and number
/// formatting is locale-independent, so serialization is byte-stable —
/// which is what lets "same sweep, different --jobs" be compared verbatim.
class json_value {
public:
    json_value() : kind_(kind::null) {}

    static json_value null() { return json_value(); }
    static json_value boolean(bool b);
    static json_value number(double value);
    static json_value integer(std::int64_t value);
    static json_value unsigned_integer(std::uint64_t value);
    static json_value string(std::string value);
    static json_value array();
    static json_value object();

    /// Object member (insertion-ordered; duplicate keys overwrite in place).
    json_value& set(const std::string& key, json_value value);
    /// Array append.
    json_value& push(json_value value);

    [[nodiscard]] bool is_object() const { return kind_ == kind::object; }
    [[nodiscard]] bool is_array() const { return kind_ == kind::array; }
    [[nodiscard]] bool is_null() const { return kind_ == kind::null; }
    [[nodiscard]] bool is_string() const { return kind_ == kind::string; }
    /// Any numeric kind (double, signed, or unsigned integer).
    [[nodiscard]] bool is_number() const
    {
        return kind_ == kind::number || kind_ == kind::integer ||
               kind_ == kind::unsigned_integer;
    }
    /// A non-negative integer: the kinds as_uint() accepts.
    [[nodiscard]] bool is_uint() const
    {
        return kind_ == kind::unsigned_integer || (kind_ == kind::integer && integer_ >= 0);
    }

    // Read accessors for parsed documents (runtime::parse_json) — the
    // loading half of the disk-cache round trip. Typed getters throw
    // std::logic_error on kind mismatch rather than coercing silently.
    /// Array item count / object member count; 0 for scalar kinds.
    [[nodiscard]] std::size_t size() const;
    /// Object member lookup; nullptr when absent or not an object.
    [[nodiscard]] const json_value* find(const std::string& key) const;
    /// Array element; throws std::out_of_range / std::logic_error.
    [[nodiscard]] const json_value& at(std::size_t index) const;
    [[nodiscard]] double as_number() const;
    [[nodiscard]] std::uint64_t as_uint() const;
    [[nodiscard]] bool as_boolean() const;
    [[nodiscard]] const std::string& as_string() const;

    /// Serializes; indent > 0 pretty-prints with that many spaces per level.
    [[nodiscard]] std::string dump(int indent = 0) const;

private:
    enum class kind { null, boolean, number, integer, unsigned_integer, string, array, object };

    void dump_to(std::string& out, int indent, int depth) const;

    kind kind_;
    bool bool_ = false;
    double number_ = 0.0;
    std::int64_t integer_ = 0;
    std::uint64_t unsigned_ = 0;
    std::string string_;
    std::vector<json_value> items_;
    std::vector<std::pair<std::string, json_value>> members_;
};

/// Appends `text` to `out` as a quoted, escaped JSON string: the escaping
/// json_value::dump() and the trace writer share.
void append_json_string(std::string& out, std::string_view text);

/// Collects one bench's sweep results and writes BENCH_<id>.json.
class result_writer {
public:
    result_writer(std::string id, std::string title, std::vector<std::string> axes,
                  std::uint64_t base_seed);

    /// Appends one sweep point. `axis` must be an object whose keys match
    /// the declared axes; `metrics` is an object of aggregate values.
    void add_point(json_value axis, std::size_t trials, json_value metrics);

    /// Ready-made metrics objects for the standard aggregates. Ratios whose
    /// denominator has zero observations are emitted as JSON null.
    [[nodiscard]] static json_value metrics(const core::error_counter& errors);
    [[nodiscard]] static json_value metrics(const core::link_report& report);

    /// Attaches a sweep-wide observability snapshot (an
    /// obs::metrics_registry::to_json(deterministic) object). Switches the
    /// document to schema mmtag.bench.result/2; the snapshot is part of the
    /// deterministic half (aggregates_json()).
    void set_metrics(json_value metrics);

    /// The deterministic half of the document (schema/id/title/axes/points).
    [[nodiscard]] std::string aggregates_json() const;

    /// The full document including the "run" section.
    [[nodiscard]] std::string document(double wall_s, std::size_t jobs,
                                       double trials_per_s) const;

    /// Writes document() to `path` (empty = default_output_path(id)),
    /// creating parent directories. Returns the path written, or an empty
    /// string if the filesystem refused (benches warn but keep going).
    std::string write(const std::string& path, double wall_s, std::size_t jobs,
                      double trials_per_s) const;

private:
    std::string id_;
    std::string title_;
    std::vector<std::string> axes_;
    std::uint64_t base_seed_;
    std::vector<json_value> points_;
    bool has_metrics_ = false;
    json_value metrics_;
};

/// bench/out/BENCH_<id>.json relative to the current working directory.
[[nodiscard]] std::string default_output_path(const std::string& id);

/// `git describe --always --dirty --tags` of the working tree, cached after
/// the first call; "unknown" when git or the repository is unavailable.
[[nodiscard]] const std::string& git_describe();

} // namespace mmtag::runtime
