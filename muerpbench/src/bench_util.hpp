// Shared plumbing of the benchmark harness: sample sets, the span tracer,
// a named view of telemetry snapshots, a flat JSON object writer and the
// process-resource helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace muerpbench {

std::uint64_t now_ns();
/// CPU time of the calling thread, nanoseconds.
std::uint64_t thread_cpu_ns();

/// Raw samples of one measured quantity; quantiles are exact order
/// statistics (linear interpolation, support::quantile).
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t count() const { return values_.size(); }
  double quantile(double p) const;
  double max() const;
  double mean() const;
  void append(const Samples& other);

 private:
  std::vector<double> values_;
};

/// Ordered name -> number map printed as one JSON object.
class JsonObject {
 public:
  void set(const std::string& key, double value);
  void set(const std::string& key, const std::string& value);
  void set_raw(const std::string& key, const std::string& json);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_string(const std::string& text);
/// Shortest text that parses back to exactly `value`.
std::string json_number(double value);

/// Named view of a telemetry snapshot in the export.hpp JSON layout
/// ({"counters", "gauges", "histograms", "spans"}) — the same document
/// whether it comes from an in-process capture or a daemon's
/// --snapshot-out file.
class Telemetry {
 public:
  static Telemetry capture();  // tel::capture_process()
  /// Counters, histograms and spans of `after` minus `before`.
  static Telemetry delta(const Telemetry& before, const Telemetry& after);
  /// Adds `other`'s counters, histograms and spans to this one.
  void add(const Telemetry& other);
  /// Parses a /snapshot.json document; false when it does not parse.
  static bool from_snapshot_document(const std::string& text, Telemetry* out);

  double counter(const std::string& name) const;
  double histogram_sum(const std::string& name) const;
  double span_total_ms(const std::string& name) const;
  double span_self_ms(const std::string& name) const;
  /// Every counter by name (for the trace file).
  const std::map<std::string, double>& counters() const { return counters_; }

 private:
  void load(const muerp::support::json::Value& metrics);

  std::map<std::string, double> counters_;
  std::map<std::string, std::pair<double, double>> histograms_;  // count, sum
  struct Span {
    double count = 0, total_ms = 0, self_ms = 0;
  };
  std::map<std::string, Span> spans_;
};

/// In-memory span recorder of the traced run. Spans carry a name, start,
/// end, parent span and op id; counter deltas taken at the same call
/// boundaries ride on the span. Nothing is recorded while disabled, and
/// the whole trace is written out once, at exit.
class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;
    std::uint64_t op = 0;
    std::map<std::string, double> counters;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span under the innermost open span; returns its index (-1
  /// when disabled).
  std::int64_t open(const std::string& name, std::uint64_t op);
  void close(std::int64_t index);
  void set_counters(std::int64_t index, std::map<std::string, double> deltas);
  /// Records an already-measured interval under the innermost open span.
  void record(const std::string& name, std::uint64_t op, std::uint64_t start,
              std::uint64_t end);

  std::size_t size() const { return spans_.size(); }
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span on a Tracer (no-op while the tracer is disabled).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::uint64_t op)
      : tracer_(tracer), index_(tracer.open(name, op)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t index() const { return index_; }

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

/// Peak resident set of this process, MiB.
double self_peak_rss_mb();

bool read_file(const std::string& path, std::string* out);

}  // namespace muerpbench
