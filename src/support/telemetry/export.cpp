#include "support/telemetry/export.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <ostream>
#include <sstream>
#include <vector>

#include "support/json.hpp"
#include "support/table.hpp"

namespace muerp::support::telemetry {

namespace {

constexpr double kNsPerMs = 1e6;

struct Indenter {
  int width;
  int level = 0;
  void newline(std::ostream& out) const {
    if (width <= 0) return;
    out << '\n';
    for (int i = 0; i < width * level; ++i) out << ' ';
  }
};

/// Span indices sorted hot-first (total time desc, then label for
/// determinism), zero-count labels dropped.
std::vector<std::size_t> hot_span_order(const Snapshot& snapshot) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < snapshot.spans.size(); ++i) {
    if (snapshot.spans[i].count != 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (snapshot.spans[a].total_ns != snapshot.spans[b].total_ns) {
      return snapshot.spans[a].total_ns > snapshot.spans[b].total_ns;
    }
    return span_label(static_cast<SpanId>(a)) <
           span_label(static_cast<SpanId>(b));
  });
  return order;
}

}  // namespace

void write_json(std::ostream& out, const Snapshot& snapshot, int indent) {
  Indenter ind{indent};
  const auto open = [&](char c) {
    out << c;
    ++ind.level;
  };
  const auto close = [&](char c) {
    --ind.level;
    ind.newline(out);
    out << c;
  };

  open('{');

  ind.newline(out);
  out << "\"counters\": ";
  open('{');
  bool first = true;
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (snapshot.counters[i] == 0) continue;
    if (!first) out << ',';
    first = false;
    ind.newline(out);
    out << json::quote(counter_name(static_cast<std::uint32_t>(i)));
    out << ": " << snapshot.counters[i];
  }
  close('}');
  out << ',';

  ind.newline(out);
  out << "\"gauges\": ";
  open('{');
  first = true;
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (!first) out << ',';
    first = false;
    ind.newline(out);
    out << json::quote(gauge_name(static_cast<std::uint32_t>(i)));
    out << ": ";
    out << json::number(snapshot.gauges[i]);
  }
  close('}');
  out << ',';

  ind.newline(out);
  out << "\"histograms\": ";
  open('{');
  first = true;
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramData& h = snapshot.histograms[i];
    if (h.count == 0) continue;
    if (!first) out << ',';
    first = false;
    ind.newline(out);
    out << json::quote(histogram_name(static_cast<std::uint32_t>(i)));
    out << ": ";
    open('{');
    ind.newline(out);
    out << "\"count\": " << h.count << ',';
    ind.newline(out);
    out << "\"sum\": ";
    out << json::number(h.sum);
    out << ',';
    ind.newline(out);
    out << "\"mean\": ";
    out << json::number(h.sum / static_cast<double>(h.count));
    out << ',';
    ind.newline(out);
    out << "\"p50\": ";
    out << json::number(h.quantile(0.5));
    out << ',';
    ind.newline(out);
    out << "\"p95\": ";
    out << json::number(h.quantile(0.95));
    out << ',';
    ind.newline(out);
    out << "\"p99\": ";
    out << json::number(h.quantile(0.99));
    out << ',';
    ind.newline(out);
    out << "\"buckets\": [";
    bool first_bucket = true;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first_bucket) out << ", ";
      first_bucket = false;
      out << "[";
      out << json::number(histogram_bucket_upper_bound(b));
      out << ", " << h.buckets[b] << "]";
    }
    out << ']';
    close('}');
  }
  close('}');
  out << ',';

  ind.newline(out);
  out << "\"spans\": ";
  open('[');
  first = true;
  for (const std::size_t i : hot_span_order(snapshot)) {
    const SpanStats& s = snapshot.spans[i];
    if (!first) out << ',';
    first = false;
    ind.newline(out);
    out << "{\"label\": ";
    out << json::quote(span_label(static_cast<SpanId>(i)));
    out << ", \"count\": " << s.count << ", \"total_ms\": ";
    out << json::number(static_cast<double>(s.total_ns) / kNsPerMs);
    out << ", \"self_ms\": ";
    out << json::number(static_cast<double>(s.self_ns) / kNsPerMs);
    out << '}';
  }
  close(']');

  close('}');
}

std::string to_json(const Snapshot& snapshot) {
  std::ostringstream out;
  write_json(out, snapshot);
  return out.str();
}

Table spans_table(const Snapshot& snapshot, std::string title) {
  Table table(std::move(title), {"span", "calls", "total_ms", "self_ms"});
  for (const std::size_t i : hot_span_order(snapshot)) {
    const SpanStats& s = snapshot.spans[i];
    table.add_row(span_label(static_cast<SpanId>(i)),
                  {static_cast<double>(s.count),
                   static_cast<double>(s.total_ns) / kNsPerMs,
                   static_cast<double>(s.self_ns) / kNsPerMs});
  }
  return table;
}

Table counters_table(const Snapshot& snapshot, std::string title) {
  Table table(std::move(title), {"counter", "value"});
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (snapshot.counters[i] == 0) continue;
    table.add_row(counter_name(static_cast<std::uint32_t>(i)),
                  {static_cast<double>(snapshot.counters[i])});
  }
  return table;
}

Table histograms_table(const Snapshot& snapshot, std::string title) {
  Table table(std::move(title),
              {"histogram", "count", "mean", "p50", "p95", "p99"});
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramData& h = snapshot.histograms[i];
    if (h.count == 0) continue;
    table.add_row(histogram_name(static_cast<std::uint32_t>(i)),
                  {static_cast<double>(h.count),
                   h.sum / static_cast<double>(h.count), h.quantile(0.5),
                   h.quantile(0.95), h.quantile(0.99)});
  }
  return table;
}

std::string snapshot_document(const Snapshot& snapshot,
                              std::span<const LogEvent> events) {
  std::ostringstream body;
  body << "{\"metrics\": ";
  write_json(body, snapshot, /*indent=*/0);
  body << ", \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) body << ", ";
    body << render_log_event(events[i], LogFormat::kJson);
  }
  body << "]}\n";
  return body.str();
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; everything else (the '/'
/// separators of our labels, '-', ...) maps to '_'.
std::string sanitize_metric_name(std::string_view name) {
  std::string out = "muerp_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Label *values* keep the original label but escape backslash, double
/// quote and newline per the exposition format.
void write_label_value(std::ostream& out, std::string_view value) {
  out << '"';
  for (const char c : value) {
    switch (c) {
      case '\\':
        out << "\\\\";
        break;
      case '"':
        out << "\\\"";
        break;
      case '\n':
        out << "\\n";
        break;
      default:
        out << c;
    }
  }
  out << '"';
}

void write_metric_number(std::ostream& out, double v) {
  if (std::isnan(v)) {
    out << "NaN";
  } else if (std::isinf(v)) {
    out << (v > 0 ? "+Inf" : "-Inf");
  } else {
    out << json::number(v);
  }
}

}  // namespace

void write_openmetrics(std::ostream& out, const Snapshot& snapshot) {
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (snapshot.counters[i] == 0) continue;
    const std::string name =
        sanitize_metric_name(counter_name(static_cast<std::uint32_t>(i)));
    out << "# TYPE " << name << "_total counter\n";
    out << name << "_total " << snapshot.counters[i] << '\n';
  }
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const std::string name =
        sanitize_metric_name(gauge_name(static_cast<std::uint32_t>(i)));
    out << "# TYPE " << name << " gauge\n";
    out << name << ' ';
    write_metric_number(out, snapshot.gauges[i]);
    out << '\n';
  }
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramData& h = snapshot.histograms[i];
    if (h.count == 0) continue;
    const std::string name =
        sanitize_metric_name(histogram_name(static_cast<std::uint32_t>(i)));
    out << "# TYPE " << name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      cumulative += h.buckets[b];
      // Sparse exposition: only buckets that change the cumulative count,
      // plus the mandatory +Inf bucket. Prometheus interpolates correctly
      // from any monotone subset of bucket bounds.
      if (h.buckets[b] == 0 && b + 1 < kHistogramBuckets) continue;
      out << name << "_bucket{le=";
      std::ostringstream le;
      write_metric_number(le, histogram_bucket_upper_bound(b));
      write_label_value(out, le.str());
      out << "} " << cumulative << '\n';
    }
    out << name << "_sum ";
    write_metric_number(out, h.sum);
    out << '\n';
    out << name << "_count " << h.count << '\n';
    out << "# TYPE " << name << "_quantile gauge\n";
    for (const double q : {0.5, 0.95, 0.99}) {
      out << name << "_quantile{q=";
      std::ostringstream qs;
      qs << q;
      write_label_value(out, qs.str());
      out << "} ";
      write_metric_number(out, h.quantile(q));
      out << '\n';
    }
  }
  bool span_headers = false;
  for (const std::size_t i : hot_span_order(snapshot)) {
    const SpanStats& s = snapshot.spans[i];
    if (!span_headers) {
      out << "# TYPE muerp_span_calls_total counter\n"
          << "# TYPE muerp_span_total_seconds gauge\n"
          << "# TYPE muerp_span_self_seconds gauge\n";
      span_headers = true;
    }
    const std::string label = span_label(static_cast<SpanId>(i));
    out << "muerp_span_calls_total{span=";
    write_label_value(out, label);
    out << "} " << s.count << '\n';
    out << "muerp_span_total_seconds{span=";
    write_label_value(out, label);
    out << "} ";
    write_metric_number(out, static_cast<double>(s.total_ns) / 1e9);
    out << '\n';
    out << "muerp_span_self_seconds{span=";
    write_label_value(out, label);
    out << "} ";
    write_metric_number(out, static_cast<double>(s.self_ns) / 1e9);
    out << '\n';
  }
  out << "# EOF\n";
}

std::string to_openmetrics(const Snapshot& snapshot) {
  std::ostringstream out;
  write_openmetrics(out, snapshot);
  return out.str();
}

void write_chrome_trace(std::ostream& out,
                        std::span<const TraceEvent> events) {
  // The trace_event "JSON Array Format": viewers accept a bare array of
  // complete ("X") events with microsecond ts/dur.
  out << "[\n";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out << ",\n";
    first = false;
    out << R"({"name": )";
    out << json::quote(span_label(e.span));
    out << R"(, "cat": "muerp", "ph": "X", "pid": 1, "tid": )" << e.thread
        << R"(, "ts": )";
    out << json::number(static_cast<double>(e.start_ns) / 1e3);
    out << R"(, "dur": )";
    out << json::number(static_cast<double>(e.duration_ns) / 1e3);
    out << R"(, "args": {"depth": )" << e.depth << "}}";
  }
  out << "\n]\n";
}

long write_chrome_trace_file(const std::string& path) {
  std::vector<TraceEvent> events = drain_trace_events();
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.thread < b.thread;
            });
  std::ofstream out(path);
  if (!out) return -1;
  write_chrome_trace(out, events);
  return static_cast<long>(events.size());
}

}  // namespace muerp::support::telemetry
