#include "bench_util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <ctime>
#include <fstream>
#include <numeric>
#include <sstream>

#include "support/statistics.hpp"
#include "support/telemetry/export.hpp"
#include "support/telemetry/metrics.hpp"

namespace muerpbench {

namespace json = muerp::support::json;
namespace tel = muerp::support::telemetry;

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double Samples::quantile(double p) const {
  return values_.empty() ? 0.0 : muerp::support::quantile(values_, p);
}

double Samples::max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

double Samples::mean() const {
  return values_.empty() ? 0.0
                         : std::accumulate(values_.begin(), values_.end(), 0.0) /
                               static_cast<double>(values_.size());
}

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

void JsonObject::set(const std::string& key, double value) {
  set_raw(key, json_number(value));
}

void JsonObject::set(const std::string& key, const std::string& value) {
  set_raw(key, json_string(value));
}

void JsonObject::set_raw(const std::string& key, const std::string& json_text) {
  for (auto& field : fields_) {
    if (field.first == key) {
      field.second = json_text;
      return;
    }
  }
  fields_.emplace_back(key, json_text);
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

Telemetry Telemetry::capture() {
  Telemetry t;
  const json::ParseResult parsed = json::parse(tel::to_json(tel::capture_process()));
  if (parsed.ok()) t.load(parsed.value);
  return t;
}

Telemetry Telemetry::delta(const Telemetry& before, const Telemetry& after) {
  Telemetry d = after;
  for (auto& [name, value] : d.counters_) {
    if (const auto it = before.counters_.find(name); it != before.counters_.end()) {
      value -= it->second;
    }
  }
  for (auto& [name, value] : d.histograms_) {
    if (const auto it = before.histograms_.find(name);
        it != before.histograms_.end()) {
      value.first -= it->second.first;
      value.second -= it->second.second;
    }
  }
  for (auto& [name, span] : d.spans_) {
    if (const auto it = before.spans_.find(name); it != before.spans_.end()) {
      span.count -= it->second.count;
      span.total_ms -= it->second.total_ms;
      span.self_ms -= it->second.self_ms;
    }
  }
  return d;
}

void Telemetry::add(const Telemetry& other) {
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, value] : other.histograms_) {
    histograms_[name].first += value.first;
    histograms_[name].second += value.second;
  }
  for (const auto& [name, span] : other.spans_) {
    Span& mine = spans_[name];
    mine.count += span.count;
    mine.total_ms += span.total_ms;
    mine.self_ms += span.self_ms;
  }
}

bool Telemetry::from_snapshot_document(const std::string& text,
                                       Telemetry* out) {
  const json::ParseResult parsed = json::parse(text);
  if (!parsed.ok() || !parsed.value["metrics"].is_object()) return false;
  *out = Telemetry{};
  out->load(parsed.value["metrics"]);
  return true;
}

void Telemetry::load(const json::Value& metrics) {
  for (const auto& [name, value] : metrics["counters"].members) {
    counters_[name] = value.number_value;
  }
  for (const auto& [name, value] : metrics["histograms"].members) {
    histograms_[name] = {value["count"].number_value, value["sum"].number_value};
  }
  for (const json::Value& span : metrics["spans"].elements) {
    spans_[span["label"].string_value] = {span["count"].number_value,
                                          span["total_ms"].number_value,
                                          span["self_ms"].number_value};
  }
}

double Telemetry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double Telemetry::histogram_sum(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? 0.0 : it->second.second;
}

double Telemetry::span_total_ms(const std::string& name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() ? 0.0 : it->second.total_ms;
}

double Telemetry::span_self_ms(const std::string& name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() ? 0.0 : it->second.self_ms;
}

std::int64_t Tracer::open(const std::string& name, std::uint64_t op) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
  return open_.back();
}

void Tracer::close(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::set_counters(std::int64_t index,
                          std::map<std::string, double> deltas) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].counters = std::move(deltas);
}

void Tracer::record(const std::string& name, std::uint64_t op,
                    std::uint64_t start, std::uint64_t end) {
  if (!enabled_) return;
  SpanRecord span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = start;
  span.end_ns = end;
  spans_.push_back(std::move(span));
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    JsonObject row;
    row.set("id", static_cast<double>(i));
    row.set("name", s.name);
    row.set("start_ns", static_cast<double>(s.start_ns));
    row.set("end_ns", static_cast<double>(s.end_ns));
    row.set("parent", static_cast<double>(s.parent));
    row.set("op", static_cast<double>(s.op));
    if (!s.counters.empty()) {
      JsonObject counters;
      for (const auto& [name, value] : s.counters) counters.set(name, value);
      row.set_raw("counters", counters.str());
    }
    out << row.str() << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace muerpbench
