#include "support/telemetry/alerts.hpp"

#include <utility>

#include "support/json.hpp"
#include "support/telemetry/log.hpp"

namespace muerp::support::telemetry {

const char* alert_kind_name(AlertKind kind) noexcept {
  switch (kind) {
    case AlertKind::kCounterRate:
      return "counter-rate";
    case AlertKind::kGauge:
      return "gauge";
    case AlertKind::kHistogramQuantile:
      return "histogram-quantile";
    case AlertKind::kRatio:
      return "ratio";
  }
  return "?";
}

const char* alert_op_name(AlertOp op) noexcept {
  return op == AlertOp::kAbove ? "above" : "below";
}

bool parse_alert_kind(std::string_view name, AlertKind* out) noexcept {
  if (name == "counter-rate") {
    *out = AlertKind::kCounterRate;
  } else if (name == "gauge") {
    *out = AlertKind::kGauge;
  } else if (name == "histogram-quantile") {
    *out = AlertKind::kHistogramQuantile;
  } else if (name == "ratio") {
    *out = AlertKind::kRatio;
  } else {
    return false;
  }
  return true;
}

bool parse_alert_op(std::string_view name, AlertOp* out) noexcept {
  if (name == "above") {
    *out = AlertOp::kAbove;
  } else if (name == "below") {
    *out = AlertOp::kBelow;
  } else {
    return false;
  }
  return true;
}

bool validate_alert_rule(const AlertRule& rule, std::string* error) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  if (rule.name.empty()) return fail("rule name must be non-empty");
  if (rule.metric.empty()) return fail("rule metric must be non-empty");
  if (rule.window_ns == 0) return fail("rule window must be > 0");
  if (rule.for_count < 1) return fail("rule for_count must be >= 1");
  if (!(rule.threshold == rule.threshold)) {  // NaN
    return fail("rule threshold must be a number");
  }
  if (rule.kind == AlertKind::kRatio && rule.denominator.empty()) {
    return fail("ratio rules need a denominator counter");
  }
  if (rule.kind == AlertKind::kHistogramQuantile &&
      !(rule.quantile >= 0.0 && rule.quantile <= 1.0)) {
    return fail("rule quantile must be in [0, 1]");
  }
  return true;
}

std::string alerts_json(const std::vector<AlertStatus>& statuses) {
  std::size_t firing = 0;
  for (const AlertStatus& status : statuses) {
    if (status.firing) ++firing;
  }
  std::string body = "{\"firing\": " + std::to_string(firing);
  body += ", \"rules\": [";
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    const AlertStatus& status = statuses[i];
    const AlertRule& rule = status.rule;
    if (i != 0) body += ", ";
    body += "{\"name\": ";
    json::append_quoted(body, rule.name);
    body += ", \"kind\": \"";
    body += alert_kind_name(rule.kind);
    body += "\", \"metric\": ";
    json::append_quoted(body, rule.metric);
    if (rule.kind == AlertKind::kRatio) {
      body += ", \"denominator\": ";
      json::append_quoted(body, rule.denominator);
    }
    if (rule.kind == AlertKind::kHistogramQuantile) {
      body += ", \"quantile\": ";
      json::append_number(body, rule.quantile);
    }
    body += ", \"window_s\": ";
    json::append_number(body, static_cast<double>(rule.window_ns) / 1e9);
    body += ", \"op\": \"";
    body += alert_op_name(rule.op);
    body += "\", \"threshold\": ";
    json::append_number(body, rule.threshold);
    body += ", \"for\": " + std::to_string(rule.for_count);
    body += ", \"severity\": ";
    json::append_quoted(body, rule.severity);
    body += ", \"firing\": ";
    body += status.firing ? "true" : "false";
    body += ", \"value\": ";
    json::append_number(body, status.value);
    body += ", \"breached\": " + std::to_string(status.breached);
    body += ", \"evaluations\": " + std::to_string(status.evaluations);
    body += '}';
  }
  body += "]}\n";
  return body;
}

#if MUERP_TELEMETRY_ENABLED

AlertRules::AlertRules(const TimeSeriesStore& store) : store_(&store) {}

bool AlertRules::upsert(AlertRule rule, std::string* error) {
  if (!validate_alert_rule(rule, error)) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (AlertStatus& entry : entries_) {
    if (entry.rule.name == rule.name) {
      entry = AlertStatus{};
      entry.rule = std::move(rule);
      return true;
    }
  }
  if (entries_.size() >= kMaxRules) {
    if (error != nullptr) {
      *error = "alert rule table is full (" + std::to_string(kMaxRules) +
               " rules)";
    }
    return false;
  }
  AlertStatus entry;
  entry.rule = std::move(rule);
  entries_.push_back(std::move(entry));
  return true;
}

bool AlertRules::remove(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].rule.name == name) {
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

std::size_t AlertRules::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

double AlertRules::measure(const AlertRule& rule) const {
  switch (rule.kind) {
    case AlertKind::kCounterRate:
      return store_->rate(rule.metric, rule.window_ns);
    case AlertKind::kGauge: {
      // One bin covering the whole window; gauges report the sampled level.
      const RangeSeries series =
          store_->range(rule.metric, rule.window_ns, rule.window_ns);
      return series.points.empty() ? 0.0 : series.points.back().value;
    }
    case AlertKind::kHistogramQuantile:
      return store_->delta(rule.metric, rule.window_ns)
          .quantile(rule.quantile);
    case AlertKind::kRatio: {
      const double numerator = store_->rate(rule.metric, rule.window_ns);
      const double denominator =
          store_->rate(rule.denominator, rule.window_ns);
      return denominator > 0.0 ? numerator / denominator : 0.0;
    }
  }
  return 0.0;
}

void AlertRules::evaluate(std::uint64_t now_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++rounds_;
  for (AlertStatus& entry : entries_) {
    const double value = measure(entry.rule);
    entry.value = value;
    ++entry.evaluations;
    const bool breached = entry.rule.op == AlertOp::kAbove
                              ? value > entry.rule.threshold
                              : value < entry.rule.threshold;
    if (breached) {
      if (entry.breached < entry.rule.for_count) ++entry.breached;
    } else {
      entry.breached = 0;
    }
    const bool now_firing = entry.breached >= entry.rule.for_count;
    if (now_firing && !entry.firing) {
      entry.firing = true;
      entry.since_ns = now_ns;
      MUERP_LOG_WARN("alert/firing", field("rule", entry.rule.name),
                     field("metric", entry.rule.metric),
                     field("value", value),
                     field("threshold", entry.rule.threshold),
                     field("severity", entry.rule.severity));
    } else if (!now_firing && entry.firing) {
      entry.firing = false;
      entry.since_ns = 0;
      MUERP_LOG_INFO("alert/resolved", field("rule", entry.rule.name),
                     field("metric", entry.rule.metric),
                     field("value", value),
                     field("threshold", entry.rule.threshold));
    }
  }
}

std::vector<AlertStatus> AlertRules::status() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_;
}

std::size_t AlertRules::firing() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const AlertStatus& entry : entries_) {
    if (entry.firing) ++count;
  }
  return count;
}

std::uint64_t AlertRules::evaluations() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rounds_;
}

#endif  // MUERP_TELEMETRY_ENABLED

}  // namespace muerp::support::telemetry
