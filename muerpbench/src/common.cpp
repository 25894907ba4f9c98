#include <algorithm>

#include "workloads.hpp"

namespace muerpbench {

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (failures.size() < 20) failures.push_back(what);
}

void set_metric(JsonObject& out, const std::string& name, double value,
                const std::string& unit) {
  out.set_raw(name, "{\"value\": " + json_number(value) +
                        ", \"unit\": " + json_string(unit) + "}");
}

void EndToEnd::write(JsonObject& out) const {
  set_metric(out, "setup_s", setup_s, "s");
  set_metric(out, "routes_per_s", routes_per_s, "1/s");
  set_metric(out, "route_us_p50", route_us_p50, "us");
  set_metric(out, "route_us_p99", route_us_p99, "us");
  set_metric(out, "sessions_per_s", sessions_per_s, "1/s");
  set_metric(out, "success_ratio", success_ratio, "ratio");
  set_metric(out, "mean_tree_rate", mean_tree_rate, "eq2_rate");
  set_metric(out, "scrape_ms_p50", scrape_ms_p50, "ms");
  set_metric(out, "cpu_ms_per_op", cpu_ms_per_op, "ms");
  set_metric(out, "rss_mb", rss_mb, "MiB");
}

const std::vector<std::string>& daemon_routes() {
  static const std::vector<std::string> routes = {
      "/metrics", "/healthz", "/api/v1/links?sort=util&limit=10",
      "/api/v1/sessions"};
  return routes;
}

bool check_scrape_validity(const ScrapeLog& log, Outcome& out) {
  const double period_ms = static_cast<double>(log.period_ns) / 1e6;
  const double lag_p99 = log.lag_ms.quantile(0.99);
  const double lag_max = log.lag_ms.max();
  out.info.set("scrape_hz", 1e9 / static_cast<double>(log.period_ns));
  out.info.set("scrape_samples", static_cast<double>(log.lag_ms.count()));
  out.info.set("scrape_failed", static_cast<double>(log.failed));
  out.info.set("scrape_cut_by_exit", static_cast<double>(log.ended));
  out.info.set("scrape_lag_ms_p99", lag_p99);
  out.info.set("scrape_lag_ms_max", lag_max);
  for (std::size_t r = 0; r < log.routes.size(); ++r) {
    out.info.set("scrape_samples " + log.routes[r],
                 static_cast<double>(log.latency_ms[r].count()));
  }
  if (!log.first_error.empty()) out.info.set("scrape_first_error", log.first_error);
  // The tails are recorded here, not as end-to-end metrics: on a shared
  // 4-core host they swing by more than any usable bound between runs
  // (see LAYERS.md).
  out.info.set("scrape_ms_p99", log.pooled_latency_ms().quantile(0.99));
  out.info.set("healthz_ms_p99", log.route_latency("/healthz").quantile(0.99));
  const bool valid = lag_p99 <= kMaxLagP99Share * period_ms &&
                     lag_max <= kMaxLagShare * period_ms;
  out.info.set("scrape_valid", valid ? "yes" : "no");
  return valid;
}

void scrape_metrics(const ScrapeLog& log, EndToEnd& e2e) {
  // Each route's median, averaged with equal weight: the pooled median of
  // routes with distinct latencies falls in the gap between two of them
  // and jumps from run to run.
  double sum = 0;
  for (const Samples& route : log.latency_ms) sum += route.quantile(0.5);
  e2e.scrape_ms_p50 = sum / static_cast<double>(log.latency_ms.size());
}

void http_layer_metrics(const ScrapeLog& log, JsonObject& layer) {
  const std::pair<const char*, const char*> routes[] = {
      {"metrics", "/metrics"},
      {"healthz", "/healthz"},
      {"links", "/api/v1/links"},
      {"sessions", "/api/v1/sessions"}};
  for (const auto& [name, prefix] : routes) {
    set_metric(layer, std::string("daemon.http_") + name + "_ms_p50",
               log.route_latency(prefix).quantile(0.5), "ms");
    set_metric(layer, std::string("daemon.http_") + name + "_bytes",
               log.route_bytes(prefix).quantile(0.5), "bytes");
  }
}

}  // namespace muerpbench
