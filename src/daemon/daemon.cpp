#include "daemon/daemon.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <vector>

#include "network/svg.hpp"
#include "support/telemetry/export.hpp"
#include "support/telemetry/flight_recorder.hpp"
#include "support/telemetry/link_ledger.hpp"
#include "support/telemetry/log.hpp"
#include "support/telemetry/metrics.hpp"

namespace muerp::daemon {

namespace json = support::json;
namespace tel = support::telemetry;

namespace {

/// The GET /api/v1/topology document: the served network's static shape
/// (node kinds, positions, qubit budgets, fiber endpoints and lengths)
/// joined with the link ledger's live per-edge / per-switch occupancy.
/// `links` is ShardedSessionService::link_stats() — empty (OFF build, or
/// --record-links false) degrades to the static topology with zeroed
/// occupancy, still a valid document.
std::string topology_json(const net::QuantumNetwork& network,
                          const std::vector<tel::LinkStat>& links,
                          std::uint64_t slot) {
  const auto edges = network.graph().edges();
  std::string out = "{\"slot\": " + std::to_string(slot);
  out += ", \"nodes\": [";
  for (net::NodeId v = 0; v < network.node_count(); ++v) {
    if (v > 0) out += ", ";
    out += "{\"id\": " + std::to_string(v);
    out += ", \"kind\": \"";
    out += network.is_user(v) ? "user" : "switch";
    out += "\", \"x\": " + json::number(network.positions()[v].x);
    out += ", \"y\": " + json::number(network.positions()[v].y);
    if (network.is_switch(v)) {
      out += ", \"qubits\": " + std::to_string(network.qubits(v));
    }
    out += "}";
  }
  out += "], \"edges\": [";
  for (graph::EdgeId e = 0; e < edges.size(); ++e) {
    const auto& edge = edges[e];
    if (e > 0) out += ", ";
    const tel::LinkStat* live =
        e < links.size() && links[e].kind == tel::LinkKind::kEdge ? &links[e]
                                                                  : nullptr;
    out += "{\"id\": " + std::to_string(e);
    out += ", \"a\": " + std::to_string(edge.a);
    out += ", \"b\": " + std::to_string(edge.b);
    out += ", \"length_km\": " + json::number(edge.length_km);
    out += ", \"capacity\": " + std::to_string(live ? live->capacity : 0);
    out += ", \"held\": " + std::to_string(live ? live->held : 0);
    out += ", \"utilization\": " +
           json::number(live ? live->utilization : 0.0);
    out += "}";
  }
  out += "], \"switches\": [";
  const auto switch_ids = network.switches();
  for (std::size_t s = 0; s < switch_ids.size(); ++s) {
    if (s > 0) out += ", ";
    const std::size_t flat = edges.size() + s;
    const tel::LinkStat* live =
        flat < links.size() && links[flat].kind == tel::LinkKind::kSwitch
            ? &links[flat]
            : nullptr;
    out += "{\"node\": " + std::to_string(switch_ids[s]);
    out += ", \"capacity\": " +
           std::to_string(live ? live->capacity
                               : network.qubits(switch_ids[s]));
    out += ", \"held\": " + std::to_string(live ? live->held : 0);
    out += ", \"utilization\": " +
           json::number(live ? live->utilization : 0.0);
    out += "}";
  }
  out += "]}\n";
  return out;
}

/// A read-only GET page served by the ctl verb that renders the same
/// document. Only `query_keys` are forwarded as args (others are ignored);
/// a prefix route passes its path tail as `path_arg`; `fixed_args` are set
/// by the route and cannot be overridden from the query.
struct VerbPage {
  const char* path;  // exact path, or a prefix when path_arg is set
  const char* verb;
  std::vector<std::string> query_keys;
  const char* path_arg = nullptr;
  std::vector<std::pair<std::string, std::string>> fixed_args;
};

const VerbPage kVerbPages[] = {
    {"/api/v1/sessions",
     "sessions",
     {"state", "lane", "alg", "min-slot", "max-slot", "limit"},
     nullptr,
     {}},
    {"/api/v1/session/", "session", {"format"}, "id", {}},
    {"/api/v1/alerts", "slo", {}, nullptr, {{"action", "list"}}},
    {"/api/v1/topology", "topology", {}, nullptr, {}},
    {"/api/v1/links", "links", {"sort", "limit"}, nullptr, {}},
    {"/api/v1/explain/", "explain", {}, "id", {}},
};

/// Runs `page`'s verb on the request: each non-empty value becomes the arg
/// type its ArgSpec declares (text that is not a finite number stays a
/// string, so the registry's schema check rejects it), and the ctl result
/// maps to HTTP — ok 200 with the verb's document, not_found 404,
/// bad_arg / out_of_range 400, anything else 500 — with every error body
/// {"error": <message>}.
std::string serve_verb_page(const ctl::CommandRegistry& registry,
                            const VerbPage& page,
                            const tel::HttpRequest& request) {
  using tel::HttpExporter;
  const ctl::CommandSpec* spec = registry.find(page.verb);
  json::Value args;
  args.kind = json::Value::Kind::kObject;
  const auto add_arg = [&](const std::string& name, const std::string& text) {
    if (text.empty()) return;
    json::Value value;
    value.kind = json::Value::Kind::kString;
    value.string_value = text;
    const bool numeric =
        spec != nullptr &&
        std::any_of(spec->args.begin(), spec->args.end(),
                    [&name](const ctl::ArgSpec& a) {
                      return a.name == name &&
                             (a.type == ctl::ArgType::kInt ||
                              a.type == ctl::ArgType::kNumber);
                    });
    double number = 0.0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), number);
    if (numeric && ec == std::errc() && end == text.data() + text.size() &&
        std::isfinite(number)) {
      value.kind = json::Value::Kind::kNumber;
      value.number_value = number;
    }
    args.members.emplace_back(name, std::move(value));
  };
  for (const std::string& key : page.query_keys) {
    add_arg(key, tel::http_query_param(request.query, key));
  }
  if (page.path_arg != nullptr) {
    add_arg(page.path_arg,
            request.path.substr(std::string_view(page.path).size()));
  }
  for (const auto& [name, value] : page.fixed_args) add_arg(name, value);

  const ctl::CommandResult result = registry.run(page.verb, args);
  if (result.ok) {
    std::string body = result.result_json;
    if (body.empty() || body.back() != '\n') body += '\n';
    return HttpExporter::response(200, "application/json", body);
  }
  int status = 500;
  if (result.code == ctl::kErrNotFound) {
    status = 404;
  } else if (result.code == ctl::kErrBadArg ||
             result.code == ctl::kErrOutOfRange) {
    status = 400;
  }
  return HttpExporter::response(
      status, "application/json",
      "{\"error\": " + json::quote(result.message) + "}\n");
}

/// The sessions verb's filter arguments; a failure names the bad one.
ctl::CommandResult session_filter_of(const json::Value& args,
                                     tel::SessionFilter* filter) {
  filter->limit = 100;
  if (const auto* v = args.find("state")) {
    tel::SessionState state;
    if (!tel::parse_session_state(v->string_value, &state)) {
      return ctl::CommandResult::failure(
          ctl::kErrOutOfRange,
          "unknown state '" + v->string_value +
              "' (active|completed|timed_out|rejected|drained)");
    }
    filter->state = state;
  }
  if (const auto* v = args.find("alg")) filter->algorithm = v->string_value;
  const auto non_negative =
      [&args](const char* name) -> std::optional<std::uint64_t> {
    const auto* v = args.find(name);
    if (v == nullptr || v->number_value < 0) return std::nullopt;
    return static_cast<std::uint64_t>(v->number_value);
  };
  for (const char* name : {"lane", "min-slot", "max-slot", "limit"}) {
    if (args.find(name) != nullptr && !non_negative(name)) {
      return ctl::CommandResult::failure(
          ctl::kErrOutOfRange, std::string(name) + " must be >= 0");
    }
  }
  if (const auto v = non_negative("lane")) {
    filter->lane = static_cast<std::uint32_t>(*v);
  }
  if (const auto v = non_negative("min-slot")) filter->min_slot = *v;
  if (const auto v = non_negative("max-slot")) filter->max_slot = *v;
  if (const auto v = non_negative("limit")) {
    filter->limit = static_cast<std::size_t>(*v);
  }
  return ctl::CommandResult::success();
}

/// The `slo set` arguments as a rule, upserted into `alerts`.
ctl::CommandResult upsert_alert_rule(tel::AlertRules& alerts,
                                     const std::string& name,
                                     const json::Value& args) {
  tel::AlertRule rule;
  rule.name = name;
  if (const auto* v = args.find("kind")) {
    if (!tel::parse_alert_kind(v->string_value, &rule.kind)) {
      return ctl::CommandResult::failure(
          ctl::kErrOutOfRange,
          "unknown kind '" + v->string_value +
              "' (counter-rate|gauge|histogram-quantile|ratio)");
    }
  }
  if (const auto* v = args.find("metric")) rule.metric = v->string_value;
  if (const auto* v = args.find("denominator")) {
    rule.denominator = v->string_value;
  }
  if (const auto* v = args.find("quantile")) rule.quantile = v->number_value;
  if (const auto* v = args.find("window-seconds")) {
    if (!(v->number_value > 0)) {
      return ctl::CommandResult::failure(ctl::kErrOutOfRange,
                                         "window-seconds must be > 0");
    }
    rule.window_ns = static_cast<std::uint64_t>(v->number_value * 1e9);
  }
  if (const auto* v = args.find("op")) {
    if (!tel::parse_alert_op(v->string_value, &rule.op)) {
      return ctl::CommandResult::failure(
          ctl::kErrOutOfRange,
          "unknown op '" + v->string_value + "' (above|below)");
    }
  }
  if (const auto* v = args.find("threshold")) {
    rule.threshold = v->number_value;
  }
  if (const auto* v = args.find("for")) {
    if (v->number_value < 1) {
      return ctl::CommandResult::failure(ctl::kErrOutOfRange,
                                         "for must be >= 1");
    }
    rule.for_count = static_cast<std::uint32_t>(v->number_value);
  }
  if (const auto* v = args.find("severity")) rule.severity = v->string_value;
  std::string rule_error;
  if (!alerts.upsert(rule, &rule_error)) {
    return ctl::CommandResult::failure(ctl::kErrOutOfRange, rule_error);
  }
  return ctl::CommandResult::success(tel::alerts_json(alerts.status()));
}

/// True for a JSON number with no fractional part (checked without a cast,
/// which would be undefined for values out of the integer's range).
bool is_whole(const json::Value& value) {
  const double n = value.number_value;
  return value.is_number() && std::isfinite(n) && std::trunc(n) == n;
}

/// A non-negative record id from a verb's `id` argument.
std::optional<std::uint64_t> record_id(const json::Value& args) {
  if (args["id"].number_value < 0) return std::nullopt;
  return static_cast<std::uint64_t>(args["id"].number_value);
}

}  // namespace

// ---------------------------------------------------------------------------
// Settings table: what `ctl set`/`ctl get` dispatch on, and the muerpd
// flags add_setting_flags() declares and apply_flags() applies. Accessors
// run on the loop thread (inside a mailbox action, or before the loop
// starts), so they may touch the session service freely.

struct Daemon::Setting {
  const char* name;
  /// The muerpd flag applying this row at start-up (nullptr: none), its
  /// default and its help text.
  const char* flag;
  const char* flag_default;
  const char* help;
  std::string (*get)(Daemon&);  // current value as a JSON document
  /// Parses, validates and applies a value; null marks a read-only row.
  ctl::CommandResult (*set)(Daemon&, const json::Value&);
};

const Daemon::Setting Daemon::kSettings[] = {
    {"arrival-rate", "arrival", "0.05", "session arrival probability per slot",
     [](Daemon& d) { return json::number(d.service_.arrival_prob()); },
     [](Daemon& d, const json::Value& value) {
       if (!value.is_number()) {
         return ctl::CommandResult::failure(ctl::kErrBadArg,
                                            "arrival-rate must be a number");
       }
       std::string error;
       if (!d.service_.set_arrival_prob(value.number_value, &error)) {
         return ctl::CommandResult::failure(ctl::kErrOutOfRange, error);
       }
       return ctl::CommandResult::success(
           json::number(d.service_.arrival_prob()));
     }},
    {"algorithm", "algorithm", "",
     "admission router: shared-prim or a registry name",
     [](Daemon& d) { return json::quote(d.algorithm_name()); },
     [](Daemon& d, const json::Value& value) {
       if (!value.is_string()) {
         return ctl::CommandResult::failure(ctl::kErrBadArg,
                                            "algorithm must be a string");
       }
       std::string name = value.string_value;
       if (name == sim::kSharedPrimAlgorithm) name.clear();
       std::string error;
       if (!d.service_.set_algorithm(name, &error)) {
         return ctl::CommandResult::failure(ctl::kErrOutOfRange, error);
       }
       return ctl::CommandResult::success(json::quote(d.algorithm_name()));
     }},
    {"arrival-burst", "arrival-burst", "1",
     "arrival attempts per slot; >1 admits each slot's arrivals as one "
     "batch through the routing kernel",
     [](Daemon& d) { return std::to_string(d.service_.arrival_burst()); },
     [](Daemon& d, const json::Value& value) {
       if (!is_whole(value)) {
         return ctl::CommandResult::failure(
             ctl::kErrBadArg, "arrival-burst must be an integer");
       }
       // Below 1 the service refuses; the clamp keeps the cast defined.
       const double burst = std::clamp(value.number_value, 0.0, 0x1p53);
       std::string error;
       if (!d.service_.set_arrival_burst(static_cast<std::size_t>(burst),
                                         &error)) {
         return ctl::CommandResult::failure(ctl::kErrOutOfRange, error);
       }
       return ctl::CommandResult::success(
           std::to_string(d.service_.arrival_burst()));
     }},
    {"batch-policy", "batch-policy", "given-order",
     "burst admission order: given-order|smallest-first|largest-first|"
     "greedy|fair-share",
     [](Daemon& d) {
       return json::quote(
           routing::batch_policy_name(d.service_.batch_policy()));
     },
     [](Daemon& d, const json::Value& value) {
       if (!value.is_string()) {
         return ctl::CommandResult::failure(ctl::kErrBadArg,
                                            "batch-policy must be a string");
       }
       routing::BatchPolicy policy;
       if (!routing::parse_batch_policy(value.string_value, &policy)) {
         return ctl::CommandResult::failure(
             ctl::kErrOutOfRange,
             "unknown batch policy '" + value.string_value +
                 "' (given-order|smallest-first|largest-first|greedy|"
                 "fair-share)");
       }
       std::string error;
       if (!d.service_.set_batch_policy(policy, &error)) {
         return ctl::CommandResult::failure(ctl::kErrUnsupported, error);
       }
       return ctl::CommandResult::success(
           json::quote(routing::batch_policy_name(policy)));
     }},
    {"log-level", "log-level", "info", "debug|info|warn|error|off",
     [](Daemon&) { return json::quote(tel::log_level_name(tel::log_level())); },
     [](Daemon&, const json::Value& value) {
       if (!value.is_string()) {
         return ctl::CommandResult::failure(ctl::kErrBadArg,
                                            "log-level must be a string");
       }
       tel::LogLevel parsed;
       if (!tel::parse_log_level(value.string_value, &parsed)) {
         return ctl::CommandResult::failure(
             ctl::kErrOutOfRange, "unknown log level '" + value.string_value +
                                      "' (debug|info|warn|error|off)");
       }
       tel::set_log_level(parsed);
       return ctl::CommandResult::success(json::quote(value.string_value));
     }},
    {"log-rate", "log-rate", "0",
     "per-session log events per second (0 = unlimited)",
     [](Daemon& d) { return json::number(d.service_.log_events_per_second()); },
     [](Daemon& d, const json::Value& value) {
       if (!value.is_number()) {
         return ctl::CommandResult::failure(ctl::kErrBadArg,
                                            "log-rate must be a number");
       }
       std::string error;
       if (!d.service_.set_log_events_per_second(value.number_value,
                                                 &error)) {
         return ctl::CommandResult::failure(ctl::kErrOutOfRange, error);
       }
       return ctl::CommandResult::success(
           json::number(d.service_.log_events_per_second()));
     }},
    {"sample-interval-ms", "sample-interval-ms", "1000",
     "time-series sampling period for /api/v1/range",
     [](Daemon& d) { return std::to_string(d.sampler_.interval().count()); },
     [](Daemon& d, const json::Value& value) {
       if (!is_whole(value)) {
         return ctl::CommandResult::failure(
             ctl::kErrBadArg, "sample-interval-ms must be an integer");
       }
       if (value.number_value < 1.0 || value.number_value > 3600'000.0) {
         return ctl::CommandResult::failure(
             ctl::kErrOutOfRange, "sample-interval-ms must be in [1, 3600000]");
       }
       d.sampler_.set_interval(std::chrono::milliseconds(
           static_cast<std::int64_t>(value.number_value)));
       return ctl::CommandResult::success(
           std::to_string(d.sampler_.interval().count()));
     }},
    {"lifetime", nullptr, nullptr,
     "totals across every run recorded in the --history file (read-only)",
     [](Daemon& d) {
       if (!d.history_.is_open()) return std::string("null");
       d.flush_history(true);
       const ctl::HistoryTotals t = d.history_.lifetime();
       std::string out = "{\"runs\": " + std::to_string(t.runs);
       out += ", \"slots\": " + std::to_string(t.slots);
       out += ", \"arrived\": " + std::to_string(t.arrived);
       out += ", \"admitted\": " + std::to_string(t.admitted);
       out += ", \"completed\": " + std::to_string(t.completed);
       out += ", \"timed_out\": " + std::to_string(t.timed_out);
       out += ", \"rejected\": " + std::to_string(t.rejected);
       out += "}";
       return out;
     },
     nullptr},
};

// ---------------------------------------------------------------------------
// Verb table behind POST /api/v1/ctl. Every mutation rides the mailbox to
// the loop thread and is applied between scheduler batches. The
// flight-recorder, network-plane and slo verbs are read-only (slo's edits
// aside) and internally locked, so they run directly on the acceptor
// thread — a query keeps answering while the loop is busy (no mailbox hop).

struct Daemon::Verb {
  const char* name;
  const char* summary;
  std::vector<ctl::ArgSpec> args;
  ctl::CommandResult (*run)(Daemon&, const json::Value&);
};

const Daemon::Verb Daemon::kVerbs[] = {
    {"set",
     "change a runtime setting (applied at the next tick boundary)",
     {{"name", ctl::ArgType::kString, true, "setting to change"},
      {"value", ctl::ArgType::kAny, true, "new value (type per setting)"}},
     [](Daemon& d, const json::Value& args) {
       ctl::CommandResult lookup_error;
       const Setting* setting =
           d.find_setting(args["name"].string_value, &lookup_error);
       if (setting == nullptr) return lookup_error;
       if (setting->set == nullptr) {
         return ctl::CommandResult::failure(
             ctl::kErrUnsupported,
             "setting '" + std::string(setting->name) + "' is read-only");
       }
       // Copy the value out of the parsed request: the mailbox action runs
       // after this handler's request document is gone.
       const json::Value value = args["value"];
       if (auto refused = d.refuse_if_draining()) return *refused;
       return d.mailbox_.submit(
           [&d, setting, value] { return setting->set(d, value); });
     }},
    {"get",
     "read a runtime setting (loop-thread-consistent snapshot)",
     {{"name", ctl::ArgType::kString, true, "setting to read"}},
     [](Daemon& d, const json::Value& args) {
       ctl::CommandResult lookup_error;
       const Setting* setting =
           d.find_setting(args["name"].string_value, &lookup_error);
       if (setting == nullptr) return lookup_error;
       if (std::string_view(setting->name) == "lifetime" &&
           !d.history_.is_open()) {
         return ctl::CommandResult::failure(
             ctl::kErrUnsupported,
             "no --history file configured for this daemon");
       }
       return d.mailbox_.submit([&d, setting] {
         return ctl::CommandResult::success(setting->get(d));
       });
     }},
    {"status",
     "lifecycle state plus the live session counters",
     {},
     [](Daemon& d, const json::Value&) {
       return d.mailbox_.submit([&d] {
         const sim::ProtocolMetrics m = d.service_.metrics();
         std::string out = "{\"state\": ";
         out += json::quote(d.state_name());
         out += ", \"slot\": " + std::to_string(d.service_.slot());
         out += ", \"active_sessions\": " +
                std::to_string(d.service_.active_sessions());
         out += ", \"arrived\": " + std::to_string(m.sessions_arrived);
         out += ", \"admitted\": " + std::to_string(m.sessions_admitted);
         out += ", \"completed\": " + std::to_string(m.sessions_completed);
         out += ", \"timed_out\": " + std::to_string(m.sessions_timed_out);
         out += ", \"rejected\": " + std::to_string(m.sessions_rejected);
         out += ", \"arrivals_enabled\": ";
         out += d.service_.arrivals_enabled() ? "true" : "false";
         out += "}";
         return ctl::CommandResult::success(out);
       });
     }},
    {"pause",
     "hold the slot loop (the deadline grid keeps advancing; resuming "
     "never replays a backlog)",
     {},
     [](Daemon& d, const json::Value&) {
       if (auto refused = d.refuse_if_draining()) return *refused;
       return d.mailbox_.submit([&d] {
         d.run_state_.store(RunState::kPaused, std::memory_order_relaxed);
         return ctl::CommandResult::success("{\"state\": \"paused\"}");
       });
     }},
    {"resume",
     "resume a paused slot loop",
     {},
     [](Daemon& d, const json::Value&) {
       if (auto refused = d.refuse_if_draining()) return *refused;
       return d.mailbox_.submit([&d] {
         d.run_state_.store(RunState::kRunning, std::memory_order_relaxed);
         return ctl::CommandResult::success("{\"state\": \"running\"}");
       });
     }},
    {"drain",
     "stop intake, finish in-flight sessions, then exit",
     {},
     [](Daemon& d, const json::Value&) {
       if (auto refused = d.refuse_if_draining()) return *refused;
       return d.mailbox_.submit([&d] {
         d.begin_drain();
         return ctl::CommandResult::success(
             "{\"state\": \"draining\", \"active_sessions\": " +
             std::to_string(d.service_.active_sessions()) + "}");
       });
     }},
    {"snapshot",
     "full metrics + recent-events document, inline or written to a file",
     {{"path", ctl::ArgType::kString, false,
       "write the document here instead of returning it"}},
     [](Daemon&, const json::Value& args) {
       const std::string document = tel::snapshot_document(
           tel::capture_process(), tel::recent_log_events());
       const json::Value* path = args.find("path");
       if (path == nullptr) return ctl::CommandResult::success(document);
       std::ofstream out(path->string_value);
       if (!out) {
         return ctl::CommandResult::failure(
             ctl::kErrBadArg,
             "cannot write snapshot to '" + path->string_value + "'");
       }
       out << document;
       return ctl::CommandResult::success(
           "{\"written\": " + json::quote(path->string_value) + "}");
     }},
    {"commands",
     "this command table, with argument schemas",
     {},
     [](Daemon& d, const json::Value&) {
       return ctl::CommandResult::success(d.registry_.describe_json());
     }},
    {"sessions",
     "flight-recorder records (tail-sampled; rejections and timeouts are "
     "always kept)",
     {{"state", ctl::ArgType::kString, false,
       "active|completed|timed_out|rejected|drained"},
      {"lane", ctl::ArgType::kInt, false, "only this lane"},
      {"alg", ctl::ArgType::kString, false, "only this admission algorithm"},
      {"min-slot", ctl::ArgType::kInt, false, "arrival slot >= this"},
      {"max-slot", ctl::ArgType::kInt, false, "arrival slot <= this"},
      {"limit", ctl::ArgType::kInt, false,
       "keep only the last n matches (default 100; 0 = all)"}},
     [](Daemon& d, const json::Value& args) {
       tel::SessionFilter filter;
       if (const auto parsed = session_filter_of(args, &filter); !parsed.ok) {
         return parsed;
       }
       return ctl::CommandResult::success(tel::session_records_json(
           d.service_.session_records(filter),
           d.service_.session_record_stats()));
     }},
    {"session",
     "one full flight record by id (as `sessions` reports them)",
     {{"id", ctl::ArgType::kInt, true, "record id (lane << 32 | seq)"},
      {"format", ctl::ArgType::kString, false,
       "json (default) or trace (Chrome trace-event document)"}},
     [](Daemon& d, const json::Value& args) {
       const auto id = record_id(args);
       if (!id) {
         return ctl::CommandResult::failure(ctl::kErrOutOfRange,
                                            "id must be >= 0");
       }
       const auto record = d.service_.find_session_record(*id);
       if (!record) {
         return ctl::CommandResult::failure(
             ctl::kErrNotFound,
             "no flight record with id " + std::to_string(*id));
       }
       std::string fmt = "json";
       if (const auto* v = args.find("format")) fmt = v->string_value;
       if (fmt == "trace") {
         return ctl::CommandResult::success(tel::session_trace_json(*record));
       }
       if (fmt != "json") {
         return ctl::CommandResult::failure(ctl::kErrOutOfRange,
                                            "format must be json|trace");
       }
       return ctl::CommandResult::success(tel::session_record_json(*record));
     }},
    {"topology",
     "the served network joined with live per-link occupancy",
     {},
     [](Daemon& d, const json::Value&) {
       return ctl::CommandResult::success(
           topology_json(d.network_, d.service_.link_stats(),
                         d.health_.slot.load(std::memory_order_relaxed)));
     }},
    {"links",
     "per-link utilization / attempts / contention-loss table",
     {{"sort", ctl::ArgType::kString, false, "util (default) or losses"},
      {"limit", ctl::ArgType::kInt, false,
       "keep only the top n links (0 = all)"}},
     [](Daemon& d, const json::Value& args) {
       tel::LinkSort sort = tel::LinkSort::kUtil;
       if (const auto* v = args.find("sort")) {
         if (!tel::parse_link_sort(v->string_value, &sort)) {
           return ctl::CommandResult::failure(
               ctl::kErrOutOfRange,
               "unknown sort '" + v->string_value + "' (util|losses)");
         }
       }
       std::size_t limit = 0;
       if (const auto* v = args.find("limit")) {
         if (v->number_value < 0) {
           return ctl::CommandResult::failure(ctl::kErrOutOfRange,
                                              "limit must be >= 0");
         }
         limit = static_cast<std::size_t>(v->number_value);
       }
       auto stats = d.service_.link_stats();
       tel::sort_links(stats, sort, limit);
       return ctl::CommandResult::success(tel::links_json(
           stats, d.health_.slot.load(std::memory_order_relaxed)));
     }},
    {"explain",
     "a flight record joined with the links saturated at its admission "
     "slot (why was THIS session rejected)",
     {{"id", ctl::ArgType::kInt, true, "record id (lane << 32 | seq)"}},
     [](Daemon& d, const json::Value& args) {
       const auto id = record_id(args);
       if (!id) {
         return ctl::CommandResult::failure(ctl::kErrOutOfRange,
                                            "id must be >= 0");
       }
       // Unknown ids still succeed with a found:false document — explain
       // is a join, and a missing record is a valid answer.
       const auto explained = d.service_.explain_session(*id);
       if (!explained) {
         return ctl::CommandResult::success(
             tel::explain_json(*id, nullptr, tel::SaturatedLinks{}));
       }
       return ctl::CommandResult::success(
           tel::explain_json(*id, &explained->record, explained->saturated));
     }},
    {"slo",
     "alert-rule table: list (default), set a rule, or remove one",
     {{"action", ctl::ArgType::kString, false, "list|set|remove"},
      {"name", ctl::ArgType::kString, false, "rule name (set/remove)"},
      {"kind", ctl::ArgType::kString, false,
       "counter-rate|gauge|histogram-quantile|ratio (set)"},
      {"metric", ctl::ArgType::kString, false,
       "counter/gauge/histogram name; ratio numerator (set)"},
      {"denominator", ctl::ArgType::kString, false,
       "ratio denominator counter (set, kind=ratio)"},
      {"quantile", ctl::ArgType::kNumber, false,
       "quantile in [0, 1] (set, kind=histogram-quantile; default 0.95)"},
      {"window-seconds", ctl::ArgType::kNumber, false,
       "trailing evaluation window (set; default 60)"},
      {"op", ctl::ArgType::kString, false,
       "above|below (set; default above)"},
      {"threshold", ctl::ArgType::kNumber, false, "breach threshold (set)"},
      {"for", ctl::ArgType::kInt, false,
       "consecutive breached samples before firing (set; default 1)"},
      {"severity", ctl::ArgType::kString, false,
       "free-form label surfaced with the alert (set; default warning)"}},
     [](Daemon& d, const json::Value& args) {
       std::string action = "list";
       if (const auto* v = args.find("action")) action = v->string_value;
       if (action == "list") {
         return ctl::CommandResult::success(
             tel::alerts_json(d.alerts_.status()));
       }
       const auto* name = args.find("name");
       if (name == nullptr || name->string_value.empty()) {
         return ctl::CommandResult::failure(
             ctl::kErrBadArg, "slo " + action + " needs name=<rule>");
       }
       if (action == "remove") {
         if (!d.alerts_.remove(name->string_value)) {
           return ctl::CommandResult::failure(
               ctl::kErrNotFound,
               "no alert rule named '" + name->string_value + "'");
         }
         return ctl::CommandResult::success(
             "{\"removed\": " + json::quote(name->string_value) + "}");
       }
       if (action != "set") {
         return ctl::CommandResult::failure(
             ctl::kErrOutOfRange,
             "unknown action '" + action + "' (list|set|remove)");
       }
       return upsert_alert_rule(d.alerts_, name->string_value, args);
     }},
};

// ---------------------------------------------------------------------------

/// Per-algorithm instruments (runtime labels — one daemon, one algorithm,
/// but a Prometheus server aggregating several muerpds can tell them apart
/// by name). The label is the boot-time algorithm: a counter cannot be
/// renamed mid-flight when `ctl set algorithm` changes it.
struct Daemon::Instruments {
  static constexpr std::size_t kHotLinkGauges = 5;

  const std::string label;
  const tel::Counter slots{"muerpd/slots/" + label};
  const tel::Counter requests{"muerpd/requests/" + label};
  const tel::Counter admitted{"muerpd/admitted/" + label};
  const tel::Counter completed{"muerpd/completed/" + label};
  const tel::Histogram slot_us{"muerpd/slot_us/" + label};
  // Scheduler-lag gauges: due-but-unplayed slots and how far past the
  // grid the next deadline is. Sampled into the time-series plane, where
  // the scheduler-backlog default alert rule watches the backlog level.
  const tel::Gauge backlog{"muerpd/scheduler/backlog"};
  const tel::Gauge overrun{"muerpd/scheduler/overrun_us"};
  // Hot-link families: the top-5 utilizations republished after every
  // wake (rank k in net/link_util/top<k>), plus a histogram of the same
  // values in percent — enough for a Prometheus panel and the slot-p95
  // style SLO rules without one family per link (the registry's
  // instrument caps are fixed).
  const tel::Gauge link_util[kHotLinkGauges] = {
      tel::Gauge("net/link_util/top0"), tel::Gauge("net/link_util/top1"),
      tel::Gauge("net/link_util/top2"), tel::Gauge("net/link_util/top3"),
      tel::Gauge("net/link_util/top4")};
  const tel::Histogram link_util_pct{"net/link_util_pct"};
};

Daemon::Daemon(const net::QuantumNetwork& network, DaemonOptions options)
    : network_(network),
      options_(std::move(options)),
      service_(network, options_.service, options_.seed),
      store_(options_.retention),
      alerts_(store_),
      sampler_(store_, tel::Sampler::Options{}),
      scheduler_(support::SlotScheduler::Options{
          std::chrono::nanoseconds(options_.slot_period),
          options_.tick_batch}),
      exporter_(options_.http) {
  // Historical plane: the sampler captures the registry into the store on
  // its own thread; the exporter serves windowed queries from it under
  // /api/v1/. In MUERP_TELEMETRY=OFF builds both are inert stubs and the
  // endpoints serve empty series.
  exporter_.set_time_series(&store_);
  // SLO alert engine: the whole rule table is evaluated right after every
  // registry capture, on the sampler's thread — alerting rides the
  // sampling the daemon already does.
  sampler_.set_after_sample([this](std::uint64_t t_ns) {
    alerts_.evaluate(t_ns);
    alerts_firing_.store(alerts_.firing(), std::memory_order_relaxed);
  });
  // submit() kicks the scheduler so a command never waits out a slot.
  mailbox_.set_wake([this] { scheduler_.kick(); });
  for (const Verb& verb : kVerbs) {
    registry_.add({verb.name, verb.summary, verb.args,
                   [this, &verb](const json::Value& args) {
                     return verb.run(*this, args);
                   }});
  }
  exporter_.set_health_fields([this](std::string& body) {
    body += ", \"state\": \"";
    body += state_name();
    body += "\"";
    {
      const std::lock_guard<std::mutex> lock(health_.algorithm_mutex);
      body += ", \"algorithm\": " + json::quote(health_.algorithm);
    }
    body += ", \"slot\": " +
            std::to_string(health_.slot.load(std::memory_order_relaxed));
    body += ", \"active_sessions\": " +
            std::to_string(health_.active.load(std::memory_order_relaxed));
    body += ", \"sessions_arrived\": " +
            std::to_string(health_.arrived.load(std::memory_order_relaxed));
    body += ", \"sessions_admitted\": " +
            std::to_string(health_.admitted.load(std::memory_order_relaxed));
    body += ", \"sessions_completed\": " +
            std::to_string(health_.completed.load(std::memory_order_relaxed));
    body += ", \"lanes\": " + std::to_string(options_.service.lane_count);
    body += ", \"shards\": " + std::to_string(options_.service.shard_count);
    body += ", \"alerts_firing\": " +
            std::to_string(alerts_firing_.load(std::memory_order_relaxed));
  });
  exporter_.add_route("POST", "/api/v1/ctl", [this](const auto& request) {
    // With a ctl token the control plane requires a matching bearer token;
    // read-only GET endpoints stay open (observability is not a mutation).
    // 401 carries the same envelope shape clients already parse, with the
    // stable unauthorized code.
    if (!options_.ctl_token.empty() &&
        request.authorization != "Bearer " + options_.ctl_token) {
      return tel::HttpExporter::response(
          401, "application/json",
          "{\"ok\": false, \"code\": \"unauthorized\", \"error\": "
          "\"missing or wrong bearer token (--ctl-token)\"}\n",
          "WWW-Authenticate: Bearer\r\n");
    }
    // Every outcome — success or failure — is HTTP 200 with the envelope
    // carrying ok/code; transport-level errors stay HTTP.
    return tel::HttpExporter::response(200, "application/json",
                                       registry_.dispatch(request.body));
  });
  // The read-only JSON pages are their ctl verbs behind one adapter, so
  // curl and muerpctl get identical documents and identical validation (an
  // OFF build serves empty-but-valid ones). Every verb here is read-only
  // and internally locked, so pages answer on the acceptor thread while
  // the lanes run; /api/v1/alerts pins `slo` to action=list.
  for (const VerbPage& page : kVerbPages) {
    const auto handler = [this, &page](const tel::HttpRequest& request) {
      return serve_verb_page(registry_, page, request);
    };
    if (page.path_arg != nullptr) {
      exporter_.add_prefix_route("GET", page.path, handler);
    } else {
      exporter_.add_route("GET", page.path, handler);
    }
  }
  exporter_.add_route("GET", "/api/v1/topology.svg", [this](const auto&) {
    std::vector<double> utilization(network_.graph().edges().size(), 0.0);
    for (const tel::LinkStat& stat : service_.link_stats()) {
      if (stat.kind == tel::LinkKind::kEdge &&
          stat.index < utilization.size()) {
        utilization[stat.index] = stat.utilization;
      }
    }
    net::SvgOptions svg_options;
    svg_options.edge_utilization = &utilization;
    svg_options.title =
        "muerpd link utilization, slot " +
        std::to_string(health_.slot.load(std::memory_order_relaxed));
    return tel::HttpExporter::response(
        200, "image/svg+xml", net::to_svg(network_, nullptr, svg_options));
  });
}

Daemon::~Daemon() {
  // Close the mailbox BEFORE the exporter: pending and future control
  // submits fail fast with shutting_down, so an acceptor thread blocked in
  // a ctl request can answer and the exporter join cannot deadlock.
  mailbox_.close();
  sampler_.stop();
  exporter_.stop();
}


void Daemon::add_setting_flags(support::CliParser& cli) {
  for (const Setting& setting : kSettings) {
    if (setting.flag != nullptr) {
      cli.add_flag(setting.flag, setting.help, setting.flag_default);
    }
  }
}

bool Daemon::apply_flags(const support::CliParser& cli, std::string* error) {
  for (const Setting& setting : kSettings) {
    if (setting.flag == nullptr) continue;
    const json::Value value =
        json::parse(ctl::token_json(cli.get_string(setting.flag))).value;
    const ctl::CommandResult result = setting.set(*this, value);
    if (!result.ok) {
      *error = "--" + std::string(setting.flag) + ": " + result.message;
      return false;
    }
  }
  return true;
}

bool Daemon::start(std::string* error) {
  // Durable session history: replay previous runs (truncating any torn
  // tail), then mark this run's start.
  if (!options_.history_path.empty()) {
    if (!history_.open(options_.history_path, error)) return false;
    if (history_.bytes_truncated() > 0) {
      MUERP_LOG_WARN("muerpd/history_truncated",
                     tel::field("bytes", history_.bytes_truncated()));
    }
    history_.begin_run();
  }
  // Default SLO rules every muerpd shares. All burn-rate style (three
  // consecutive breached samples) so one noisy sample never fires; `ctl slo
  // set`/`remove` can retune or drop any of them at runtime.
  tel::AlertRule rejections;
  rejections.name = "rejection-ratio";
  rejections.kind = tel::AlertKind::kRatio;
  rejections.metric = "session/rejected";
  rejections.denominator = "session/arrived";
  rejections.threshold = 0.5;
  rejections.for_count = 3;
  alerts_.upsert(rejections);

  tel::AlertRule backlog;
  backlog.name = "scheduler-backlog";
  backlog.kind = tel::AlertKind::kGauge;
  backlog.metric = "muerpd/scheduler/backlog";
  backlog.threshold = static_cast<double>(options_.tick_batch);
  backlog.for_count = 3;
  alerts_.upsert(backlog);

  if (options_.slot_period.count() > 0) {
    // A paced daemon whose p95 slot latency exceeds the slot period is
    // falling behind its own grid.
    tel::AlertRule p95;
    p95.name = "slot-p95-us";
    p95.kind = tel::AlertKind::kHistogramQuantile;
    p95.metric = "muerpd/slot_us/" + algorithm_name();
    p95.quantile = 0.95;
    p95.threshold = static_cast<double>(options_.slot_period.count()) * 1000.0;
    p95.for_count = 3;
    alerts_.upsert(p95);
  }
  // Observability plane up before the first slot so a scraper never sees
  // connection refused while the service is live.
  std::string serve_error;
  if (!exporter_.start(&serve_error)) {
    *error = "cannot serve on " + options_.http.bind_address + ":" +
             std::to_string(options_.http.port) + ": " + serve_error;
    return false;
  }
  sampler_.start();
  publish_health();  // slot-0 snapshot, so early scrapes see real fields
  const std::string label = algorithm_name();
  MUERP_LOG_INFO("muerpd/start", tel::field("algorithm", label),
                 tel::field("port", exporter_.port()),
                 tel::field("users", network_.users().size()),
                 tel::field("switches", network_.switches().size()));
  instruments_ = std::make_unique<Instruments>(label);
  return true;
}

const Daemon::Setting* Daemon::find_setting(const std::string& name,
                                            ctl::CommandResult* error) const {
  for (const Setting& setting : kSettings) {
    if (setting.name == name) return &setting;
  }
  std::string known;
  for (const Setting& setting : kSettings) {
    if (!known.empty()) known += ", ";
    known += setting.name;
  }
  *error = ctl::CommandResult::failure(
      ctl::kErrBadArg, "unknown setting '" + name + "' (known: " + known + ")");
  return nullptr;
}

const char* Daemon::state_name() const {
  static constexpr const char* kNames[] = {"running", "paused", "draining"};
  return kNames[static_cast<int>(run_state_.load(std::memory_order_relaxed))];
}

std::string Daemon::algorithm_name() const {
  return service_.algorithm().empty() ? sim::kSharedPrimAlgorithm
                                      : service_.algorithm();
}

std::optional<ctl::CommandResult> Daemon::refuse_if_draining() const {
  if (run_state_.load(std::memory_order_relaxed) == RunState::kDraining) {
    return ctl::CommandResult::failure(ctl::kErrDraining, "daemon is draining");
  }
  return std::nullopt;
}

void Daemon::begin_drain() {
  service_.set_arrivals_enabled(false);
  run_state_.store(RunState::kDraining, std::memory_order_relaxed);
}

void Daemon::publish_health() {
  const sim::ProtocolMetrics m = service_.metrics();
  {
    const std::lock_guard<std::mutex> lock(health_.algorithm_mutex);
    health_.algorithm = algorithm_name();
  }
  health_.slot.store(service_.slot(), std::memory_order_relaxed);
  health_.active.store(service_.active_sessions(), std::memory_order_relaxed);
  health_.arrived.store(m.sessions_arrived, std::memory_order_relaxed);
  health_.admitted.store(m.sessions_admitted, std::memory_order_relaxed);
  health_.completed.store(m.sessions_completed, std::memory_order_relaxed);
}

void Daemon::publish_hot_links() {
  if (!options_.service.record_links) return;
  auto hot = service_.link_stats();
  tel::sort_links(hot, tel::LinkSort::kUtil, Instruments::kHotLinkGauges);
  for (std::size_t k = 0; k < Instruments::kHotLinkGauges; ++k) {
    const double util = k < hot.size() ? hot[k].utilization : 0.0;
    instruments_->link_util[k].set(util);
    if (k < hot.size()) instruments_->link_util_pct.observe(util * 100.0);
  }
}

void Daemon::flush_history(bool force) {
  if (!history_.is_open()) return;
  const std::uint64_t now = tel::monotonic_now_ns();
  if (!force && now - history_last_append_ns_ < 250'000'000ull) return;
  const sim::ProtocolMetrics m = service_.metrics();
  ctl::HistoryRecord record;
  record.slots = service_.slot() - history_flushed_slots_;
  record.arrived = m.sessions_arrived - history_flushed_.sessions_arrived;
  record.admitted = m.sessions_admitted - history_flushed_.sessions_admitted;
  record.completed = m.sessions_completed - history_flushed_.sessions_completed;
  record.timed_out = m.sessions_timed_out - history_flushed_.sessions_timed_out;
  record.rejected = m.sessions_rejected - history_flushed_.sessions_rejected;
  history_last_append_ns_ = now;
  // A forced flush (drain/shutdown, `ctl get lifetime`) must never skip:
  // the idle check exists only to keep a paused daemon from growing the
  // file, and it has to cover EVERY delta field — a tick whose only news
  // was admissions/rejections must not be dropped and lost on kill.
  if (!force && record.slots == 0 && record.arrived == 0 &&
      record.admitted == 0 && record.completed == 0 &&
      record.timed_out == 0 && record.rejected == 0) {
    return;  // nothing new — don't grow the file while paused/idle
  }
  if (history_.append(record)) {
    history_flushed_ = m;
    history_flushed_slots_ = service_.slot();
  }
}

sim::ShardTickReport Daemon::play(std::uint64_t n) {
  const std::uint64_t t0 = tel::monotonic_now_ns();
  const sim::ShardTickReport tick = service_.run_slots(n);
  // Mean per-slot latency over the batch (one observation per slot keeps
  // the histogram's count equal to the slot count).
  const double per_slot_us =
      static_cast<double>(tel::monotonic_now_ns() - t0) /
      (1e3 * static_cast<double>(n));
  for (std::uint64_t s = 0; s < n; ++s) {
    instruments_->slot_us.observe(per_slot_us);
  }
  instruments_->slots.add(n);
  instruments_->requests.add(tick.arrivals);
  instruments_->admitted.add(tick.admissions);
  if (tick.completed > 0) instruments_->completed.add(tick.completed);
  instruments_->backlog.set(static_cast<double>(scheduler_.backlog()));
  instruments_->overrun.set(static_cast<double>(scheduler_.overrun_ns()) /
                            1e3);
  publish_health();
  publish_hot_links();
  flush_history(false);
  // Heartbeat: one debug line per 256 wakes, not one per slot.
  MUERP_LOG_EVERY_N(256, tel::LogLevel::kDebug, "muerpd/slot",
                    tel::field("slot", service_.slot()),
                    tel::field("batch", n),
                    tel::field("active", tick.active_sessions),
                    tel::field("qubit_utilization", tick.qubit_utilization));
  return tick;
}

RunReport Daemon::run(const std::atomic<int>& stop) {
  // Event-driven slot loop: drain control commands at the tick boundary,
  // block until the next slot on the fixed grid is due, play every due slot
  // as one batch (one parallel dispatch across the lanes), publish, repeat.
  // acquire() bounds its waits so a stop request (a signal cannot wake the
  // condition variable) is observed promptly; a 0 return is just a control
  // wake. While paused, due slots are advanced WITHOUT being played: the
  // grid keeps moving, so resume continues at the live edge with no
  // catch-up burst, and a max_slots-bounded run still plays exactly its N
  // slots — which is what makes a paused-then-resumed run bit-identical to
  // an unpaused one. Draining (first stop request or `ctl drain`) plays
  // unpaced single slots until no session is active, for at most
  // timeout + 1 slots; a second stop request ends it.
  RunReport report;
  const std::uint64_t max_slots = options_.max_slots;
  const std::uint64_t drain_cap =
      options_.service.base.params.session_timeout_slots + 1;
  while (max_slots == 0 || service_.slot() < max_slots) {
    mailbox_.drain();  // tick boundary: apply queued control commands
    const int stops = stop.load(std::memory_order_relaxed);
    if (stops >= 2) break;
    if (stops == 1 &&
        run_state_.load(std::memory_order_relaxed) != RunState::kDraining) {
      begin_drain();
    }
    const RunState state = run_state_.load(std::memory_order_relaxed);
    if (state == RunState::kDraining) {
      if (service_.active_sessions() == 0 || report.drain_slots >= drain_cap) {
        break;
      }
      report.drained_completed += play(1).completed;
      ++report.drain_slots;
      continue;
    }
    if (state == RunState::kPaused) {
      publish_health();
      if (options_.slot_period.count() == 0) {
        // Unpaced pause has no deadline grid to follow — idle on the
        // mailbox instead of spinning through immediate acquire()s.
        mailbox_.wait_pending(std::chrono::milliseconds(50));
        continue;
      }
      const std::uint64_t due = scheduler_.acquire();
      mailbox_.drain();  // a resume may be what woke the wait
      if (run_state_.load(std::memory_order_relaxed) == RunState::kPaused &&
          due > 0) {
        scheduler_.advance(due);  // grid moves on; the slots are not played
      }
      continue;
    }
    std::uint64_t due = scheduler_.acquire();
    if (due == 0) continue;  // control wake: drain at the top of the loop
    if (max_slots != 0) {
      due = std::min<std::uint64_t>(due, max_slots - service_.slot());
    }
    scheduler_.advance(due);
    play(due);
  }

  // Sessions still in flight when the daemon exits are finalized as
  // drained flight records — "killed mid-run" stays distinguishable from
  // "timed out" in the recorder.
  service_.finalize_session_records();
  flush_history(true);
  history_.close();

  report.metrics = service_.metrics();
  report.slots = service_.slot();
  report.algorithm = algorithm_name();
  report.log_suppressed = service_.log_events_suppressed();
  MUERP_LOG_INFO("muerpd/shutdown", tel::field("slot", report.slots),
                 tel::field("arrived", report.metrics.sessions_arrived),
                 tel::field("completed", report.metrics.sessions_completed),
                 tel::field("drain_slots", report.drain_slots),
                 tel::field("drained_completed", report.drained_completed),
                 tel::field("active_remaining", service_.active_sessions()),
                 tel::field("log_suppressed", report.log_suppressed));
  mailbox_.close();
  sampler_.stop();
  exporter_.stop();
  report.http_requests = exporter_.requests_served();
  report.samples = sampler_.samples_taken();

  if (!options_.snapshot_out.empty()) {
    std::ofstream out(options_.snapshot_out);
    if (out) {
      out << tel::snapshot_document(tel::capture_process(),
                                    tel::recent_log_events());
    } else {
      std::cerr << "muerpd: cannot write --snapshot-out "
                << options_.snapshot_out << '\n';
    }
  }
  return report;
}

}  // namespace muerp::daemon
