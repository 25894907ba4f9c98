// bench_diff — perf-regression gate over perf_algorithms --compare files.
//
// Compares a freshly generated routing benchmark JSON against the committed
// baseline (BENCH_routing.json) and exits non-zero when the hot path
// regressed. CI runs:
//
//   perf_algorithms --compare BENCH_fresh.json
//   bench_diff --baseline BENCH_routing.json --current BENCH_fresh.json
//
// Machines differ, so the gate never judges absolute milliseconds. It
// checks what is machine-independent:
//
//   * speedup ratios (cached-vs-uncached per algorithm, the greedy hot path
//     — Algorithm 4's growth vs its paper-literal reference — the greedy
//     total, SPF kernel at §V-A and session size) must not drop more than
//     --tolerance below the baseline — except a per-algorithm row whose
//     committed cached and uncached columns did the same search work
//     (equal Dijkstra runs and heap pops): its ratio is timer noise, so it
//     is printed for information and every counter the two columns share
//     must instead stay exactly equal between them;
//   * "identical" result flags that were true must stay true;
//   * per-repetition rate arrays must match the baseline bit for bit
//     (--allow-rate-drift downgrades this to a warning for PRs that
//     intentionally change routing results and will re-commit the baseline);
//   * telemetry counters and span call counts (deterministic work counts:
//     Dijkstra runs, heap pops, channel searches) must stay within
//     --tolerance in either direction — quiet workload growth is how perf
//     regressions sneak past ratio checks.
//
// Wall-clock columns (and per-span self/total ms) are printed in the diff
// tables for the reviewer but never gate.
#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace {

using muerp::support::json::ParseResult;
using muerp::support::json::Value;

int fail(const std::string& message) {
  std::cerr << "bench_diff: " << message << '\n';
  return 2;
}

/// Reads and parses the JSON file at `path`; false with *error naming it.
bool load_json(const std::string& path, ParseResult* out,
               std::string* error) {
  std::ifstream file(path);
  if (!file) {
    *error = "cannot read " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  *out = muerp::support::json::parse(buffer.str());
  if (!out->ok()) {
    *error = path + ": " + out->error;
    return false;
  }
  return true;
}

bool rates_identical(const Value& base, const Value& cur) {
  const Value& b = base["rates"];
  const Value& c = cur["rates"];
  if (b.elements.size() != c.elements.size()) return false;
  for (std::size_t i = 0; i < b.elements.size(); ++i) {
    // The emitter round-trips doubles (max_digits10), so string-level
    // equality of re-parsed values is bit-level equality of the rates.
    if (b.elements[i].number_value != c.elements[i].number_value) {
      return false;
    }
  }
  return true;
}

struct Gate {
  int failures = 0;
  double tolerance = 0.15;

  /// Ratio metric (speedup): only a *drop* beyond tolerance fails.
  void check_speedup(const std::string& what, double baseline,
                     double current) {
    if (baseline <= 0.0) return;
    const double floor = baseline * (1.0 - tolerance);
    if (current < floor) {
      ++failures;
      std::cerr << "FAIL " << what << ": speedup " << current << " below "
                << floor << " (baseline " << baseline << " - "
                << tolerance * 100 << "%)\n";
    }
  }

  /// Work-count metric: drift beyond tolerance in either direction fails.
  void check_count(const std::string& what, double baseline, double current) {
    if (baseline == 0.0) {
      if (current != 0.0) {
        ++failures;
        std::cerr << "FAIL " << what << ": baseline 0, current " << current
                  << '\n';
      }
      return;
    }
    const double drift = std::abs(current - baseline) / std::abs(baseline);
    if (drift > tolerance) {
      ++failures;
      std::cerr << "FAIL " << what << ": " << baseline << " -> " << current
                << " (" << drift * 100 << "% drift, tolerance "
                << tolerance * 100 << "%)\n";
    }
  }

  /// Exact-equality metric: two deterministic counts that must agree.
  void check_equal(const std::string& what, double expected, double actual) {
    if (actual != expected) {
      ++failures;
      std::cerr << "FAIL " << what << ": " << expected << " vs " << actual
                << '\n';
    }
  }

  /// Per-repetition rate arrays must match bit for bit; `allow_drift`
  /// downgrades a mismatch to a warning.
  void check_rates(const std::string& what, const Value& baseline,
                   const Value& current, bool allow_drift) {
    if (rates_identical(baseline, current)) return;
    if (allow_drift) {
      std::cerr << "WARN " << what
                << ": rate arrays differ from baseline (allowed)\n";
      return;
    }
    ++failures;
    std::cerr << "FAIL " << what
              << ": rate arrays differ from baseline (routing results "
                 "changed; re-commit the baseline if intended)\n";
  }

  /// Gates the telemetry counters of two documents two-sided, keeping only
  /// names that start with one of `prefixes` (all when empty). False when
  /// either side has no snapshot (an OFF build writes "enabled": false).
  bool check_counters(const std::string& what, const Value& baseline,
                      const Value& current,
                      std::initializer_list<const char*> prefixes = {}) {
    const Value& base_tel = baseline["telemetry"];
    const Value& cur_tel = current["telemetry"];
    if (!base_tel["enabled"].bool_value || !cur_tel["enabled"].bool_value) {
      std::cout << "(" << what << " snapshot missing from one side; "
                << "counter gates skipped)\n";
      return false;
    }
    for (const auto& [counter, base_value] :
         base_tel["snapshot"]["counters"].members) {
      if (prefixes.size() > 0 &&
          std::none_of(prefixes.begin(), prefixes.end(),
                       [&counter](const char* prefix) {
                         return counter.rfind(prefix, 0) == 0;
                       })) {
        continue;
      }
      check_count(what + " counter " + counter, base_value.number_value,
                  cur_tel["snapshot"]["counters"][counter].number_value);
    }
    return true;
  }

  void check_flag(const std::string& what, bool baseline, bool current) {
    if (baseline && !current) {
      ++failures;
      std::cerr << "FAIL " << what << ": was identical, now differs\n";
    }
  }
};

const Value* find_algorithm(const Value& doc, const std::string& name) {
  const Value& algorithms = doc["algorithms"];
  for (const Value& alg : algorithms.elements) {
    if (alg["name"].string_value == name) return &alg;
  }
  return nullptr;
}

const Value* find_span(const Value& spans, const std::string& label) {
  for (const Value& span : spans.elements) {
    if (span["label"].string_value == label) return &span;
  }
  return nullptr;
}

/// True when a per-algorithm row's committed cached and uncached columns
/// did the same search work (equal Dijkstra runs and heap pops): the cache
/// saved nothing there, so the row's speedup ratio can only measure noise.
bool same_work(const Value& alg) {
  for (const char* counter : {"dijkstra_runs", "heap_pops"}) {
    const Value* cached = alg["cached"].find(counter);
    const Value* uncached = alg["uncached"].find(counter);
    if (cached == nullptr || uncached == nullptr ||
        cached->number_value != uncached->number_value) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  muerp::support::CliParser cli(
      "bench_diff — gate a fresh perf_algorithms --compare run against the "
      "committed baseline");
  cli.add_flag("baseline", "committed benchmark JSON", "BENCH_routing.json");
  cli.add_flag("current", "freshly generated benchmark JSON", "");
  cli.add_flag("batch-baseline",
               "committed batch_routing JSON (gates run only when "
               "--batch-current is also given)",
               "");
  cli.add_flag("batch-current", "freshly generated batch_routing JSON", "");
  cli.add_flag("session-baseline",
               "committed session_throughput JSON (gates run only when "
               "--session-current is also given)",
               "");
  cli.add_flag("session-current", "freshly generated session_throughput JSON",
               "");
  cli.add_flag("tolerance", "allowed relative drift (0.15 = 15%)", "0.15");
  cli.add_flag("allow-rate-drift",
               "rate array mismatch warns instead of failing");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;
  if (cli.get_string("current").empty()) {
    return fail("--current <file> is required");
  }

  ParseResult baseline;
  ParseResult current;
  std::string error;
  if (!load_json(cli.get_string("baseline"), &baseline, &error) ||
      !load_json(cli.get_string("current"), &current, &error)) {
    return fail(error);
  }

  Gate gate;
  gate.tolerance = cli.get_double("tolerance").value_or(0.15);
  const bool allow_rate_drift = cli.get_bool("allow-rate-drift");

  // Per-algorithm: speedup ratio, identical flag, rate bit-identity, and
  // the cached-run work counters.
  muerp::support::Table algorithms(
      "per-algorithm speedups (cached vs uncached)",
      {"algorithm", "base", "current", "base ms", "current ms"});
  for (const Value& base_alg : baseline.value["algorithms"].elements) {
    const std::string& name = base_alg["name"].string_value;
    const Value* cur_alg = find_algorithm(current.value, name);
    if (cur_alg == nullptr) {
      ++gate.failures;
      std::cerr << "FAIL algorithm '" << name << "' missing from current\n";
      continue;
    }
    algorithms.add_row(name, {base_alg["speedup"].number_value,
                              (*cur_alg)["speedup"].number_value,
                              base_alg["cached_ms"].number_value,
                              (*cur_alg)["cached_ms"].number_value});
    if (same_work(base_alg)) {
      // Both columns ran the same search, so the ms ratio is timer noise:
      // gate the counters the columns share exactly instead, and print
      // the ratio for information.
      for (const auto& [counter, base_value] : base_alg["cached"].members) {
        if (base_value.number_value !=
            base_alg["uncached"][counter].number_value) {
          continue;
        }
        gate.check_equal(name + " cached." + counter + " == uncached",
                         (*cur_alg)["uncached"][counter].number_value,
                         (*cur_alg)["cached"][counter].number_value);
      }
      std::cout << "INFO " << name << ": speedup "
                << (*cur_alg)["speedup"].number_value
                << " not gated (same work in both columns)\n";
    } else {
      gate.check_speedup(name + " speedup", base_alg["speedup"].number_value,
                         (*cur_alg)["speedup"].number_value);
    }
    gate.check_flag(name + " identical", base_alg["identical"].bool_value,
                    (*cur_alg)["identical"].bool_value);
    gate.check_rates(name, base_alg, *cur_alg, allow_rate_drift);
    for (const auto& [counter, base_value] : base_alg["cached"].members) {
      gate.check_count(name + " cached." + counter, base_value.number_value,
                       (*cur_alg)["cached"][counter].number_value);
    }
  }
  std::cout << algorithms;

  // Aggregate hot-path ratios.
  for (const char* section : {"greedy_hot_path", "greedy_total"}) {
    gate.check_speedup(section,
                       baseline.value[section]["speedup"].number_value,
                       current.value[section]["speedup"].number_value);
  }
  gate.check_flag("greedy_hot_path identical",
                  baseline.value["greedy_hot_path"]["identical"].bool_value,
                  current.value["greedy_hot_path"]["identical"].bool_value);
  // Kernel-vs-legacy Dijkstra at the §V-A size and at the session daemon's.
  for (const char* section : {"spf_kernel", "spf_kernel_session"}) {
    gate.check_speedup(section,
                       baseline.value[section]["speedup"].number_value,
                       current.value[section]["speedup"].number_value);
    gate.check_flag(std::string(section) + " identical",
                    baseline.value[section]["identical"].bool_value,
                    current.value[section]["identical"].bool_value);
  }

  // Telemetry counters + per-span diff (only when both runs captured them
  // — OFF builds write "enabled": false and an empty snapshot).
  if (gate.check_counters("telemetry", baseline.value, current.value)) {
    const Value& base_tel = baseline.value["telemetry"];
    const Value& cur_tel = current.value["telemetry"];
    muerp::support::Table spans(
        "per-span diff (calls gate; ms informational)",
        {"span", "base calls", "cur calls", "base self ms", "cur self ms",
         "self ms delta %"});
    const Value& base_spans = base_tel["snapshot"]["spans"];
    const Value& cur_spans = cur_tel["snapshot"]["spans"];
    for (const Value& base_span : base_spans.elements) {
      const std::string& label = base_span["label"].string_value;
      const Value* cur_span = find_span(cur_spans, label);
      if (cur_span == nullptr) {
        ++gate.failures;
        std::cerr << "FAIL span '" << label << "' missing from current\n";
        continue;
      }
      const double base_ms = base_span["self_ms"].number_value;
      const double cur_ms = (*cur_span)["self_ms"].number_value;
      spans.add_row(label,
                    {base_span["count"].number_value,
                     (*cur_span)["count"].number_value, base_ms, cur_ms,
                     base_ms > 0.0 ? (cur_ms / base_ms - 1.0) * 100.0 : 0.0});
      gate.check_count("span " + label + " calls",
                       base_span["count"].number_value,
                       (*cur_span)["count"].number_value);
    }
    std::cout << spans;
  }

  // Batch-kernel gates (bench/batch_routing output). Same philosophy: the
  // batch-vs-reference speedup and the groups/sec ratio are machine-
  // relative and gate drop-only; the identical flags and rate arrays are
  // exact; admission-latency quantiles are absolute microseconds and only
  // inform. Runs only when both files are supplied so the routing gate
  // keeps working standalone.
  const std::string batch_baseline_path = cli.get_string("batch-baseline");
  const std::string batch_current_path = cli.get_string("batch-current");
  if (!batch_baseline_path.empty() && !batch_current_path.empty()) {
    ParseResult batch_baseline;
    ParseResult batch_current;
    if (!load_json(batch_baseline_path, &batch_baseline, &error) ||
        !load_json(batch_current_path, &batch_current, &error)) {
      return fail(error);
    }

    muerp::support::Table batch_table(
        "batch kernel vs sequential reference",
        {"policy", "base speedup", "cur speedup", "base groups/s",
         "cur groups/s"});
    for (const char* section : {"given_order", "fair_share"}) {
      const Value& base_sec = batch_baseline.value[section];
      const Value& cur_sec = batch_current.value[section];
      batch_table.add_row(section,
                          {base_sec["speedup"].number_value,
                           cur_sec["speedup"].number_value,
                           base_sec["batch_groups_per_sec"].number_value,
                           cur_sec["batch_groups_per_sec"].number_value});
      gate.check_speedup(std::string("batch ") + section + " speedup",
                         base_sec["speedup"].number_value,
                         cur_sec["speedup"].number_value);
      gate.check_flag(std::string("batch ") + section + " identical",
                      base_sec["identical"].bool_value,
                      cur_sec["identical"].bool_value);
      gate.check_rates(std::string("batch ") + section, base_sec, cur_sec,
                       allow_rate_drift);
    }
    std::cout << batch_table;
    const Value& base_admit = batch_baseline.value["admit_us"];
    const Value& cur_admit = batch_current.value["admit_us"];
    std::cout << "admission latency us (informational): p50 "
              << base_admit["p50"].number_value << " -> "
              << cur_admit["p50"].number_value << ", p99 "
              << base_admit["p99"].number_value << " -> "
              << cur_admit["p99"].number_value << '\n';

    gate.check_counters("batch telemetry", batch_baseline.value,
                        batch_current.value);
  }

  // Sharded session-plane gates (bench/session_throughput output). The
  // sessions/sec speedup of the 8-shard arm over the cold single-service
  // baseline is machine-relative and gates drop-only; the two bit-identity
  // flags (1-lane sharded == SessionService, merged metrics equal across
  // shard counts) and the merged session counts are exact; the per-arm
  // admission-latency quantiles are absolute microseconds and only inform.
  // Telemetry gating is restricted to the session/ and batch/ counter
  // families — those are lane-deterministic, whereas spf/ CSR-build counts
  // scale with the worker-thread count and would differ across machines.
  const std::string session_baseline_path = cli.get_string("session-baseline");
  const std::string session_current_path = cli.get_string("session-current");
  if (!session_baseline_path.empty() && !session_current_path.empty()) {
    ParseResult session_baseline;
    ParseResult session_current;
    if (!load_json(session_baseline_path, &session_baseline, &error) ||
        !load_json(session_current_path, &session_current, &error)) {
      return fail(error);
    }
    const Value& base_doc = session_baseline.value;
    const Value& cur_doc = session_current.value;

    muerp::support::Table session_table(
        "sharded session plane (sessions/sec; p50 admit us informational)",
        {"arm", "base sessions/s", "cur sessions/s", "base p50 us",
         "cur p50 us"});
    session_table.add_row(
        "baseline",
        {base_doc["baseline"]["sessions_per_sec"].number_value,
         cur_doc["baseline"]["sessions_per_sec"].number_value,
         base_doc["baseline"]["admit_us"]["p50"].number_value,
         cur_doc["baseline"]["admit_us"]["p50"].number_value});
    const Value& base_arms = base_doc["sharded"];
    const Value& cur_arms = cur_doc["sharded"];
    for (const Value& base_arm : base_arms.elements) {
      const double shards = base_arm["shards"].number_value;
      const Value* cur_arm = nullptr;
      for (const Value& candidate : cur_arms.elements) {
        if (candidate["shards"].number_value == shards) cur_arm = &candidate;
      }
      if (cur_arm == nullptr) {
        ++gate.failures;
        std::cerr << "FAIL session arm with " << shards
                  << " shards missing from current\n";
        continue;
      }
      session_table.add_row(
          std::to_string(static_cast<int>(shards)) + " shards",
          {base_arm["sessions_per_sec"].number_value,
           (*cur_arm)["sessions_per_sec"].number_value,
           base_arm["admit_us"]["p50"].number_value,
           (*cur_arm)["admit_us"]["p50"].number_value});
    }
    std::cout << session_table;

    gate.check_speedup("session throughput speedup",
                       base_doc["speedup"].number_value,
                       cur_doc["speedup"].number_value);
    gate.check_flag("session identical_lane1",
                    base_doc["identical_lane1"].bool_value,
                    cur_doc["identical_lane1"].bool_value);
    gate.check_flag("session identical_across_shards",
                    base_doc["identical_across_shards"].bool_value,
                    cur_doc["identical_across_shards"].bool_value);
    for (const char* count : {"arrived", "admitted", "completed"}) {
      gate.check_count(std::string("session counts.") + count,
                       base_doc["counts"][count].number_value,
                       cur_doc["counts"][count].number_value);
    }

    gate.check_counters("session telemetry", base_doc, cur_doc,
                        {"session/", "batch/"});
  }

  if (gate.failures > 0) {
    std::cerr << "bench_diff: " << gate.failures << " gate failure(s)\n";
    return 1;
  }
  std::cout << "bench_diff: all gates passed (tolerance "
            << gate.tolerance * 100 << "%)\n";
  return 0;
}
