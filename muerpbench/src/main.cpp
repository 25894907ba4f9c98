// muerpbench — the repository benchmark harness.
//
//   muerpbench --workload paper_sweep|groups10_drain|pairs_scraped
//              --seed N --seconds S --trace 0|1
//              --muerpd PATH --work-dir DIR --golden PATH
//
// Prints "# ..." detail lines, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 3 without a
// result when the measurement is invalid (the open-loop scraper ran late).
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <thread>

#include "support/cli.hpp"
#include "support/telemetry/log.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace muerpbench;
  muerp::support::CliParser cli("muerpbench — muerp benchmark workloads");
  cli.add_flag("workload", "paper_sweep|groups10_drain|pairs_scraped", "");
  cli.add_flag("seed", "workload seed", "1");
  cli.add_flag("seconds", "measured seconds per pass", "10");
  cli.add_flag("trace", "1 = traced run with per-layer metrics", "0");
  cli.add_flag("muerpd", "daemon binary under test", "");
  cli.add_flag("work-dir", "directory for generated inputs and outputs", "");
  cli.add_flag("golden", "paper_sweep golden file", "");
  cli.add_flag("setup-probe", "internal: paper_sweep set-up probe", "false");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;
  muerp::support::telemetry::set_log_level(muerp::support::telemetry::LogLevel::kWarn);

  Options options;
  options.workload = cli.get_string("workload");
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed").value_or(1));
  if (cli.get_bool("setup-probe")) return setup_probe(options.seed);
  options.seconds = cli.get_double("seconds").value_or(10);
  options.trace = cli.get_int("trace").value_or(0) != 0;
  options.muerpd = cli.get_string("muerpd");
  options.work_dir = cli.get_string("work-dir");
  options.golden = cli.get_string("golden");
  options.self = std::filesystem::read_symlink("/proc/self/exe").string();
  options.nproc = std::max(1u, std::thread::hardware_concurrency());
  if (options.muerpd.empty() || options.work_dir.empty() || options.seconds <= 0) {
    std::cerr << "muerpbench: --muerpd, --work-dir and --seconds > 0 are required\n";
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);

  Outcome out;
  if (options.workload == "paper_sweep") {
    run_paper_sweep(options, out);
  } else if (options.workload == "groups10_drain" ||
             options.workload == "pairs_scraped") {
    run_session_workload(options, out);
  } else {
    std::cerr << "muerpbench: unknown --workload '" << options.workload << "'\n";
    return 2;
  }
  out.info.set("nproc", static_cast<double>(options.nproc));
  std::cout << "# info " << out.info.str() << '\n';
  for (const std::string& failure : out.failures) {
    std::cout << "# check failed: " << failure << '\n';
  }
  if (!out.invalid.empty()) {
    std::cerr << "muerpbench: invalid run: " << out.invalid << '\n';
    return 3;
  }
  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed
            << ", \"metrics\": " << out.metrics.str() << "}" << std::endl;
  return 0;
}
