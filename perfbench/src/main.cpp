// perfbench: the repository benchmark's driver program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --data <dir>
//             [--policy escape|raft] [--nodes <n>]
//   perfbench --selftest
//
// Runs one workload against the program's public API, checks its outputs,
// and prints a human-readable report followed, as the last line of standard
// output, by one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (and the traced run's own end-to-end figures).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> values) { return percentile(std::move(values), 50); }

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload kv_mixed_durable|failover_kill|sim_paper_scale "
               "--seed N --seconds S --trace 0|1 --data DIR [--policy escape|raft] [--nodes N]\n"
               "       perfbench --selftest\n");
  return 2;
}

void print_json(const perfbench::Result& r, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.problems.empty() ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const auto& metrics = trace ? r.per_layer : r.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = perfbench::now_ns();
  std::string workload;
  std::string data;
  perfbench::RunConfig config;
  config.process_start_ns = process_start;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return perfbench::run_selftest();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--data") {
      data = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end && *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end && *end == '\0' && config.seconds >= 1 && config.seconds <= 600;
    } else if (arg == "--policy") {
      if (value != "escape" && value != "raft") return usage();
      config.raft_policy = value == "raft";
    } else if (arg == "--nodes") {
      config.nodes = std::strtoul(value.c_str(), &end, 10);
      if (!end || *end != '\0' || config.nodes < 1 || config.nodes > 9) return usage();
    } else if (arg == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else {
      return usage();
    }
  }
  if (workload.empty() || data.empty() || !have_seed || !have_seconds || !have_trace) return usage();

  perfbench::Result (*run)(const perfbench::RunConfig&) = nullptr;
  if (workload == "kv_mixed_durable") run = perfbench::run_kv_mixed_durable;
  if (workload == "failover_kill") run = perfbench::run_failover_kill;
  if (workload == "sim_paper_scale") run = perfbench::run_sim_paper_scale;
  if (!run) return usage();

  config.data_root = data + "/run-" + std::to_string(::getpid());
  perfbench::Result result;
  int status = 0;
  try {
    std::filesystem::create_directories(config.data_root);
    result = run(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(), e.what());
    status = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(config.data_root, ignored);
  if (status != 0) return status;

  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds, config.trace ? 1 : 0);
  for (const auto& line : result.report) std::printf("  %s\n", line.c_str());
  for (const auto& problem : result.problems) std::printf("  VIOLATION: %s\n", problem.c_str());
  print_json(result, config.trace);
  std::fflush(stdout);
  return 0;
}
