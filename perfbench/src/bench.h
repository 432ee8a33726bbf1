// Shared types of the repository benchmark (see perfbench/README.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock); every wall-clock stamp in the
/// benchmark uses this one clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main(): the operation counts, the
/// correctness verdict, the metrics for the JSON line and a human-readable
/// report printed before it.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< correctness violations (empty = correct)
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> report;
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_root;              ///< directory for this run's data dirs
  /// Reference runs only (README): the Raft policy in place of ESCAPE, and
  /// a cluster size other than the workload's own (0: the workload's).
  bool raft_policy = false;
  std::size_t nodes = 0;
  std::int64_t process_start_ns = 0;  ///< steady-clock stamp taken first in main()
};

Result run_kv_mixed_durable(const RunConfig& config);
Result run_failover_kill(const RunConfig& config);
Result run_sim_paper_scale(const RunConfig& config);

/// Feeds planted faulty histories to every checker; returns 0 when each
/// checker flags its plant and accepts the matching clean history.
int run_selftest();

/// Linear-interpolated percentile of `values` (p in [0, 100]); 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

}  // namespace perfbench
