// The benchmark's three workloads. See perfbench/README.md for what each
// measures, why it was chosen, and which metric each layer should move.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "cluster.h"
#include "common/rng.h"
#include "openloop.h"
#include "sim/presets.h"
#include "sim/scenario.h"
#include "trace.h"

namespace perfbench {
namespace {

using escape::ServerId;
using escape::kv::Op;

constexpr double kNsPerMs = 1e6;

double ms_between(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) / kNsPerMs;
}

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::microseconds(static_cast<std::int64_t>(ms * 1e3)));
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string fmt(const char* format, double a, double b = 0, double c = 0, double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c, d);
  return buf;
}

/// Submits Puts one at a time until one is acknowledged: the first leader
/// serves. Returns false after `timeout_ms`.
bool await_first_write(escape::serve::KvClient& client, double timeout_ms) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_ms * kNsPerMs);
  while (now_ns() < deadline) {
    std::atomic<int> state{0};  // 0 pending, 1 ok, 2 other
    escape::kv::Command command;
    command.op = Op::kPut;
    command.key = "setup";
    command.value = "ready";
    client.submit(command, [&state](escape::serve::Status s, const escape::kv::CommandResult&) {
      state.store(s == escape::serve::Status::kOk ? 1 : 2, std::memory_order_release);
    });
    while (state.load(std::memory_order_acquire) == 0) sleep_ms(0.2);
    if (state.load() == 1) return true;
  }
  return false;
}

/// Reads every key in `keys` with at most `window` Gets outstanding.
/// Returns false when a Get does not succeed.
bool read_all(escape::serve::KvClient& client, const std::vector<std::string>& keys,
              std::size_t window, std::map<std::string, std::optional<std::string>>* out) {
  std::vector<std::optional<std::string>> values(keys.size());
  std::vector<int> status(keys.size(), 0);
  std::atomic<std::size_t> done{0};
  bool ok = true;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    while (i - done.load(std::memory_order_acquire) >= window) sleep_ms(0.2);
    escape::kv::Command command;
    command.op = Op::kGet;
    command.key = keys[i];
    client.submit(command, [&, i](escape::serve::Status s, const escape::kv::CommandResult& r) {
      status[i] = s == escape::serve::Status::kOk ? 1 : 2;
      if (r.ok) values[i] = r.value;
      done.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  while (done.load(std::memory_order_acquire) < keys.size()) sleep_ms(0.5);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (status[i] != 1) ok = false;
    (*out)[keys[i]] = values[i];
  }
  return ok;
}

/// Per-layer counters sampled from the public API before and after a window.
struct LayerSample {
  escape::raft::NodeCounters leader;
  std::uint64_t frames_in = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t net_calls = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t net_ns = 0;

  static LayerSample take(const DurableCluster& cluster, ServerId leader) {
    LayerSample s;
    if (auto* server = cluster.server(leader)) s.leader = server->node().counters();
    for (ServerId id : cluster.ids()) {
      if (auto* server = cluster.server(id)) {
        s.frames_in += server->loop_stats().frames_in.load();
        s.wakeups += server->loop_stats().wakeups.load();
      }
    }
    s.net_calls = net_trace().calls.load();
    s.net_bytes = net_trace().bytes.load();
    s.net_ns = net_trace().ns.load();
    return s;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Layer metrics of the replication path over [a, b] with `ops` completed
/// client operations, `writes` of them writes.
void add_path_layers(const LayerSample& a, const LayerSample& b, double ops, double writes,
                     std::map<std::string, double>* layer) {
  const auto& x = a.leader;
  const auto& y = b.leader;
  auto& m = *layer;
  m["net.syscalls_per_op"] = ratio(static_cast<double>(b.net_calls - a.net_calls), ops);
  m["net.bytes_per_op"] = ratio(static_cast<double>(b.net_bytes - a.net_bytes), ops);
  m["net.syscall_us_per_op"] = ratio(static_cast<double>(b.net_ns - a.net_ns) / 1e3, ops);
  m["net.frames_per_wakeup"] =
      ratio(static_cast<double>(b.frames_in - a.frames_in), static_cast<double>(b.wakeups - a.wakeups));
  m["raft.entries_per_append"] =
      ratio(static_cast<double>(y.append_batch_entries.sum - x.append_batch_entries.sum),
            static_cast<double>(y.append_batch_entries.count - x.append_batch_entries.count));
  m["raft.peer_msgs_per_write"] =
      ratio(static_cast<double>(y.append_entries_sent - x.append_entries_sent), writes);
  const double lease = static_cast<double>(y.lease_reads - x.lease_reads);
  const double index = static_cast<double>(y.read_index_reads - x.read_index_reads);
  m["raft.lease_read_ratio"] = ratio(lease, lease + index);
  m["storage.fsyncs_per_write"] =
      ratio(static_cast<double>(y.wal_group_syncs - x.wal_group_syncs), writes);
  m["storage.records_per_sync"] =
      ratio(static_cast<double>(y.wal_records_per_sync.sum - x.wal_records_per_sync.sum),
            static_cast<double>(y.wal_records_per_sync.count - x.wal_records_per_sync.count));
}

/// The layer calls timed at the workload's shapes (traced run only).
void add_call_layers(const std::string& dir, std::size_t batch, std::size_t command_bytes,
                     std::size_t frame_bytes, const std::vector<escape::kv::Command>& stream,
                     std::map<std::string, double>* layer) {
  auto& m = *layer;
  m["storage.wal_sync_us"] = wal_sync_us(dir, batch, command_bytes);
  m["storage.state_save_us"] = state_save_us(dir);
  double enc = 0;
  double dec = 0;
  codec_ns_per_entry(batch, command_bytes, &enc, &dec);
  m["rpc.encode_ns_per_entry"] = enc;
  m["rpc.decode_ns_per_entry"] = dec;
  m["common.crc32_mb_s"] = crc32_mb_s(frame_bytes);
  m["kv.apply_ns_per_op"] = apply_ns_per_op(stream);
}

/// Median over consecutive windows (by due instant) of each window's p-th
/// percentile latency, from due to completion, over the successful calls of
/// `kind` (all kinds when nullopt). A window needs ten samples beyond the
/// percentile to count.
double windowed(const std::vector<Call>& calls, double window_s, std::optional<Op> kind, double p) {
  if (calls.empty()) return 0;
  std::map<std::int64_t, std::vector<double>> windows;
  for (const auto& c : calls) {
    if (!c.ok() || (kind && c.kind != *kind)) continue;
    windows[static_cast<std::int64_t>(static_cast<double>(c.due - calls.front().due) / (window_s * 1e9))]
        .push_back(ms_between(c.due, c.done));
  }
  const double min_samples = 10.0 / (1.0 - p / 100.0);
  std::vector<double> values;
  for (const auto& [w, samples] : windows) {
    if (static_cast<double>(samples.size()) >= min_samples) values.push_back(percentile(samples, p));
  }
  return median(std::move(values));
}

std::size_t round_batch(double mean) {
  return static_cast<std::size_t>(std::max(1.0, mean + 0.5));
}

void add_patrol_layer(std::map<std::string, double>* layer) {
  (*layer)["core.patrol_us"] = ratio(static_cast<double>(patrol_trace().ns.load()) / 1e3,
                                     static_cast<double>(patrol_trace().calls.load()));
}

/// The per-layer metric list, in BENCHMARK.json order. A layer a workload
/// does not exercise reads 0.
const char* const kLayerMetrics[][2] = {
    {"serve.gen_late_p99_ms", "ms"},     {"serve.client_resume_ms", "ms"},
    {"net.syscalls_per_op", "count"},    {"net.bytes_per_op", "B"},
    {"net.syscall_us_per_op", "us"},
    {"net.frames_per_wakeup", "count"},  {"raft.entries_per_append", "count"},
    {"raft.peer_msgs_per_write", "count"}, {"raft.lease_read_ratio", "ratio"},
    {"raft.detection_ms", "ms"},         {"raft.election_ms", "ms"},
    {"raft.failover_ms", "ms"},          {"raft.campaigns_per_failover", "count"},
    {"storage.fsyncs_per_write", "count"}, {"storage.records_per_sync", "count"},
    {"storage.wal_sync_us", "us"},       {"storage.state_save_us", "us"},
    {"storage.restart_ms", "ms"},        {"storage.catchup_ms", "ms"},
    {"rpc.encode_ns_per_entry", "ns"},   {"rpc.decode_ns_per_entry", "ns"},
    {"common.crc32_mb_s", "MB/s"},       {"kv.apply_ns_per_op", "ns"},
    {"core.patrol_us", "us"},            {"sim.events_per_s", "1/s"},
    {"sim.msgs_per_election", "count"},
};

/// Hands a workload's figures to main(): the end-to-end metrics untraced,
/// the per-layer list plus the traced run's own end-to-end figures traced.
void finish(const RunConfig& config, const std::vector<Metric>& e2e_metrics,
            std::map<std::string, double> layer, Result* result) {
  if (!config.trace) {
    result->end_to_end = e2e_metrics;
    return;
  }
  for (const auto& [name, unit] : kLayerMetrics) {
    result->per_layer.push_back({name, layer.count(name) ? layer[name] : 0.0, unit});
  }
  // The traced run's own end-to-end figures; the difference to the untraced
  // run's is the tracing overhead.
  for (const auto& m : e2e_metrics) result->per_layer.push_back({"traced." + m.name, m.value, m.unit});
}

}  // namespace

// --- kv_mixed_durable ---------------------------------------------------------

Result run_kv_mixed_durable(const RunConfig& config) {
  constexpr std::uint32_t kKeys = 1024;
  constexpr double kFixedRate = 4000;    // ops/s, well below the knee
  constexpr double kWarmupS = 1.0;
  constexpr double kWindowS = 1.0;       // tail window at the fixed rate
  // Knee criterion: above this host's scheduling noise (a stalled vCPU
  // wakeup costs milliseconds), so a miss marks a growing queue.
  constexpr double kP99LimitMs = 50.0;
  constexpr double kStepS = 1.0;         // knee probe length
  constexpr double kStepFactor = 2.0;    // knee probe growth until the first miss

  Result result;
  const std::string dir = config.data_root + "/kv_mixed_durable";
  escape::net::PolicyFactory policy = real_policy(config.raft_policy);
  if (config.trace) policy = timed_policy(std::move(policy));
  std::optional<NetTraceScope> net_scope;
  if (config.trace) net_scope.emplace();

  DurableCluster cluster(config.nodes ? config.nodes : 3, dir, config.seed, policy);
  escape::serve::KvClient::Options client_options;
  client_options.lanes = 64;
  escape::serve::KvClient client(cluster.client_ports(), 1000, client_options);
  cluster.start();
  client.start();
  if (!await_first_write(client, 10'000)) {
    result.problems.push_back("no leader served within 10 s");
    return result;
  }
  const double setup_s = static_cast<double>(now_ns() - config.process_start_ns) / 1e9;

  escape::Rng rng(config.seed);
  std::vector<Call> ops;
  std::uint64_t next_value = 0;
  const auto plan = [&](double rate, double seconds) {
    const std::int64_t start = now_ns() + 20 * 1'000'000;
    const auto due = poisson_schedule(rng, rate, start, start + static_cast<std::int64_t>(seconds * 1e9));
    std::vector<Call> planned(due.size());
    for (std::size_t i = 0; i < due.size(); ++i) {
      planned[i].due = due[i];
      planned[i].key = "k" + std::to_string(rng.uniform_int(0, kKeys - 1));
      if (rng.chance(0.5)) {
        planned[i].kind = Op::kPut;
        planned[i].value = hex16((config.seed << 40) ^ ++next_value);
      } else {
        planned[i].kind = Op::kGet;
      }
    }
    return planned;
  };
  std::vector<PutRecord> puts;
  std::vector<GetRecord> gets;
  std::vector<escape::kv::Command> stream;
  const auto record = [&](const std::vector<Call>& batch) {
    for (const auto& op : batch) {
      if (op.kind == Op::kPut) {
        puts.push_back({op.key, op.value, op.sent, op.ok() ? op.done : kNotAcked});
        escape::kv::Command c;
        c.op = Op::kPut;
        c.key = op.key;
        c.value = op.value;
        stream.push_back(std::move(c));
      } else if (op.ok()) {
        gets.push_back({op.key, op.found ? std::optional(op.value) : std::nullopt, op.sent, op.done});
      }
    }
  };

  // Phase 1: latency at the fixed rate, after a warm-up second that fills
  // caches and grows the WAL files (checked, but not timed).
  std::size_t next = 0;
  const auto run_fixed = [&](double seconds) {
    std::vector<Call> calls = plan(kFixedRate, seconds);
    OpenLoop loop(client, calls);
    loop.run(0, calls.size(), &next);
    loop.drain(now_ns() + 10'000'000'000);
    for (const auto& op : calls) {
      ++result.attempted;
      if (!op.ok()) ++result.failed;
    }
    record(calls);
    return calls;
  };
  run_fixed(kWarmupS);
  const ServerId leader = cluster.leader();
  const LayerSample before = LayerSample::take(cluster, leader);
  ops = run_fixed(std::max(2.0, config.seconds * 0.3));
  const LayerSample after = LayerSample::take(cluster, leader);
  std::vector<double> late_ms;
  double reads = 0;
  double writes = 0;
  for (const auto& op : ops) {
    late_ms.push_back(ms_between(op.due, op.sent));
    if (op.ok()) (op.kind == Op::kPut ? writes : reads) += 1;
  }
  // Medians over one-second windows, so a host stall in one window does not
  // move the figure; the tail windows hold ~2000 samples, 20 beyond the p99.
  const double write_p50 = windowed(ops, kWindowS, Op::kPut, 50);
  const double read_p50 = windowed(ops, kWindowS, Op::kGet, 50);
  const double write_p99 = windowed(ops, kWindowS, Op::kPut, 99);
  const double read_p99 = windowed(ops, kWindowS, Op::kGet, 99);
  std::map<std::string, double> layer;
  layer["serve.gen_late_p99_ms"] = percentile(late_ms, 99);
  add_path_layers(before, after, reads + writes, writes, &layer);

  // Phase 2: the knee — the highest offered rate whose probe has every
  // operation succeed, no growing backlog, and a typical p99 (the median of
  // its windows' p99s) within kP99LimitMs. Probes double until one misses,
  // then bisect. A missed rate is probed once more before it counts, so one
  // host stall does not decide the search.
  const std::int64_t knee_end =
      config.process_start_ns + static_cast<std::int64_t>((config.seconds - 1.0) * 1e9);
  double lo = 0;
  double hi = 0;
  double knee_completed = 0;
  double rate = kFixedRate * kStepFactor;
  std::size_t probes = 0;
  std::size_t probe_failures = 0;
  bool retried = false;
  while (now_ns() + static_cast<std::int64_t>((kStepS + 0.5) * 1e9) < knee_end) {
    std::vector<Call> probe = plan(rate, kStepS);
    OpenLoop loop(client, probe);
    const auto outcome = loop.run(0, probe.size(), &next, nullptr,
                                  static_cast<std::size_t>(rate * 0.1) + 64);
    loop.drain(now_ns() + 10'000'000'000);
    probe.resize(next);
    ++probes;
    bool all_ok = outcome == OpenLoop::Outcome::kDone;
    std::size_t ok = 0;
    for (const auto& op : probe) {
      if (op.ok()) {
        ++ok;
      } else {
        all_ok = false;
        ++probe_failures;
      }
    }
    record(probe);
    sleep_ms(100);  // let queues settle between probes
    const double window_s = std::max(0.2, 1000.0 / rate);
    const bool pass = all_ok && windowed(probe, window_s, std::nullopt, 99) <= kP99LimitMs;
    if (!pass && !retried) {
      retried = true;
      continue;
    }
    retried = false;
    if (pass) {
      lo = rate;
      knee_completed = static_cast<double>(ok) /
                       (static_cast<double>(probe.back().due - probe.front().due) / 1e9);
    } else {
      hi = rate;
    }
    if (hi != 0 && lo != 0 && hi / lo < 1.03) break;
    rate = hi == 0 ? rate * kStepFactor : (lo == 0 ? hi / kStepFactor : std::sqrt(lo * hi));
  }

  // Phase 3: read every key once, after all writes completed.
  std::vector<std::string> keys;
  for (std::uint32_t k = 0; k < kKeys; ++k) keys.push_back("k" + std::to_string(k));
  std::map<std::string, std::optional<std::string>> final_values;
  result.attempted += keys.size();
  if (!read_all(client, keys, 256, &final_values)) ++result.failed;
  client.stop();
  cluster.stop();
  net_scope.reset();

  for (auto& p : check_stale_reads(puts, gets)) result.problems.push_back(p);
  for (auto& p : check_final_values(puts, final_values)) result.problems.push_back(p);

  if (config.trace) {
    add_patrol_layer(&layer);
    const std::size_t put_bytes = escape::kv::encode_command(stream.empty() ? escape::kv::Command{} : stream.front()).size();
    if (stream.size() > 50'000) stream.resize(50'000);
    add_call_layers(dir, round_batch(layer["storage.records_per_sync"]), put_bytes,
                    static_cast<std::size_t>(std::max(64.0, layer["net.bytes_per_op"])), stream,
                    &layer);
  }
  result.report.push_back(fmt("fixed rate %.0f ops/s: write_p50_ms=%.4f write_p99_ms=%.4f", kFixedRate,
                              write_p50, write_p99));
  result.report.push_back(fmt("fixed rate: read_p50_ms=%.4f read_p99_ms=%.4f gen_late_p99_ms=%.4f",
                              read_p50, read_p99, percentile(late_ms, 99)));
  result.report.push_back(fmt("knee_ops_s=%.1f (offered %.0f, first miss %.0f) probes=%.0f", knee_completed,
                              lo, hi, static_cast<double>(probes)));
  result.report.push_back(fmt("knee probe operations that did not succeed: %.0f", static_cast<double>(probe_failures)));
  finish(config,
         {{"setup_s", setup_s, "s"},
          {"write_p50_ms", write_p50, "ms"},
          {"write_p99_ms", write_p99, "ms"},
          {"read_p50_ms", read_p50, "ms"},
          {"read_p99_ms", read_p99, "ms"},
          {"knee_ops_s", knee_completed, "ops/s"}},
         std::move(layer), &result);
  return result;
}

// --- failover_kill ------------------------------------------------------------

Result run_failover_kill(const RunConfig& config) {
  constexpr double kRate = 400;         // writes/s, low: the cluster idles between kills
  constexpr double kSteadyS = 1.0;      // steady load before the first kill
  constexpr double kDwellMs = 700;      // after catch-up, before the next kill
  constexpr double kPollMs = 1.0;

  Result result;
  const std::string dir = config.data_root + "/failover_kill";
  escape::net::PolicyFactory policy = real_policy(config.raft_policy);
  if (config.trace) policy = timed_policy(std::move(policy));
  std::optional<NetTraceScope> net_scope;
  if (config.trace) net_scope.emplace();

  DurableCluster cluster(config.nodes ? config.nodes : 5, dir, config.seed, policy);
  escape::serve::KvClient::Options client_options;
  client_options.timeout = escape::from_ms(10'000);
  escape::serve::KvClient client(cluster.client_ports(), 1000, client_options);
  cluster.start();
  client.start();
  if (!await_first_write(client, 10'000)) {
    result.problems.push_back("no leader served within 10 s");
    return result;
  }
  const double setup_s = static_cast<double>(now_ns() - config.process_start_ns) / 1e9;

  // Write-only open loop, one distinct key per write, for the whole run.
  escape::Rng rng(config.seed);
  const std::int64_t t0 = now_ns() + 20 * 1'000'000;
  const std::int64_t run_end = config.process_start_ns + static_cast<std::int64_t>(config.seconds * 1e9);
  std::vector<Call> ops;
  for (std::int64_t due : poisson_schedule(rng, kRate, t0, run_end + 60'000'000'000)) {
    Call op;
    op.due = due;
    op.key = "w" + std::to_string(ops.size());
    op.value = hex16((config.seed << 40) ^ ops.size());
    ops.push_back(std::move(op));
  }
  OpenLoop loop(client, ops);
  std::atomic<bool> stop_load{false};
  std::size_t submitted = 0;
  std::thread generator([&] { loop.run(0, ops.size(), &submitted, &stop_load); });

  LeaderAudit audit;
  std::vector<KillRecord> kills;
  std::vector<double> detection_ms, election_ms, campaigns, restart_ms, catchup_ms;
  std::map<std::string, double> layer;
  const auto poll_all = [&](ServerId* leader_out) {
    *leader_out = escape::kNoServer;
    for (ServerId id : cluster.ids()) {
      auto* server = cluster.server(id);
      if (!server) continue;
      const auto term = server->node().term();
      const auto role = server->node().role();
      if (role == escape::Role::kLeader && server->node().term() == term) {
        audit.observe(term, id);
        *leader_out = id;
      }
    }
  };
  // Campaigns started by the replicas other than `victim`.
  const auto campaigns_started = [&](ServerId victim) {
    std::uint64_t total = 0;
    for (ServerId id : cluster.ids()) {
      auto* server = cluster.server(id);
      if (server && id != victim) total += server->node().counters().campaigns_started;
    }
    return total;
  };
  const auto await_leader = [&](double timeout_ms) {
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_ms * kNsPerMs);
    ServerId leader = escape::kNoServer;
    for (poll_all(&leader); leader == escape::kNoServer && now_ns() < deadline; poll_all(&leader)) {
      sleep_ms(kPollMs);
    }
    return leader;
  };

  // Steady window: the replication-path counters of the first leader.
  sleep_ms((t0 - now_ns()) / kNsPerMs + kSteadyS * 1e3);
  {
    const ServerId leader = await_leader(5'000);
    const LayerSample a = LayerSample::take(cluster, leader);
    const std::int64_t from = now_ns();
    sleep_ms(500);
    const LayerSample b = LayerSample::take(cluster, leader);
    double in_window = 0;
    for (std::size_t i = 0; i < ops.size() && ops[i].due < now_ns(); ++i) {
      if (ops[i].due >= from) ++in_window;
    }
    add_path_layers(a, b, in_window, in_window, &layer);
  }

  bool stuck = false;
  std::vector<double> cycle_s;
  while (now_ns() < run_end && !stuck) {
    const std::int64_t cycle_start = now_ns();
    // Kill the leader at a seeded random phase within a heartbeat interval.
    const ServerId victim = await_leader(5'000);
    if (victim == escape::kNoServer) {
      stuck = true;
      break;
    }
    sleep_ms(rng.uniform_real(0.0, escape::to_ms_f(kHeartbeat)));
    KillRecord k;
    const std::uint64_t campaigns_before = campaigns_started(victim);
    k.kill = now_ns();
    cluster.kill(victim);
    k.last_leaderless_poll = k.kill;
    std::int64_t first_campaign = 0;
    ServerId leader = escape::kNoServer;
    const std::int64_t deadline = k.kill + 10'000'000'000;
    while (now_ns() < deadline) {
      const std::int64_t poll = now_ns();
      poll_all(&leader);
      if (!first_campaign && campaigns_started(victim) > campaigns_before) first_campaign = poll;
      if (leader != escape::kNoServer) {
        k.leader_seen = poll;
        break;
      }
      k.last_leaderless_poll = poll;
      sleep_ms(kPollMs);
    }
    if (leader == escape::kNoServer) {
      result.problems.push_back("no leader within 10 s of a kill");
      stuck = true;
      break;
    }
    if (!first_campaign) first_campaign = k.leader_seen;
    campaigns.push_back(static_cast<double>(campaigns_started(victim) - campaigns_before));
    detection_ms.push_back(ms_between(k.kill, first_campaign));
    election_ms.push_back(ms_between(first_campaign, k.leader_seen));
    // A new leader serves once a write due after the kill has succeeded.
    while (loop.max_success_due() <= k.kill && now_ns() < deadline) {
      ServerId seen = escape::kNoServer;
      poll_all(&seen);
      sleep_ms(kPollMs);
    }
    kills.push_back(k);
    // Restart the victim from its data directory and let it catch up.
    const std::int64_t restart_at = now_ns();
    cluster.restart(victim);
    restart_ms.push_back(ms_between(restart_at, now_ns()));
    auto* lead = cluster.server(leader);
    const escape::LogIndex target = lead ? lead->node().commit_index() : 0;
    while (cluster.server(victim)->node().commit_index() < target && now_ns() < deadline) {
      ServerId seen = escape::kNoServer;
      poll_all(&seen);
      sleep_ms(kPollMs);
    }
    if (cluster.server(victim)->node().commit_index() < target) {
      result.problems.push_back("restarted replica did not catch up within 10 s");
      stuck = true;
      break;
    }
    catchup_ms.push_back(ms_between(restart_at, now_ns()));
    sleep_ms(kDwellMs);
    cycle_s.push_back(static_cast<double>(now_ns() - cycle_start) / 1e9);
  }
  stop_load.store(true, std::memory_order_release);
  generator.join();
  loop.drain(now_ns() + 15'000'000'000);

  // Read back every acknowledged write after the last kill.
  std::vector<PutRecord> puts;
  std::vector<std::string> acked_keys;
  std::vector<double> late_ms;
  for (std::size_t i = 0; i < submitted; ++i) {
    const Call& op = ops[i];
    ++result.attempted;
    late_ms.push_back(ms_between(op.due, op.sent));
    if (!op.ok()) {
      ++result.failed;
      puts.push_back({op.key, op.value, op.sent, kNotAcked});
      continue;
    }
    puts.push_back({op.key, op.value, op.sent, op.done});
    acked_keys.push_back(op.key);
  }
  std::map<std::string, std::optional<std::string>> read_back;
  result.attempted += acked_keys.size();
  // The read-back is this workload's read path: its lease-read share.
  const ServerId reader = await_leader(5'000);
  const LayerSample reads_before = LayerSample::take(cluster, reader);
  if (!read_all(client, acked_keys, 256, &read_back)) ++result.failed;
  const LayerSample reads_after = LayerSample::take(cluster, reader);
  const double lease = static_cast<double>(reads_after.leader.lease_reads - reads_before.leader.lease_reads);
  layer["raft.lease_read_ratio"] =
      ratio(lease, lease + static_cast<double>(reads_after.leader.read_index_reads -
                                               reads_before.leader.read_index_reads));
  client.stop();
  cluster.stop();
  net_scope.reset();

  // Per kill: the first success of a write due after the kill.
  std::vector<double> unavail_ms, failover_ms, resume_ms;
  for (auto& k : kills) {
    std::int64_t first = INT64_MAX;
    for (std::size_t i = 0; i < submitted; ++i) {
      if (ops[i].due > k.kill && ops[i].ok()) first = std::min(first, ops[i].done);
    }
    k.first_success = first;
    unavail_ms.push_back(ms_between(k.kill, first));
    failover_ms.push_back(ms_between(k.kill, k.leader_seen));
    resume_ms.push_back(ms_between(k.leader_seen, first));
  }
  // Writes due outside every outage [kill, first success after it] give the
  // steady-state latency; the tail over all writes includes the outages.
  // Their median is taken per one-second window, then over windows.
  std::vector<double> all_write_ms;
  std::map<std::int64_t, std::vector<double>> steady_windows;
  std::size_t next_kill = 0;
  for (std::size_t i = 0; i < submitted; ++i) {
    if (!ops[i].ok()) continue;
    const double ms = ms_between(ops[i].due, ops[i].done);
    all_write_ms.push_back(ms);
    while (next_kill < kills.size() && kills[next_kill].first_success < ops[i].due) ++next_kill;
    if (next_kill == kills.size() || ops[i].due < kills[next_kill].kill) {
      steady_windows[(ops[i].due - t0) / 1'000'000'000].push_back(ms);
    }
  }
  std::vector<double> steady_p50s;
  for (const auto& [w, samples] : steady_windows) {
    if (samples.size() >= 50) steady_p50s.push_back(median(samples));
  }
  for (auto& p : check_readback(puts, read_back)) result.problems.push_back(p);
  for (auto& p : check_kills(kills)) result.problems.push_back(p);
  for (auto& p : audit.problems()) result.problems.push_back(p);
  if (kills.empty()) result.problems.push_back("no kill completed");

  const double unavail_p50 = median(unavail_ms);
  const double cycles_per_s = ratio(1.0, median(cycle_s));

  layer["serve.gen_late_p99_ms"] = percentile(late_ms, 99);
  layer["serve.client_resume_ms"] = median(resume_ms);
  layer["raft.detection_ms"] = median(detection_ms);
  layer["raft.election_ms"] = median(election_ms);
  layer["raft.failover_ms"] = median(failover_ms);
  layer["raft.campaigns_per_failover"] = median(campaigns);
  layer["storage.restart_ms"] = median(restart_ms);
  layer["storage.catchup_ms"] = median(catchup_ms);
  if (config.trace) {
    add_patrol_layer(&layer);
    std::vector<escape::kv::Command> stream;
    for (std::size_t i = 0; i < submitted && stream.size() < 50'000; ++i) {
      escape::kv::Command c;
      c.op = Op::kPut;
      c.key = ops[i].key;
      c.value = ops[i].value;
      stream.push_back(std::move(c));
    }
    const std::size_t put_bytes = stream.empty() ? 32 : escape::kv::encode_command(stream.front()).size();
    add_call_layers(dir, round_batch(layer["storage.records_per_sync"]), put_bytes,
                    static_cast<std::size_t>(std::max(64.0, layer["net.bytes_per_op"])), stream,
                    &layer);
  }
  result.report.push_back(fmt("kills=%.0f unavail_p50_ms=%.4f failover_p50_ms=%.4f client_resume_ms=%.4f",
                              static_cast<double>(kills.size()), unavail_p50, median(failover_ms),
                              median(resume_ms)));
  result.report.push_back(fmt("writes between outages p50_ms=%.4f; all writes p50_ms=%.4f p99_ms=%.4f",
                              median(steady_p50s), median(all_write_ms), percentile(all_write_ms, 99)));
  result.report.push_back(fmt("restart_ms=%.3f catchup_ms=%.3f", median(restart_ms), median(catchup_ms)));
  finish(config,
         {{"setup_s", setup_s, "s"},
          {"unavail_p50_ms", unavail_p50, "ms"},
          {"rate_per_s", cycles_per_s, "1/s"}},
         std::move(layer), &result);
  return result;
}

// --- sim_paper_scale ----------------------------------------------------------

namespace {

constexpr std::size_t kSimServers = 128;
constexpr double kSimOmission = 0.2;
constexpr escape::Duration kTrafficWindow = escape::from_ms(3'000);  // §VI protocol
constexpr escape::Duration kTrafficInterval = escape::from_ms(100);
constexpr escape::Duration kTrafficSpan = escape::from_ms(2'000);  // commits before the crash
constexpr escape::Duration kSettle = escape::from_ms(2'000);
constexpr escape::Duration kMaxWait = escape::from_ms(120'000);
/// Failovers per cluster. The simulator keeps every entry each host ever
/// applied, so one unbounded series grows by ~30 KB per failover at n = 128
/// and each failover gets slower; fresh clusters of a fixed series length
/// keep the per-failover cost the same throughout a run of any length.
constexpr std::size_t kSegmentFailovers = 100;
/// The host speed `rate_per_s` is given at: the yardstick's time.
constexpr double kYardstickMs = 1.0;

struct SimTotals {
  std::vector<escape::sim::FailoverResult> episodes;
  std::vector<double> commit_ms;
  std::vector<double> election_msgs;
  std::vector<double> cycle_s;  ///< wall seconds per crash-recover cycle
  std::vector<double> yardstick_ms;  ///< the yardstick's time after each cycle
  std::vector<double> cycle_per_yardstick;  ///< per cycle: its wall time / yardstick_ms
  std::vector<std::string> problems;
  std::uint64_t events = 0;
  std::size_t uncommitted = 0;
};

/// A fixed loop of the simulator's kinds of work -- ordered-map inserts
/// (allocation, pointer chasing), an in-order walk, and dependent loads over
/// a 256 KB table -- timed on the simulator's thread after every cycle. It
/// is the yardstick of the host's speed at that moment: on a shared host the
/// same cycle takes 14 ms for some seconds and 23 ms for the next, and the
/// yardstick slows with it (0.8 -> 1.1 ms), while its own code never
/// changes with the program's. Cycle time / yardstick time moves only with
/// the program.
class HostYardstick {
 public:
  HostYardstick() : next_(kTableSize) {
    std::vector<std::uint32_t> order(kTableSize);
    for (std::uint32_t i = 0; i < kTableSize; ++i) order[i] = i;
    std::uint64_t x = 12345;
    for (std::uint32_t i = kTableSize - 1; i > 0; --i) {
      x = lcg(x);
      std::swap(order[i], order[(x >> 33) % (i + 1)]);
    }
    // One cycle through the whole table, in shuffled order.
    for (std::uint32_t i = 0; i < kTableSize; ++i) next_[order[i]] = order[(i + 1) % kTableSize];
  }

  double time_ms() {
    const std::int64_t start = now_ns();
    std::map<std::uint64_t, std::uint64_t> m;
    std::uint64_t x = 99;
    for (int i = 0; i < 2000; ++i) {
      x = lcg(x);
      m[x >> 20] = x;
    }
    std::uint64_t acc = 0;
    for (const auto& [k, v] : m) acc += k ^ v;
    std::uint32_t at = 0;
    for (int i = 0; i < 20000; ++i) at = next_[at];
    sink_ = sink_ + acc + at;  // keeps the loops from being optimised away
    return static_cast<double>(now_ns() - start) / kNsPerMs;
  }

 private:
  static constexpr std::uint32_t kTableSize = 1u << 16;
  static std::uint64_t lcg(std::uint64_t x) {
    return x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  std::vector<std::uint32_t> next_;
  volatile std::uint64_t sink_ = 0;
};

/// One series of crash-recover cycles on a fresh paper-preset cluster, until
/// kSegmentFailovers or `deadline`. Each cycle: client commands every 100 ms
/// for 2 s, crash the leader at 3 s, measure the election, recover the
/// victim, settle 2 s. `on_bootstrap` runs once the first leader is elected.
bool run_sim_segment(std::uint64_t seed, const escape::net::PolicyFactory& policy,
                     std::int64_t deadline, const std::function<void()>& on_bootstrap,
                     HostYardstick* yardstick, SimTotals* totals) {
  escape::sim::ScenarioRunner runner(
      escape::sim::presets::paper_cluster(kSimServers, policy, seed, kSimOmission));
  auto& cluster = runner.cluster();
  auto& loop = runner.loop();

  SimAudit audit;
  std::map<std::uint64_t, escape::TimePoint> pending;  // command id -> due (virtual)
  std::uint64_t crash_sent = 0;
  bool awaiting_leader = false;
  cluster.add_event_listener([&](const escape::raft::NodeEvent& e) {
    audit.on_event(e);
    if (awaiting_leader && e.kind == escape::raft::NodeEvent::Kind::kBecameLeader) {
      awaiting_leader = false;
      totals->election_msgs.push_back(static_cast<double>(cluster.network().stats().sent - crash_sent));
    }
  });
  cluster.set_apply_hook([&](ServerId server, const escape::rpc::LogEntry& entry) {
    audit.on_apply(server, entry);
    // A command is committed when first applied anywhere.
    if (entry.command.size() == 16 && entry.command[0] == 'p' && entry.command[1] == 'b') {
      const std::uint64_t id =
          std::stoull(std::string(entry.command.begin() + 2, entry.command.end()), nullptr, 16);
      const auto it = pending.find(id);
      if (it != pending.end()) {
        totals->commit_ms.push_back(escape::to_ms_f(loop.now() - it->second));
        pending.erase(it);
      }
    }
  });
  if (runner.bootstrap() == escape::kNoServer) {
    totals->problems.push_back("bootstrap elected no leader");
    return false;
  }
  on_bootstrap();

  const std::uint64_t events_start = loop.processed();
  std::uint64_t next_id = 0;
  std::function<void(escape::TimePoint, std::uint64_t)> submit =
      [&](escape::TimePoint due, std::uint64_t id) {
        char payload[17];
        std::snprintf(payload, sizeof(payload), "pb%014" PRIx64, id);
        if (cluster.submit_via_leader(std::vector<std::uint8_t>(payload, payload + 16))) {
          pending[id] = due;
        } else {
          // No leader at this instant: the client retries 10 ms later.
          loop.schedule_after(escape::from_ms(10), [&submit, due, id] { submit(due, id); });
        }
      };
  for (std::size_t cycle = 0; cycle < kSegmentFailovers && now_ns() < deadline; ++cycle) {
    const std::int64_t cycle_start = now_ns();
    cluster.clear_event_log();
    runner.runtime().clear_markers();
    const escape::TimePoint start = loop.now();
    for (escape::Duration t = 0; t < kTrafficSpan; t += kTrafficInterval) {
      loop.schedule_at(start + t, [&submit, due = start + t, id = ++next_id] { submit(due, id); });
    }
    loop.schedule_at(start + kTrafficWindow, [&] {
      crash_sent = cluster.network().stats().sent;
      awaiting_leader = true;
    });
    escape::sim::FaultPlan plan;
    plan.at(kTrafficWindow, escape::sim::CrashNode{escape::sim::NodeRef::leader()});
    totals->episodes.push_back(runner.run_failover_plan(plan, kMaxWait));
    runner.runtime().disarm_deferred_crash();
    const ServerId victim = runner.runtime().last_crashed();
    if (victim != escape::kNoServer && !cluster.alive(victim)) cluster.recover(victim);
    loop.run_until(loop.now() + kSettle);
    const double cycle_ms = ms_between(cycle_start, now_ns());
    totals->cycle_s.push_back(cycle_ms / 1e3);
    totals->yardstick_ms.push_back(yardstick->time_ms());
    totals->cycle_per_yardstick.push_back(ratio(cycle_ms, totals->yardstick_ms.back()));
  }
  totals->events += loop.processed() - events_start;
  totals->uncommitted += pending.size();
  for (auto& p : audit.problems()) totals->problems.push_back(p);
  return true;
}

}  // namespace

Result run_sim_paper_scale(const RunConfig& config) {
  Result result;
  escape::net::PolicyFactory policy = config.raft_policy
                                          ? escape::sim::presets::raft_policy()
                                          : escape::sim::presets::escape_policy();
  if (config.trace) policy = timed_policy(std::move(policy));

  double setup_s = 0;
  SimTotals totals;
  HostYardstick yardstick;
  const std::int64_t run_end =
      config.process_start_ns + static_cast<std::int64_t>(config.seconds * 1e9);
  std::int64_t wall_start = 0;
  for (std::uint64_t segment = 0; now_ns() < run_end; ++segment) {
    const auto on_bootstrap = [&] {
      if (segment != 0) return;
      setup_s = static_cast<double>(now_ns() - config.process_start_ns) / 1e9;
      wall_start = now_ns();
    };
    if (!run_sim_segment(config.seed * 1000 + segment, policy, run_end, on_bootstrap, &yardstick,
                         &totals)) {
      break;
    }
  }
  const double wall_s = static_cast<double>(now_ns() - wall_start) / 1e9;

  std::vector<double> total_ms, detection_ms, election_ms, campaigns;
  for (const auto& ep : totals.episodes) {
    ++result.attempted;
    if (!ep.converged) {
      ++result.failed;
      continue;
    }
    total_ms.push_back(escape::to_ms_f(ep.total));
    detection_ms.push_back(escape::to_ms_f(ep.detection));
    election_ms.push_back(escape::to_ms_f(ep.election));
    campaigns.push_back(static_cast<double>(ep.campaigns));
  }
  result.problems = totals.problems;
  if (result.failed != 0) result.problems.push_back("an episode did not converge");
  if (totals.episodes.empty()) result.problems.push_back("no failover completed");

  const double election_p50 = median(total_ms);
  // The median cycle, not the count over the run: a rare election storm
  // under 20% loss costs many times a typical cycle. Each cycle is measured
  // against the yardstick run right after it, and the rate is given at the
  // host speed where the yardstick takes 1 ms: the raw median cycle moved
  // by a quarter between runs of the same code with the host's speed.
  const double failovers_per_s = ratio(1.0, median(totals.cycle_per_yardstick) * kYardstickMs / 1e3);
  const double raw_failovers_per_s = ratio(1.0, median(totals.cycle_s));

  std::map<std::string, double> layer;
  layer["raft.detection_ms"] = median(detection_ms);
  layer["raft.election_ms"] = median(election_ms);
  layer["raft.failover_ms"] = median(total_ms);
  layer["raft.campaigns_per_failover"] = median(campaigns);
  layer["sim.events_per_s"] = static_cast<double>(totals.events) / wall_s;
  layer["sim.msgs_per_election"] = median(totals.election_msgs);
  if (config.trace) {
    add_patrol_layer(&layer);
    const std::string dir = config.data_root + "/sim_paper_scale";
    std::filesystem::create_directories(dir);
    add_call_layers(dir, 1, 16, 64, {}, &layer);
  }
  result.report.push_back(fmt("failovers=%.0f sim_election_p50_ms=%.4f sim_election_p95_ms=%.4f",
                              static_cast<double>(totals.episodes.size()), election_p50,
                              percentile(total_ms, 95)));
  result.report.push_back(fmt("sim_failovers_per_s=%.4f (at a 1 ms yardstick) raw=%.4f "
                              "yardstick_p50_ms=%.4f",
                              failovers_per_s, raw_failovers_per_s, median(totals.yardstick_ms)));
  result.report.push_back(fmt("commit_p50_ms=%.4f commit_p99_ms=%.4f uncommitted_at_end=%.0f",
                              median(totals.commit_ms), percentile(totals.commit_ms, 99),
                              static_cast<double>(totals.uncommitted)));
  // Service resumes with the new leader: the paper's election time is the
  // simulator's time without service.
  finish(config,
         {{"setup_s", setup_s, "s"},
          {"unavail_p50_ms", election_p50, "ms"},
          {"rate_per_s", failovers_per_s, "1/s"}},
         std::move(layer), &result);
  return result;
}

}  // namespace perfbench
