#include "trace.h"

#include <filesystem>

#include "bench.h"
#include "common/serde.h"
#include "kv/kv_store.h"
#include "raft/election_policy.h"
#include "rpc/messages.h"
#include "storage/state_store.h"
#include "storage/wal.h"

namespace perfbench {
namespace {

NetTrace g_net;
PatrolTrace g_patrol;

void count_syscall(std::int64_t start, ssize_t n) {
  g_net.calls.fetch_add(1, std::memory_order_relaxed);
  if (n > 0) g_net.bytes.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
  g_net.ns.fetch_add(static_cast<std::uint64_t>(now_ns() - start), std::memory_order_relaxed);
}

ssize_t traced_recv(int fd, void* buf, std::size_t len, int flags) {
  const std::int64_t start = now_ns();
  const ssize_t n = ::recv(fd, buf, len, flags);
  count_syscall(start, n);
  return n;
}

ssize_t traced_send(int fd, const void* buf, std::size_t len, int flags) {
  const std::int64_t start = now_ns();
  const ssize_t n = ::send(fd, buf, len, flags);
  count_syscall(start, n);
  return n;
}

/// Forwards every ElectionPolicy call to the wrapped policy and times the
/// heartbeat-round patrol.
class TimedPolicy final : public escape::raft::ElectionPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<escape::raft::ElectionPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  escape::Term campaign_term(escape::Term current) const override {
    return inner_->campaign_term(current);
  }
  escape::Duration min_election_timeout() const override { return inner_->min_election_timeout(); }
  escape::ConfClock vote_request_clock() const override { return inner_->vote_request_clock(); }
  bool approve_candidate(const escape::rpc::RequestVote& request) const override {
    return inner_->approve_candidate(request);
  }
  bool on_config_received(const escape::rpc::Configuration& config) override {
    return inner_->on_config_received(config);
  }
  escape::rpc::Configuration current_config() const override { return inner_->current_config(); }
  void restore(const escape::rpc::Configuration& config) override { inner_->restore(config); }
  void on_become_leader(const std::vector<escape::ServerId>& others, escape::Term term) override {
    inner_->on_become_leader(others, term);
  }
  void on_membership_changed(const std::vector<escape::ServerId>& voter_others,
                             std::size_t n_voters) override {
    inner_->on_membership_changed(voter_others, n_voters);
  }
  void on_follower_status(escape::ServerId from, const escape::rpc::ConfigStatus& status) override {
    inner_->on_follower_status(from, status);
  }
  void on_follower_backlog(escape::ServerId follower, escape::LogIndex backlog,
                           std::size_t inflight) override {
    inner_->on_follower_backlog(follower, backlog, inflight);
  }
  void begin_heartbeat_round() override {
    const std::int64_t start = now_ns();
    inner_->begin_heartbeat_round();
    g_patrol.ns.fetch_add(static_cast<std::uint64_t>(now_ns() - start), std::memory_order_relaxed);
    g_patrol.calls.fetch_add(1, std::memory_order_relaxed);
  }
  std::optional<escape::rpc::Configuration> config_for(escape::ServerId dest) override {
    return inner_->config_for(dest);
  }
  std::optional<escape::rpc::Configuration> assignment_for(escape::ServerId dest) override {
    return inner_->assignment_for(dest);
  }

 protected:
  // The wrapper's own timeout override (if any) is consulted first by
  // next_election_timeout(); the inner policy then samples as usual.
  escape::Duration sample_election_timeout(escape::Rng& rng) override {
    return inner_->next_election_timeout(rng);
  }

 private:
  std::unique_ptr<escape::raft::ElectionPolicy> inner_;
};

/// Median nanoseconds of `reps` calls of `fn`.
template <typename Fn>
double median_ns(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const std::int64_t start = now_ns();
    fn();
    samples.push_back(static_cast<double>(now_ns() - start));
  }
  return median(std::move(samples));
}

std::vector<escape::rpc::LogEntry> make_entries(std::size_t batch, std::size_t command_bytes,
                                                escape::LogIndex first) {
  std::vector<escape::rpc::LogEntry> entries(std::max<std::size_t>(batch, 1));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].term = 3;
    entries[i].index = first + i;
    entries[i].command.assign(command_bytes, static_cast<std::uint8_t>(i * 31 + 7));
  }
  return entries;
}

}  // namespace

NetTraceScope::NetTraceScope() {
  escape::net::testhooks::recv_fn = &traced_recv;
  escape::net::testhooks::send_fn = &traced_send;
}

NetTraceScope::~NetTraceScope() { escape::net::testhooks::reset(); }

NetTrace& net_trace() { return g_net; }
PatrolTrace& patrol_trace() { return g_patrol; }

escape::net::PolicyFactory timed_policy(escape::net::PolicyFactory inner) {
  return [inner = std::move(inner)](escape::ServerId id, std::size_t n) {
    return std::make_unique<TimedPolicy>(inner(id, n));
  };
}

double wal_sync_us(const std::string& dir, std::size_t batch, std::size_t command_bytes) {
  const std::string path = dir + "/layer.wal";
  std::filesystem::remove(path);
  double us = 0;
  {
    escape::storage::FileWal wal(path);
    escape::LogIndex next = 1;
    us = median_ns(40, [&] {
           wal.append_batch(make_entries(batch, command_bytes, next));
           wal.sync();
           next += std::max<std::size_t>(batch, 1);
         }) /
         1e3;
  }
  std::filesystem::remove(path);
  return us;
}

double state_save_us(const std::string& dir) {
  const std::string path = dir + "/layer.state";
  double us = 0;
  {
    escape::storage::FileStateStore store(path);
    escape::storage::PersistentState state;
    state.voted_for = 2;
    us = median_ns(40, [&] {
           ++state.current_term;
           store.save(state);
         }) /
         1e3;
  }
  std::filesystem::remove(path);
  return us;
}

void codec_ns_per_entry(std::size_t batch, std::size_t command_bytes, double* encode_ns,
                        double* decode_ns) {
  escape::rpc::AppendEntries append;
  append.term = 3;
  append.leader_id = 1;
  append.prev_log_index = 100;
  append.prev_log_term = 3;
  append.leader_commit = 100;
  append.entries = make_entries(batch, command_bytes, 101);
  const escape::rpc::Message message = append;
  const auto bytes = escape::rpc::encode_message(message);
  const double per = static_cast<double>(append.entries.size());
  std::size_t sink = 0;
  *encode_ns = median_ns(2000, [&] { sink += escape::rpc::encode_message(message).size(); }) / per;
  *decode_ns = median_ns(2000, [&] { sink += escape::rpc::decode_message(bytes).index(); }) / per;
  if (sink == 0) *encode_ns = -1;  // keeps the calls observable
}

double crc32_mb_s(std::size_t bytes) {
  std::vector<std::uint8_t> buf(std::max<std::size_t>(bytes, 1));
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i * 131 + 17);
  const int reps = static_cast<int>(std::max<std::size_t>(200, (4u << 20) / buf.size()));
  std::uint32_t sink = 0;
  const std::int64_t start = now_ns();
  for (int i = 0; i < reps; ++i) {
    buf[0] = static_cast<std::uint8_t>(i);
    sink ^= escape::crc32(buf);
  }
  const double seconds = static_cast<double>(now_ns() - start) / 1e9;
  if (sink == 0xFFFFFFFFu) buf[0] = 0;  // keeps the calls observable
  return static_cast<double>(buf.size()) * reps / 1e6 / seconds;
}

double apply_ns_per_op(const std::vector<escape::kv::Command>& commands) {
  if (commands.empty()) return 0;
  std::vector<escape::rpc::LogEntry> entries(commands.size());
  for (std::size_t i = 0; i < commands.size(); ++i) {
    entries[i].term = 1;
    entries[i].index = i + 1;
    entries[i].command = escape::kv::encode_command(commands[i]);
  }
  std::vector<double> per_op;
  for (int rep = 0; rep < 5; ++rep) {
    escape::kv::KvStore store;
    const std::int64_t start = now_ns();
    for (const auto& entry : entries) store.apply(entry);
    per_op.push_back(static_cast<double>(now_ns() - start) / static_cast<double>(entries.size()));
  }
  return median(std::move(per_op));
}

}  // namespace perfbench
