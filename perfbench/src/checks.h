// Correctness checks computed from the client's own history, apart from the
// program: what each client saw, stamped on the benchmark's clock.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "raft/raft_node.h"
#include "rpc/messages.h"

namespace perfbench {

inline constexpr std::int64_t kNotAcked = INT64_MAX;

/// One Put as the client saw it. Every Put writes a value no other Put
/// writes, so a value read identifies its Put.
struct PutRecord {
  std::string key;
  std::string value;
  std::int64_t sent = 0;
  std::int64_t acked = kNotAcked;  ///< kNotAcked: outcome unknown (timed out)
};

/// One successful Get: the value it returned (nullopt: key absent).
struct GetRecord {
  std::string key;
  std::optional<std::string> value;
  std::int64_t sent = 0;
  std::int64_t done = 0;
};

/// A Get must not return a value that was overwritten before the Get was
/// sent: a Put p' on the key overwrote Put p when p' was sent after p was
/// acknowledged and was itself acknowledged before the Get was sent. A Get
/// must also not return a value no Put wrote, a value whose Put was sent
/// after the Get completed, or "absent" after a Put to the key was
/// acknowledged.
std::vector<std::string> check_stale_reads(const std::vector<PutRecord>& puts,
                                           const std::vector<GetRecord>& gets);

/// After the run, each key's final value must come from one of its maximal
/// writes in real-time order: a Put that no acknowledged Put to the same key
/// followed (sent after it was acknowledged). A key with an acknowledged Put
/// must be present.
std::vector<std::string> check_final_values(
    const std::vector<PutRecord>& puts,
    const std::map<std::string, std::optional<std::string>>& final_values);

/// Every acknowledged Put must read back with its value.
std::vector<std::string> check_readback(
    const std::vector<PutRecord>& puts,
    const std::map<std::string, std::optional<std::string>>& read_back);

/// One leader kill on the real cluster, stamped in steady-clock ns.
struct KillRecord {
  std::int64_t kill = 0;
  /// Start of the last role poll that found no leader among the survivors:
  /// no new leader existed before this instant.
  std::int64_t last_leaderless_poll = 0;
  std::int64_t leader_seen = 0;    ///< start of the first poll that found one
  std::int64_t first_success = 0;  ///< first success of a write due after `kill`
};

/// No write due after a kill may succeed before a new leader exists: the
/// first such success must come after the last poll that found none.
std::vector<std::string> check_kills(const std::vector<KillRecord>& kills);

/// Records (term, leader) observations and flags a term with two leaders.
class LeaderAudit {
 public:
  void observe(escape::Term term, escape::ServerId leader);
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  std::map<escape::Term, escape::ServerId> leaders_;
  std::vector<std::string> problems_;
};

/// Simulator audit fed from SimCluster's event listener and apply hook:
/// one leader per term, and every server applies the same entry at each
/// index.
class SimAudit {
 public:
  void on_event(const escape::raft::NodeEvent& event);
  void on_apply(escape::ServerId server, const escape::rpc::LogEntry& entry);
  std::vector<std::string> problems() const;

 private:
  LeaderAudit leaders_;
  std::map<escape::LogIndex, std::uint64_t> applied_;  ///< index -> entry fingerprint
  std::vector<std::string> problems_;
};

}  // namespace perfbench
