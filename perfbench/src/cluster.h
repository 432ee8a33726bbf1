// A durable KvServer cluster on loopback sockets, with kill and restart.
//
// Every replica keeps its data directory on the workload's filesystem, so
// FileWal and FileStateStore fsync for real. A kill stops and destroys the
// replica in-process: it models a process crash (the page cache survives),
// not a power loss. A restart builds a fresh KvServer over the same data
// directory and the same ports.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/real_cluster.h"
#include "serve/kv_server.h"

namespace perfbench {

/// The real-runtime timing both real workloads use (the fig16 serving
/// settings): 60 ms heartbeats and ESCAPE with baseTime 300 ms and
/// k = 150 ms, or, with `raft`, Raft's randomized 300-600 ms timeouts.
inline constexpr escape::Duration kHeartbeat = escape::from_ms(60);
escape::net::PolicyFactory real_policy(bool raft);

class DurableCluster {
 public:
  /// Binds every raft and client listener up front, so the endpoint map is
  /// final before any replica starts and a restart reuses the same ports.
  DurableCluster(std::size_t size, std::string data_dir, std::uint64_t seed,
                 escape::net::PolicyFactory policy);
  ~DurableCluster();

  DurableCluster(const DurableCluster&) = delete;
  DurableCluster& operator=(const DurableCluster&) = delete;

  void start();
  void stop();

  const std::map<escape::ServerId, std::uint16_t>& client_ports() const { return client_ports_; }
  const std::vector<escape::ServerId>& ids() const { return ids_; }
  /// Null while the replica is killed.
  escape::serve::KvServer* server(escape::ServerId id) const;
  /// A live replica that reports Role::kLeader (kNoServer when none does).
  escape::ServerId leader() const;

  void kill(escape::ServerId id);
  void restart(escape::ServerId id);

 private:
  std::unique_ptr<escape::serve::KvServer> make_server(escape::ServerId id, int raft_fd,
                                                       int client_fd);

  const std::string data_dir_;
  const std::uint64_t seed_;
  const escape::net::PolicyFactory policy_;
  std::vector<escape::ServerId> ids_;
  std::map<escape::ServerId, std::uint16_t> raft_ports_;
  std::map<escape::ServerId, std::uint16_t> client_ports_;
  std::map<escape::ServerId, std::unique_ptr<escape::serve::KvServer>> servers_;
  std::uint64_t incarnation_ = 0;
};

}  // namespace perfbench
