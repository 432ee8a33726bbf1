#include "cluster.h"

#include <filesystem>
#include <stdexcept>

#include "core/escape_policy.h"
#include "raft/election_policy.h"

namespace perfbench {

using escape::ServerId;

escape::net::PolicyFactory real_policy(bool raft) {
  if (raft) {
    return [](ServerId, std::size_t) {
      return std::make_unique<escape::raft::RaftRandomizedPolicy>(escape::from_ms(300),
                                                                  escape::from_ms(600));
    };
  }
  escape::core::EscapeOptions opts;
  opts.base_time = escape::from_ms(300);
  opts.gap = escape::from_ms(150);
  return [opts](ServerId id, std::size_t n) {
    return std::make_unique<escape::core::EscapePolicy>(id, n, opts);
  };
}

DurableCluster::DurableCluster(std::size_t size, std::string data_dir, std::uint64_t seed,
                               escape::net::PolicyFactory policy)
    : data_dir_(std::move(data_dir)), seed_(seed), policy_(std::move(policy)) {
  std::filesystem::create_directories(data_dir_);
  std::map<ServerId, int> raft_fds;
  std::map<ServerId, int> client_fds;
  for (ServerId id = 1; id <= size; ++id) {
    ids_.push_back(id);
    const auto raft = escape::net::bind_loopback_listener(0);
    const auto client = escape::net::bind_loopback_listener(0);
    raft_ports_[id] = raft.port;
    client_ports_[id] = client.port;
    raft_fds[id] = raft.fd;
    client_fds[id] = client.fd;
  }
  for (ServerId id : ids_) servers_[id] = make_server(id, raft_fds[id], client_fds[id]);
}

DurableCluster::~DurableCluster() { stop(); }

std::unique_ptr<escape::serve::KvServer> DurableCluster::make_server(ServerId id, int raft_fd,
                                                                     int client_fd) {
  escape::serve::KvServer::Options options;
  options.node.node.heartbeat_interval = kHeartbeat;
  options.node.data_dir = data_dir_;
  options.node.seed = seed_ * 1000 + id * 10 + incarnation_++;
  options.node.listen_fd = raft_fd;
  options.client_listen_fd = client_fd;
  options.client_port = client_ports_.at(id);
  return std::make_unique<escape::serve::KvServer>(id, raft_ports_, policy_, options);
}

void DurableCluster::start() {
  for (auto& [id, server] : servers_) server->start();
}

void DurableCluster::stop() {
  for (auto& [id, server] : servers_) {
    if (server) server->stop();
  }
  servers_.clear();
}

escape::serve::KvServer* DurableCluster::server(ServerId id) const {
  const auto it = servers_.find(id);
  return it == servers_.end() ? nullptr : it->second.get();
}

ServerId DurableCluster::leader() const {
  for (const auto& [id, server] : servers_) {
    if (server && server->node().role() == escape::Role::kLeader) return id;
  }
  return escape::kNoServer;
}

void DurableCluster::kill(ServerId id) {
  auto& server = servers_.at(id);
  if (!server) throw std::logic_error("kill: replica already down");
  server->stop();
  server.reset();
}

void DurableCluster::restart(ServerId id) {
  auto& server = servers_.at(id);
  if (server) throw std::logic_error("restart: replica is running");
  const auto raft = escape::net::bind_loopback_listener(raft_ports_.at(id));
  const auto client = escape::net::bind_loopback_listener(client_ports_.at(id));
  server = make_server(id, raft.fd, client.fd);
  server->start();
}

}  // namespace perfbench
