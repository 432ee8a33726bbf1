// Tracing for the traced run, entirely from the benchmark's side of the
// program's public API: nothing inside src/ is instrumented.
//
//   * net: net::testhooks recv/send replaced by wrappers that count calls and
//     bytes and time each syscall;
//   * core: a forwarding ElectionPolicy, supplied through the PolicyFactory,
//     that times begin_heartbeat_round (the ESCAPE patrol);
//   * storage, rpc, common, kv: calls into FileWal, FileStateStore,
//     encode_message/decode_message, crc32 and KvStore::apply, timed at the
//     sizes the workload produced.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "kv/kv_command.h"
#include "net/real_cluster.h"

namespace perfbench {

struct NetTrace {
  std::atomic<std::uint64_t> calls{0};  ///< recv + send syscalls
  std::atomic<std::uint64_t> bytes{0};  ///< bytes moved by them
  std::atomic<std::uint64_t> ns{0};     ///< time inside them
};

/// Installs the counting syscall wrappers. Call before any event loop
/// starts; the returned guard restores the real syscalls when destroyed,
/// which must happen after every loop has stopped.
class NetTraceScope {
 public:
  NetTraceScope();
  ~NetTraceScope();
  NetTraceScope(const NetTraceScope&) = delete;
  NetTraceScope& operator=(const NetTraceScope&) = delete;
};
NetTrace& net_trace();

struct PatrolTrace {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
};
PatrolTrace& patrol_trace();

/// Wraps every policy `inner` builds in a forwarding policy that times
/// begin_heartbeat_round into patrol_trace().
/// (net::PolicyFactory and sim::PolicyFactory are the same type.)
escape::net::PolicyFactory timed_policy(escape::net::PolicyFactory inner);

// --- layer calls timed at the workload's sizes (medians) ---------------------

/// FileWal::append_batch of `batch` entries of `command_bytes` + sync, in
/// `dir`; microseconds per batch.
double wal_sync_us(const std::string& dir, std::size_t batch, std::size_t command_bytes);
/// FileStateStore::save in `dir`; microseconds per save.
double state_save_us(const std::string& dir);
/// encode_message / decode_message of an AppendEntries carrying `batch`
/// entries of `command_bytes`; nanoseconds per entry.
void codec_ns_per_entry(std::size_t batch, std::size_t command_bytes, double* encode_ns,
                        double* decode_ns);
/// crc32 over buffers of `bytes`; MB/s.
double crc32_mb_s(std::size_t bytes);
/// KvStore::apply over `commands` in log entries; nanoseconds per command.
double apply_ns_per_op(const std::vector<escape::kv::Command>& commands);

}  // namespace perfbench
