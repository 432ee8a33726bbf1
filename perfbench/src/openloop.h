// Single-process open-loop load over one serve::KvClient.
//
// Arrivals follow a precomputed schedule (Poisson, from the run's seed) and
// are submitted at their due instants whatever the system does, so a stall
// accumulates arrivals instead of pausing the clock. Every latency is timed
// from the due instant, and the generator records how late it submitted
// each request.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kv/kv_command.h"
#include "serve/kv_client.h"

namespace perfbench {

/// One scheduled request and, once it completes, what the client saw.
struct Call {
  escape::kv::Op kind = escape::kv::Op::kPut;
  std::string key;
  std::string value;             ///< Put: the value written; Get: the value read
  std::int64_t due = 0;          ///< scheduled submit instant (ns)
  std::int64_t sent = 0;         ///< actual submit instant
  std::int64_t done = 0;         ///< completion callback instant (0: pending)
  escape::serve::Status status = escape::serve::Status::kRetry;
  bool found = false;            ///< Get: the key was present
  bool ok() const { return done != 0 && status == escape::serve::Status::kOk; }
};

/// Poisson arrival instants at `rate` per second in (`start`, `end`) (ns).
std::vector<std::int64_t> poisson_schedule(escape::Rng& rng, double rate, std::int64_t start,
                                           std::int64_t end);

class OpenLoop {
 public:
  enum class Outcome { kDone, kStopped, kBacklog };

  /// `ops` must not be resized while the loop or its callbacks may use it.
  OpenLoop(escape::serve::KvClient& client, std::vector<Call>& ops) : client_(client), ops_(ops) {}

  /// Submits ops[begin, end) at their due instants. Returns early with
  /// kStopped once `stop` reads true, or with kBacklog once more than
  /// `max_backlog` requests are outstanding (0: no limit). `*next` receives
  /// the index of the first op not submitted.
  Outcome run(std::size_t begin, std::size_t end, std::size_t* next,
              const std::atomic<bool>* stop = nullptr, std::size_t max_backlog = 0);

  /// Waits until every submitted request has completed or `deadline` (ns)
  /// passes; true when none is left outstanding.
  bool drain(std::int64_t deadline) const;

  std::size_t outstanding() const {
    return submitted_.load(std::memory_order_acquire) - completed_.load(std::memory_order_acquire);
  }
  /// Due instant of the latest-due request that has succeeded so far.
  std::int64_t max_success_due() const { return max_success_due_.load(std::memory_order_acquire); }

 private:
  void submit(Call& op);

  escape::serve::KvClient& client_;
  std::vector<Call>& ops_;
  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::int64_t> max_success_due_{0};
};

}  // namespace perfbench
