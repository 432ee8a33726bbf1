#include "openloop.h"

#include <chrono>
#include <cmath>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {
constexpr std::int64_t kSpinNs = 300'000;
}  // namespace

std::vector<std::int64_t> poisson_schedule(escape::Rng& rng, double rate, std::int64_t start,
                                           std::int64_t end) {
  std::vector<std::int64_t> due;
  double t = static_cast<double>(start);
  for (;;) {
    // Exponential inter-arrival; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.uniform_real(0.0, 1.0)) / rate * 1e9;
    if (t >= static_cast<double>(end)) return due;
    due.push_back(static_cast<std::int64_t>(t));
  }
}

void OpenLoop::submit(Call& op) {
  escape::kv::Command command;
  command.op = op.kind;
  command.key = op.key;
  if (op.kind == escape::kv::Op::kPut) command.value = op.value;
  op.sent = now_ns();
  submitted_.fetch_add(1, std::memory_order_acq_rel);
  client_.submit(std::move(command),
                 [this, &op](escape::serve::Status status, const escape::kv::CommandResult& r) {
                   op.status = status;
                   if (op.kind == escape::kv::Op::kGet) {
                     op.found = r.ok;
                     op.value = r.value;
                   }
                   op.done = now_ns();
                   if (status == escape::serve::Status::kOk) {
                     std::int64_t seen = max_success_due_.load(std::memory_order_relaxed);
                     while (seen < op.due && !max_success_due_.compare_exchange_weak(
                                                 seen, op.due, std::memory_order_acq_rel)) {
                     }
                   }
                   completed_.fetch_add(1, std::memory_order_acq_rel);
                 });
}

OpenLoop::Outcome OpenLoop::run(std::size_t begin, std::size_t end, std::size_t* next,
                                const std::atomic<bool>* stop, std::size_t max_backlog) {
  std::size_t i = begin;
  Outcome outcome = Outcome::kDone;
  while (i < end) {
    if (stop && stop->load(std::memory_order_acquire)) {
      outcome = Outcome::kStopped;
      break;
    }
    if (max_backlog != 0 && outstanding() > max_backlog) {
      outcome = Outcome::kBacklog;
      break;
    }
    const std::int64_t wait = ops_[i].due - now_ns();
    if (wait > kSpinNs) {
      // Sleep in short slices so a stop request is seen promptly, and wake
      // early: the last stretch before a due instant is spun, since a
      // sleeping thread's wakeup on a virtual machine can cost milliseconds.
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min<std::int64_t>(wait - kSpinNs, 2'000'000)));
      continue;
    }
    if (wait > 0) continue;
    submit(ops_[i]);
    ++i;
  }
  *next = i;
  return outcome;
}

bool OpenLoop::drain(std::int64_t deadline) const {
  while (outstanding() != 0) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace perfbench
