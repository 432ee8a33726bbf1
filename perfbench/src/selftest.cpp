// Negative tests for the correctness checkers: every planted fault must be
// flagged, and the matching clean history must pass. Run with
// `perfbench --selftest`; run.py runs it before every workload, so a
// checker that cannot fail stops the benchmark.
#include <cstdio>
#include <string>

#include "bench.h"
#include "checks.h"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool flagged, bool want_flagged, const char* what) {
  if (flagged != want_flagged) {
    std::fprintf(stderr, "selftest: %s: checker %s\n", what,
                 want_flagged ? "missed the planted fault" : "flagged a clean history");
    ++failures;
  }
}

}  // namespace

int run_selftest() {
  // Two sequential Puts to k: a (acked at 20), then b (sent 30, acked 40).
  const std::vector<PutRecord> puts = {{"k", "a", 10, 20}, {"k", "b", 30, 40}};

  // Stale read: a Get sent at 50, after b was acknowledged, returns a.
  expect(!check_stale_reads(puts, {{"k", "a", 50, 60}}).empty(), true, "stale read");
  expect(!check_stale_reads(puts, {{"k", "b", 50, 60}}).empty(), false, "fresh read");
  // A Get concurrent with b may return either value.
  expect(!check_stale_reads(puts, {{"k", "a", 35, 45}}).empty(), false, "concurrent read");
  // A Get that finished before a Put was sent cannot see it.
  expect(!check_stale_reads(puts, {{"k", "b", 1, 5}}).empty(), true, "read from the future");
  expect(!check_stale_reads(puts, {{"k", std::nullopt, 50, 60}}).empty(), true, "absent read");
  expect(!check_stale_reads(puts, {{"k", "zz", 50, 60}}).empty(), true, "unwritten value");

  // Lost acknowledged write: the final value is a, which b overwrote.
  expect(!check_final_values(puts, {{"k", "a"}}).empty(), true, "lost final write");
  expect(!check_final_values(puts, {{"k", "b"}}).empty(), false, "maximal final write");
  expect(!check_final_values(puts, {{"k", std::nullopt}}).empty(), true, "final key absent");
  // An unacknowledged later Put need not have taken effect.
  const std::vector<PutRecord> maybe = {{"k", "a", 10, 20}, {"k", "c", 30, kNotAcked}};
  expect(!check_final_values(maybe, {{"k", "a"}}).empty(), false, "unacked overwrite");

  const std::vector<PutRecord> distinct = {{"w1", "x", 10, 20}, {"w2", "y", 30, kNotAcked}};
  expect(!check_readback(distinct, {{"w1", "x"}}).empty(), false, "read back");
  expect(!check_readback(distinct, {{"w1", std::nullopt}}).empty(), true, "lost acked write");
  expect(!check_readback(distinct, {}).empty(), true, "write not read back");

  // Success before the failover: a write due after the kill succeeded
  // before the last poll that still found no leader.
  expect(!check_kills({{100, 300, 301, 250}}).empty(), true, "success before failover");
  expect(!check_kills({{100, 300, 301, 320}}).empty(), false, "success after failover");

  LeaderAudit two;
  two.observe(5, 1);
  two.observe(5, 2);
  expect(!two.problems().empty(), true, "two leaders in one term");
  LeaderAudit one;
  one.observe(5, 1);
  one.observe(6, 2);
  one.observe(6, 2);
  expect(!one.problems().empty(), false, "one leader per term");

  SimAudit diverged;
  escape::rpc::LogEntry e1;
  e1.term = 2;
  e1.index = 7;
  e1.command = {1, 2, 3};
  escape::rpc::LogEntry e2 = e1;
  e2.command = {9};
  diverged.on_apply(1, e1);
  diverged.on_apply(2, e1);
  expect(!diverged.problems().empty(), false, "agreeing applies");
  diverged.on_apply(3, e2);
  expect(!diverged.problems().empty(), true, "diverging applies");

  if (failures == 0) std::printf("selftest: every checker flagged its planted faults\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
