#include "checks.h"

#include <algorithm>
#include <unordered_map>

namespace perfbench {
namespace {

constexpr std::size_t kMaxReported = 5;

void report(std::vector<std::string>& problems, std::string line) {
  if (problems.size() < kMaxReported) problems.push_back(std::move(line));
}

/// Per key: each Put's "overwritten at" instant — the earliest ack of a Put
/// to the same key that was sent after this Put was acknowledged
/// (kNotAcked when none was). A Put p is stale for a reader that starts
/// after overwritten_at(p), and maximal when overwritten_at(p) is kNotAcked.
struct KeyIndex {
  std::unordered_map<std::string, std::size_t> put_of_value;
  std::vector<std::int64_t> overwritten_at;
  std::unordered_map<std::string, std::int64_t> first_ack;  ///< per key

  explicit KeyIndex(const std::vector<PutRecord>& puts) : overwritten_at(puts.size(), kNotAcked) {
    std::unordered_map<std::string, std::vector<std::size_t>> by_key;
    for (std::size_t i = 0; i < puts.size(); ++i) {
      put_of_value.emplace(puts[i].value, i);
      by_key[puts[i].key].push_back(i);
      auto [it, fresh] = first_ack.emplace(puts[i].key, puts[i].acked);
      if (!fresh) it->second = std::min(it->second, puts[i].acked);
    }
    for (auto& [key, ids] : by_key) {
      std::sort(ids.begin(), ids.end(),
                [&](std::size_t a, std::size_t b) { return puts[a].sent < puts[b].sent; });
      // suffix_min[j]: earliest ack among the Puts sent at or after ids[j].
      std::vector<std::int64_t> suffix_min(ids.size() + 1, kNotAcked);
      for (std::size_t j = ids.size(); j-- > 0;) {
        suffix_min[j] = std::min(suffix_min[j + 1], puts[ids[j]].acked);
      }
      for (std::size_t id : ids) {
        if (puts[id].acked == kNotAcked) continue;
        const auto later = std::upper_bound(
            ids.begin(), ids.end(), puts[id].acked,
            [&](std::int64_t t, std::size_t other) { return t < puts[other].sent; });
        overwritten_at[id] = suffix_min[static_cast<std::size_t>(later - ids.begin())];
      }
    }
  }

  std::int64_t key_first_ack(const std::string& key) const {
    const auto it = first_ack.find(key);
    return it == first_ack.end() ? kNotAcked : it->second;
  }
};

}  // namespace

std::vector<std::string> check_stale_reads(const std::vector<PutRecord>& puts,
                                           const std::vector<GetRecord>& gets) {
  std::vector<std::string> problems;
  const KeyIndex index(puts);
  for (const auto& get : gets) {
    if (!get.value) {
      if (index.key_first_ack(get.key) < get.sent) {
        report(problems, "stale read: " + get.key + " read absent after a Put was acknowledged");
      }
      continue;
    }
    const auto it = index.put_of_value.find(*get.value);
    if (it == index.put_of_value.end() || puts[it->second].key != get.key) {
      report(problems, "bad read: " + get.key + " returned a value no Put to it wrote");
      continue;
    }
    const PutRecord& put = puts[it->second];
    if (put.sent > get.done) {
      report(problems, "bad read: " + get.key + " returned a value written after the Get");
    } else if (index.overwritten_at[it->second] < get.sent) {
      report(problems, "stale read: " + get.key + " returned " + put.value +
                           ", overwritten before the Get was sent");
    }
  }
  return problems;
}

std::vector<std::string> check_final_values(
    const std::vector<PutRecord>& puts,
    const std::map<std::string, std::optional<std::string>>& final_values) {
  std::vector<std::string> problems;
  const KeyIndex index(puts);
  for (const auto& [key, value] : final_values) {
    if (!value) {
      if (index.key_first_ack(key) != kNotAcked) {
        report(problems, "lost write: " + key + " is absent after an acknowledged Put");
      }
      continue;
    }
    const auto it = index.put_of_value.find(*value);
    if (it == index.put_of_value.end() || puts[it->second].key != key) {
      report(problems, "bad final value: " + key + " holds a value no Put to it wrote");
    } else if (index.overwritten_at[it->second] != kNotAcked) {
      report(problems, "lost write: " + key + " ends at " + *value +
                           ", which a later acknowledged Put overwrote");
    }
  }
  return problems;
}

std::vector<std::string> check_readback(
    const std::vector<PutRecord>& puts,
    const std::map<std::string, std::optional<std::string>>& read_back) {
  std::vector<std::string> problems;
  for (const auto& put : puts) {
    if (put.acked == kNotAcked) continue;
    const auto it = read_back.find(put.key);
    if (it == read_back.end()) {
      report(problems, "unchecked write: " + put.key + " was not read back");
    } else if (it->second != put.value) {
      report(problems, "lost write: acknowledged " + put.key + "=" + put.value + " reads back " +
                           it->second.value_or("<absent>"));
    }
  }
  return problems;
}

std::vector<std::string> check_kills(const std::vector<KillRecord>& kills) {
  std::vector<std::string> problems;
  for (std::size_t i = 0; i < kills.size(); ++i) {
    const KillRecord& k = kills[i];
    if (k.first_success <= k.last_leaderless_poll) {
      report(problems, "kill " + std::to_string(i) +
                           ": a write due after the kill succeeded while no leader existed");
    }
    if (k.leader_seen <= k.kill || k.first_success <= k.kill) {
      report(problems, "kill " + std::to_string(i) + ": failover observed before the kill");
    }
  }
  return problems;
}

void LeaderAudit::observe(escape::Term term, escape::ServerId leader) {
  const auto [it, fresh] = leaders_.emplace(term, leader);
  if (!fresh && it->second != leader) {
    report(problems_, "two leaders in term " + std::to_string(term) + ": S" +
                          std::to_string(it->second) + " and S" + std::to_string(leader));
  }
}

void SimAudit::on_event(const escape::raft::NodeEvent& event) {
  if (event.kind == escape::raft::NodeEvent::Kind::kBecameLeader) {
    leaders_.observe(event.term, event.node);
  }
}

std::vector<std::string> SimAudit::problems() const {
  std::vector<std::string> all = leaders_.problems();
  all.insert(all.end(), problems_.begin(), problems_.end());
  return all;
}

void SimAudit::on_apply(escape::ServerId server, const escape::rpc::LogEntry& entry) {
  // FNV-1a over (term, kind, command): equal fingerprints <=> same entry.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t byte) { h = (h ^ byte) * 1099511628211ull; };
  for (int shift = 0; shift < 64; shift += 8) mix((entry.term >> shift) & 0xff);
  mix(static_cast<std::uint64_t>(entry.kind));
  for (std::uint8_t b : entry.command) mix(b);
  const auto [it, fresh] = applied_.emplace(entry.index, h);
  if (!fresh && it->second != h) {
    report(problems_, "S" + std::to_string(server) + " applied a different entry at index " +
                          std::to_string(entry.index));
  }
}

}  // namespace perfbench
