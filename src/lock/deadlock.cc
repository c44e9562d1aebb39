#include "src/lock/deadlock.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <string_view>

namespace locus {

namespace {

// ToString(owner), written into `buffer` instead of a heap string; the
// longest, a transaction with every part at its largest, needs 46 bytes.
using OwnerText = std::array<char, 48>;

std::string_view WriteOwnerText(const LockOwner& o, OwnerText& buffer) {
  const int n = o.txn.valid()
                    ? snprintf(buffer.data(), buffer.size(), "txn:%d.%u.%llu", o.txn.site,
                               o.txn.epoch, static_cast<unsigned long long>(o.txn.serial))
                    : snprintf(buffer.data(), buffer.size(), "pid:%lld",
                               static_cast<long long>(o.pid));
  return std::string_view(buffer.data(), static_cast<size_t>(n));
}

}  // namespace

uint32_t WaitForGraph::Intern(const LockOwner& o) {
  const OwnerKey key = o.txn.valid() ? OwnerKey{o.txn, kNoPid} : OwnerKey{kNoTxn, o.pid};
  auto [it, added] = ids_.try_emplace(key, static_cast<uint32_t>(live_));
  if (added) {
    if (live_ < nodes_.size()) {
      nodes_[live_].out.clear();
    } else {
      nodes_.emplace_back();
    }
    ++live_;
  }
  nodes_[it->second].owner = o;
  return it->second;
}

void WaitForGraph::AddEdges(const std::vector<WaitEdge>& edges) {
  for (const WaitEdge& e : edges) {
    const uint32_t from = Intern(e.waiter);
    const uint32_t to = Intern(e.holder);
    std::vector<uint32_t>& out = nodes_[from].out;
    if (std::find(out.begin(), out.end(), to) == out.end()) {
      out.push_back(to);
    }
  }
}

void WaitForGraph::Reset() {
  live_ = 0;
  ids_.clear();
}

int WaitForGraph::edge_count() const {
  int n = 0;
  for (size_t id = 0; id < live_; ++id) {
    n += static_cast<int>(nodes_[id].out.size());
  }
  return n;
}

std::vector<std::vector<uint32_t>> WaitForGraph::FindCycleIds() const {
  const size_t n = live_;
  Search& w = search_;
  // Search roots in the order of the owners' text.
  w.text.resize(n);
  w.keys.resize(n);
  w.roots.resize(n);
  std::vector<std::string_view>& keys = w.keys;
  for (uint32_t id = 0; id < n; ++id) {
    keys[id] = WriteOwnerText(nodes_[id].owner, w.text[id]);
    w.roots[id] = id;
  }
  std::sort(w.roots.begin(), w.roots.end(),
            [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });

  // Iterative DFS with colors; reports each cycle found via the back-edge
  // stack slice. Good enough for the small graphs a detector daemon sees.
  std::vector<std::vector<uint32_t>> cycles;
  std::vector<bool>& done = w.done;
  done.assign(n, false);
  // A node's position on the stack, or -1 when it is not on it.
  std::vector<int>& stack_pos = w.stack_pos;
  stack_pos.assign(n, -1);
  std::vector<uint32_t>& stack = w.stack;
  stack.clear();
  // Each frame: node + index of next neighbour to visit.
  std::vector<std::pair<uint32_t, size_t>>& frames = w.frames;
  frames.clear();
  for (uint32_t start : w.roots) {
    if (done[start]) {
      continue;
    }
    frames.push_back({start, 0});
    stack_pos[start] = 0;
    stack.push_back(start);

    while (!frames.empty()) {
      auto& [node, idx] = frames.back();
      const std::vector<uint32_t>& out = nodes_[node].out;
      if (idx >= out.size()) {
        done[node] = true;
        stack_pos[node] = -1;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const uint32_t next = out[idx++];
      if (stack_pos[next] >= 0) {
        // Back edge: the cycle is the stack slice from `next` onward.
        cycles.emplace_back(stack.begin() + stack_pos[next], stack.end());
        continue;
      }
      if (done[next]) {
        continue;
      }
      frames.push_back({next, 0});
      stack_pos[next] = static_cast<int>(stack.size());
      stack.push_back(next);
    }
  }
  return cycles;
}

std::vector<std::vector<LockOwner>> WaitForGraph::FindCycles() const {
  std::vector<std::vector<LockOwner>> cycles;
  for (const std::vector<uint32_t>& ids : FindCycleIds()) {
    std::vector<LockOwner>& cycle = cycles.emplace_back();
    for (uint32_t id : ids) {
      cycle.push_back(nodes_[id].owner);
    }
  }
  return cycles;
}

std::vector<LockOwner> WaitForGraph::SelectVictims() const {
  std::vector<LockOwner> victims;
  const std::vector<std::vector<uint32_t>> cycles = FindCycleIds();
  std::vector<bool>& chosen = search_.chosen;
  chosen.assign(live_, false);
  for (const std::vector<uint32_t>& cycle : cycles) {
    const LockOwner* victim = nullptr;
    uint32_t victim_id = 0;
    for (uint32_t id : cycle) {
      const LockOwner& o = nodes_[id].owner;
      if (o.txn.valid() && (victim == nullptr || o.txn > victim->txn)) {
        victim = &o;
        victim_id = id;
      }
    }
    if (victim == nullptr) {
      // No transaction on the cycle: evict the largest pid.
      for (uint32_t id : cycle) {
        const LockOwner& o = nodes_[id].owner;
        if (victim == nullptr || o.pid > victim->pid) {
          victim = &o;
          victim_id = id;
        }
      }
    }
    if (victim != nullptr && !chosen[victim_id]) {
      chosen[victim_id] = true;
      victims.push_back(*victim);
    }
  }
  return victims;
}

}  // namespace locus
