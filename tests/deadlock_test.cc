// Wait-for-graph construction, cycle detection and victim selection
// (section 3.1: deadlock detection is a user-level service built on the
// kernel's exported wait-for data), plus an end-to-end deadlock between two
// distributed transactions resolved by the detector daemon.

#include "src/lock/deadlock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/locus/system.h"
#include "src/sim/random.h"

namespace locus {
namespace {

const TxnId kT1{0, 0, 1};
const TxnId kT2{0, 0, 2};
const TxnId kT3{0, 0, 3};
const FileId kFile{0, 1};

LockOwner Txn(const TxnId& t) { return LockOwner{kNoPid, t}; }
LockOwner Proc(Pid p) { return LockOwner{p, kNoTxn}; }

WaitEdge Edge(LockOwner waiter, LockOwner holder) { return WaitEdge{waiter, holder, kFile}; }

TEST(WaitForGraph, NoCycleInChain) {
  WaitForGraph g;
  g.AddEdges({Edge(Txn(kT1), Txn(kT2)), Edge(Txn(kT2), Txn(kT3))});
  EXPECT_TRUE(g.FindCycles().empty());
  EXPECT_TRUE(g.SelectVictims().empty());
}

TEST(WaitForGraph, DetectsTwoCycle) {
  WaitForGraph g;
  g.AddEdges({Edge(Txn(kT1), Txn(kT2)), Edge(Txn(kT2), Txn(kT1))});
  auto cycles = g.FindCycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].size(), 2u);
  // Victim: the youngest transaction (largest id).
  auto victims = g.SelectVictims();
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].txn, kT2);
}

TEST(WaitForGraph, DetectsSelfCycle) {
  // Degenerate but must not loop: an owner waiting on itself (bad data).
  WaitForGraph g;
  g.AddEdges({Edge(Txn(kT1), Txn(kT1))});
  EXPECT_EQ(g.FindCycles().size(), 1u);
}

TEST(WaitForGraph, DetectsLongCycleAmongChaff) {
  WaitForGraph g;
  g.AddEdges({
      Edge(Txn(kT1), Txn(kT2)),
      Edge(Txn(kT2), Txn(kT3)),
      Edge(Txn(kT3), Txn(kT1)),      // 3-cycle.
      Edge(Proc(50), Txn(kT1)),      // Dangling waiter.
      Edge(Txn(kT3), Proc(60)),      // Dangling holder.
  });
  auto cycles = g.FindCycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].size(), 3u);
  auto victims = g.SelectVictims();
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].txn, kT3);
}

TEST(WaitForGraph, NonTransactionCycleFallsBackToPid) {
  WaitForGraph g;
  g.AddEdges({Edge(Proc(7), Proc(9)), Edge(Proc(9), Proc(7))});
  auto victims = g.SelectVictims();
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].pid, 9);
}

TEST(WaitForGraph, DuplicateEdgesCollapse) {
  WaitForGraph g;
  g.AddEdges({Edge(Txn(kT1), Txn(kT2)), Edge(Txn(kT1), Txn(kT2))});
  EXPECT_EQ(g.edge_count(), 1);
}

// The string-keyed graph the detector once used, kept as the reference the
// id-based search must match: owners keyed by ToString, searched in that
// text's order.
class StringKeyedGraph {
 public:
  void AddEdges(const std::vector<WaitEdge>& edges) {
    for (const WaitEdge& e : edges) {
      std::string from = ToString(e.waiter);
      std::string to = ToString(e.holder);
      owners_[from] = e.waiter;
      owners_[to] = e.holder;
      auto& adj = adjacency_[from];
      if (std::find(adj.begin(), adj.end(), to) == adj.end()) {
        adj.push_back(to);
      }
      adjacency_.try_emplace(to);
    }
  }

  std::vector<std::vector<LockOwner>> FindCycles() const {
    std::vector<std::vector<LockOwner>> cycles;
    std::set<std::string> done;
    for (const auto& [start, unused] : adjacency_) {
      if (done.contains(start)) {
        continue;
      }
      std::vector<std::string> stack{start};
      std::set<std::string> on_stack{start};
      std::vector<std::pair<std::string, size_t>> frames{{start, 0}};
      while (!frames.empty()) {
        auto& [node, idx] = frames.back();
        const auto& adj = adjacency_.at(node);
        if (idx >= adj.size()) {
          done.insert(node);
          on_stack.erase(node);
          stack.pop_back();
          frames.pop_back();
          continue;
        }
        const std::string next = adj[idx++];
        if (on_stack.contains(next)) {
          std::vector<LockOwner> cycle;
          for (auto it = std::find(stack.begin(), stack.end(), next); it != stack.end(); ++it) {
            cycle.push_back(owners_.at(*it));
          }
          cycles.push_back(std::move(cycle));
          continue;
        }
        if (done.contains(next)) {
          continue;
        }
        frames.push_back({next, 0});
        stack.push_back(next);
        on_stack.insert(next);
      }
    }
    return cycles;
  }

  std::vector<LockOwner> SelectVictims() const {
    std::vector<LockOwner> victims;
    std::set<std::string> chosen;
    for (const auto& cycle : FindCycles()) {
      const LockOwner* victim = nullptr;
      for (const LockOwner& o : cycle) {
        if (o.txn.valid() && (victim == nullptr || o.txn > victim->txn)) {
          victim = &o;
        }
      }
      if (victim == nullptr) {
        for (const LockOwner& o : cycle) {
          if (victim == nullptr || o.pid > victim->pid) {
            victim = &o;
          }
        }
      }
      if (victim != nullptr && chosen.insert(ToString(*victim)).second) {
        victims.push_back(*victim);
      }
    }
    return victims;
  }

  int node_count() const { return static_cast<int>(adjacency_.size()); }

 private:
  std::map<std::string, LockOwner> owners_;
  std::map<std::string, std::vector<std::string>> adjacency_;
};

// Owners as "pid/txn" text, so a mismatch prints both fields.
std::vector<std::string> Describe(const std::vector<LockOwner>& owners) {
  std::vector<std::string> out;
  for (const LockOwner& o : owners) {
    out.push_back(std::to_string(o.pid) + "/" + ToString(o.txn));
  }
  return out;
}

// On random graphs the id-based search finds the reference's cycles, in its
// order, and picks its victims. The owners' text and numeric orders disagree
// (txn:0.0.9 sorts after txn:0.0.10, site 10 before site 9, pid 10 before
// pid 7), a transaction turns up under several pids (the last report names
// it), and some cycles have pid-only owners.
TEST(WaitForGraph, MatchesTheStringKeyedSearchOnRandomGraphs) {
  std::vector<LockOwner> pool;
  for (int32_t site : {0, 9, 10}) {
    for (uint64_t serial : {1, 9, 10, 100}) {
      pool.push_back(LockOwner{kNoPid, TxnId{site, 0, serial}});
    }
  }
  pool.push_back(LockOwner{kNoPid, TxnId{1, 2, 3}});
  pool.push_back(LockOwner{kNoPid, TxnId{1, 12, 3}});
  for (Pid pid : {7, 10, 70, 100, 5, 44}) {
    pool.push_back(LockOwner{pid, kNoTxn});
  }
  Rng rng(11);
  int with_cycles = 0;
  for (int graph = 0; graph < 200; ++graph) {
    SCOPED_TRACE("graph " + std::to_string(graph));
    const size_t owners = 2 + rng.Below(10);
    std::vector<LockOwner> chosen;
    for (size_t i = 0; i < owners; ++i) {
      LockOwner o = pool[rng.Below(pool.size())];
      if (o.txn.valid() && rng.Chance(0.5)) {
        o.pid = 200 + static_cast<Pid>(rng.Below(5));  // The process acting for it.
      }
      chosen.push_back(o);
    }
    WaitForGraph g;
    StringKeyedGraph reference;
    const int batches = 1 + static_cast<int>(rng.Below(3));
    for (int b = 0; b < batches; ++b) {
      std::vector<WaitEdge> edges;
      const size_t count = rng.Below(2 * owners + 1);
      for (size_t e = 0; e < count; ++e) {
        edges.push_back(Edge(chosen[rng.Below(owners)], chosen[rng.Below(owners)]));
      }
      g.AddEdges(edges);
      reference.AddEdges(edges);
    }
    ASSERT_EQ(g.node_count(), reference.node_count());
    const auto cycles = g.FindCycles();
    const auto expected = reference.FindCycles();
    ASSERT_EQ(cycles.size(), expected.size());
    for (size_t c = 0; c < cycles.size(); ++c) {
      EXPECT_EQ(Describe(cycles[c]), Describe(expected[c])) << "cycle " << c;
    }
    EXPECT_EQ(Describe(g.SelectVictims()), Describe(reference.SelectVictims()));
    with_cycles += cycles.empty() ? 0 : 1;
  }
  // Most graphs have a cycle, and some do not.
  EXPECT_GT(with_cycles, 100);
  EXPECT_LT(with_cycles, 200);
}

// --- End-to-end: two transactions deadlock; the detector aborts the younger,
// the older completes. ---

TEST(DeadlockEndToEnd, DetectorBreaksDistributedDeadlock) {
  System system(2);
  int committed = 0;
  int aborted = 0;

  auto contender = [&](SiteId home, const std::string& first, const std::string& second) {
    return [&, home, first, second](Syscalls& sys) {
      ASSERT_EQ(sys.BeginTrans(), Err::kOk);
      auto f1 = sys.Open(first, {.read = true, .write = true});
      ASSERT_TRUE(f1.ok());
      ASSERT_EQ(sys.Lock(f1.value, 10, LockOp::kExclusive).err, Err::kOk);
      sys.Compute(Milliseconds(80));  // Ensure both hold their first lock.
      auto f2 = sys.Open(second, {.read = true, .write = true});
      ASSERT_TRUE(f2.ok());
      // This queues, forming the cycle; the detector aborts one victim.
      auto r = sys.Lock(f2.value, 10, LockOp::kExclusive, {.wait = true});
      if (r.err != Err::kOk) {
        ++aborted;
        return;  // Victim: its transaction was aborted under it.
      }
      sys.Close(f1.value);
      sys.Close(f2.value);
      if (sys.EndTrans() == Err::kOk) {
        ++committed;
      } else {
        ++aborted;
      }
    };
  };

  system.Spawn(0, "setup", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/a"), Err::kOk);
    auto fa = sys.Open("/a", {.read = true, .write = true});
    sys.WriteString(fa.value, "AAAAAAAAAAAAAAA");
    sys.Close(fa.value);
    sys.Fork(1, [](Syscalls& c) {
      ASSERT_EQ(c.Creat("/b"), Err::kOk);
      auto fb = c.Open("/b", {.read = true, .write = true});
      c.WriteString(fb.value, "BBBBBBBBBBBBBBB");
      c.Close(fb.value);
    });
    sys.WaitChildren();
    // Launch the two contenders in opposite lock orders.
    sys.Fork(0, contender(0, "/a", "/b"));
    sys.Fork(1, contender(1, "/b", "/a"));
    sys.WaitChildren();
  });
  system.StartDeadlockDetector(0, Milliseconds(100));
  system.RunFor(Seconds(20));
  system.StopDaemons();
  system.RunFor(Seconds(1));

  EXPECT_GE(system.stats().Get("deadlock.victims"), 1);
  EXPECT_EQ(aborted, 1);
  EXPECT_EQ(committed, 1);
}

TEST(DeadlockEndToEnd, NoFalsePositivesUnderPlainContention) {
  // Heavy but acyclic contention: the detector must not abort anyone.
  System system(2);
  int completed = 0;
  system.Spawn(0, "setup", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/hot"), Err::kOk);
    auto fd = sys.Open("/hot", {.read = true, .write = true});
    sys.WriteString(fd.value, std::string(64, 'x'));
    sys.Close(fd.value);
    for (int i = 0; i < 4; ++i) {
      sys.Fork(i % 2, [&completed](Syscalls& c) {
        ASSERT_EQ(c.BeginTrans(), Err::kOk);
        auto f = c.Open("/hot", {.read = true, .write = true});
        // Everyone locks the same range in the same order: no cycle.
        ASSERT_EQ(c.Lock(f.value, 64, LockOp::kExclusive).err, Err::kOk);
        c.Compute(Milliseconds(30));
        c.Close(f.value);
        ASSERT_EQ(c.EndTrans(), Err::kOk);
        ++completed;
      });
    }
    sys.WaitChildren();
  });
  system.StartDeadlockDetector(0, Milliseconds(50));
  system.RunFor(Seconds(20));
  system.StopDaemons();
  system.RunFor(Seconds(1));
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(system.stats().Get("deadlock.victims"), 0);
}

}  // namespace
}  // namespace locus
