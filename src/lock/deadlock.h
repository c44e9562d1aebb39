// User-level deadlock detection (section 3.1).
//
// The Locus kernel does not detect deadlock; it exports the per-site wait-for
// edges and a system process builds the global graph with conventional
// techniques [Coffman 71], picks victims, and drives resolution. This module
// is that system process's library: cycle detection over collected edges and
// a victim-selection policy (youngest transaction first, so the transaction
// that has done the least work is redone).

#ifndef SRC_LOCK_DEADLOCK_H_
#define SRC_LOCK_DEADLOCK_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/lock/lock_manager.h"

namespace locus {

// One poll's global wait-for graph. Each owner is interned once, as an
// integer id, and the search runs over ids; it visits owners in the order of
// their ToString text, so the cycles it finds, and their order, are those of
// a graph keyed by that text.
class WaitForGraph {
 public:
  void AddEdges(const std::vector<WaitEdge>& edges);
  void Clear();

  // All distinct owners that appear on a cycle, grouped per cycle.
  std::vector<std::vector<LockOwner>> FindCycles() const;

  // Picks one victim per cycle: the youngest transaction on the cycle
  // (largest TxnId); cycles with no transaction member fall back to the
  // largest pid.
  std::vector<LockOwner> SelectVictims() const;

  int node_count() const { return static_cast<int>(nodes_.size()); }
  int edge_count() const;

 private:
  // What ToString(LockOwner) prints: the transaction, or the pid when there
  // is none. Owners with one key are one node.
  struct OwnerKey {
    TxnId txn;
    Pid pid = kNoPid;
    friend bool operator==(const OwnerKey&, const OwnerKey&) = default;
  };
  struct OwnerKeyHash {
    size_t operator()(const OwnerKey& k) const;
  };
  struct Node {
    // The owner as last reported under this key.
    LockOwner owner;
    // Waited-for nodes, in first-reported order, without repeats.
    std::vector<uint32_t> out;
  };

  uint32_t Intern(const LockOwner& o);
  // Node ids of each cycle found, in search order.
  std::vector<std::vector<uint32_t>> FindCycleIds() const;

  std::vector<Node> nodes_;
  std::unordered_map<OwnerKey, uint32_t, OwnerKeyHash> ids_;
};

}  // namespace locus

#endif  // SRC_LOCK_DEADLOCK_H_
