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

#include <array>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/flat_map.h"
#include "src/lock/lock_manager.h"

namespace locus {

// One poll's global wait-for graph. Each owner is interned once, as an
// integer id, and the search runs over ids; it visits owners in the order of
// their ToString text, so the cycles it finds, and their order, are those of
// a graph keyed by that text. A detector keeps one graph and resets it per
// poll: the nodes, the intern table and the search's work arrays keep their
// storage, so polls stop allocating once they have seen their largest graph.
class WaitForGraph {
 public:
  void AddEdges(const std::vector<WaitEdge>& edges);
  void Reset();

  // All distinct owners that appear on a cycle, grouped per cycle.
  std::vector<std::vector<LockOwner>> FindCycles() const;

  // Picks one victim per cycle: the youngest transaction on the cycle
  // (largest TxnId); cycles with no transaction member fall back to the
  // largest pid.
  std::vector<LockOwner> SelectVictims() const;

  int node_count() const { return static_cast<int>(live_); }
  int edge_count() const;

 private:
  // What ToString(LockOwner) prints: the transaction, or the pid when there
  // is none. Owners with one key are one node.
  struct OwnerKey {
    TxnId txn;
    Pid pid = kNoPid;
    friend auto operator<=>(const OwnerKey&, const OwnerKey&) = default;
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

  // Nodes [0, live_) are this poll's; later ones are kept for reuse.
  std::vector<Node> nodes_;
  size_t live_ = 0;
  FlatMap<OwnerKey, uint32_t> ids_;
  // FindCycleIds' work arrays, kept between calls.
  struct Search {
    std::vector<std::array<char, 48>> text;  // Each owner's ToString text.
    std::vector<std::string_view> keys;
    std::vector<uint32_t> roots;
    std::vector<bool> done;
    std::vector<int> stack_pos;
    std::vector<uint32_t> stack;
    std::vector<std::pair<uint32_t, size_t>> frames;
    std::vector<bool> chosen;  // SelectVictims: nodes already picked.
  };
  mutable Search search_;
};

}  // namespace locus

#endif  // SRC_LOCK_DEADLOCK_H_
