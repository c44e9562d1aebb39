// Outcome-level serializability certifier: a cluster-global observer that
// certifies the *schedule* the system produced, independently of the locking
// mechanism that produced it (DESIGN.md section 11).
//
// Where the ProtocolAuditor (src/audit) checks that every step obeyed the
// 2PL/2PC disciplines, the certifier checks what those disciplines exist to
// guarantee: that the committed transactions are serializable, recoverable,
// and externally consistent, and that non-transactional kernel shared state
// is free of cross-site happens-before races. A future locking change —
// lease-cached locks, partial replication — can pass the step auditor on the
// paths it still uses while silently breaking isolation on the ones it
// bypasses; the certifier catches the broken outcome regardless of path.
//
// Mechanics:
//  - Read/write sets are collected per transaction at byte-range granularity
//    from the OnServeRead / OnStoreWrite hooks (lock-fetch prefetched bytes
//    are covered: a prefetch is served as a read for the lock owner at grant
//    time, so it lands in the owner's read set).
//  - A direct serialization graph accrues ww/wr/rw conflict edges: wr edges
//    when a read overlaps a committed last-writer's bytes, and ww/rw edges
//    when a commit installs its write set over prior writers' bytes and
//    recorded readers. Cycle detection (committed nodes only) runs at each
//    commit point.
//  - Recoverability: reads overlapping another transaction's uncommitted
//    bytes record a commit dependency; committing while a dependency is
//    unresolved or aborted is a violation.
//  - External consistency uses the network's vector clocks: an edge A -> B
//    (A must serialize before B) while B's commit happened-before A's begin
//    means A observed B's result and still serialized before it.
//  - The same vector clocks drive a happens-before race detector over the
//    OnSharedAccess hook (catalog entries, replica version stamps, formation
//    queues): conflicting cross-site accesses unordered by any message chain
//    are flagged.
//
// Like the auditor, the certifier is passive: it never feeds anything back,
// so enabling it cannot change virtual-time results. Enabled per System via
// SystemOptions.serial (or forced by cmake -DLOCUS_SERIAL=ON).

#ifndef SRC_SERIAL_CERTIFIER_H_
#define SRC_SERIAL_CERTIFIER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/audit/observer.h"
#include "src/base/ids.h"
#include "src/lock/range.h"
#include "src/net/network.h"
#include "src/sim/stats.h"

namespace locus {

class Simulation;

// The outcome invariants the certifier enforces. Names are stable strings
// used in reports and test assertions (SerialKindName).
enum class SerialKind {
  kCycle,                // Serialization-graph cycle among committed txns.
  kRecoverability,       // Committed having read another's uncommitted bytes.
  kExternalConsistency,  // Serialized before a commit it observably began after.
  kRace,                 // Cross-site shared-state access with no HB order.
};

const char* SerialKindName(SerialKind kind);

struct SerialReport {
  SerialKind kind;
  // The transactions involved: a full cycle trail for kCycle (first element
  // repeated at the end), the (committed, dependency) pair for
  // kRecoverability, the (predecessor, observed) pair for
  // kExternalConsistency, empty for kRace.
  std::vector<TxnId> txns;
  std::string site;
  FileId file = kNoFile;
  ByteRange range{0, 0};
  std::string detail;
  // The certifier's most recent event lines at the time of the violation.
  std::vector<std::string> trail;

  std::string ToString() const;
};

class SerializabilityCertifier : public ProtocolObserver {
 public:
  // `net` supplies vector clocks and site-name resolution; may be null in
  // unit tests, which disables the clock-based checks (external consistency,
  // races) but keeps the graph checks.
  SerializabilityCertifier(Simulation* sim, Network* net, StatRegistry* stats, bool enabled);

  const std::vector<SerialReport>& violations() const { return violations_; }
  int64_t violation_count() const { return static_cast<int64_t>(violations_.size()); }
  int CountKind(SerialKind kind) const;
  // Human-readable report of every violation (empty string when clean).
  std::string Summary() const;

  int64_t txns_certified() const { return txns_certified_; }
  int64_t edge_count() const { return edges_; }

  // Final sweep (terminal-state oracle): re-runs cycle detection from every
  // committed transaction, catching cycles closed by edges recorded after
  // the participants' commit points. Returns the total violation count.
  int64_t Certify();

  // ---- Observer hooks consumed ----
  void OnTxnBegin(const TxnId& txn) override;
  void OnStoreWrite(const std::string& site, const FileId& file, const ByteRange& range,
                    const LockOwner& writer) override;
  void OnServeRead(const std::string& site, const FileId& file, const ByteRange& range,
                   const LockOwner& reader,
                   const std::vector<std::pair<TxnId, ByteRange>>& dirty_of_others) override;
  void OnCommitPoint(const std::string& site, const TxnId& txn,
                     const std::vector<std::string>& participants,
                     int active_members) override;
  void OnAbortDecision(const std::string& site, const TxnId& txn) override;
  void OnSingleFileCommit(const std::string& site, const FileId& file,
                          const LockOwner& writer) override;
  void OnSiteCrash(const std::string& site, const std::vector<int32_t>& volumes) override;
  void OnSharedAccess(const std::string& site, const std::string& key,
                      bool is_write) override;

 private:
  // One byte-range attribution: who last wrote / has read these bytes.
  struct Interval {
    ByteRange range;
    TxnId txn;
  };

  struct FileState {
    std::vector<Interval> writers;  // Committed last-writer attributions.
    std::vector<Interval> readers;  // Reads since the last overlapping install.
  };

  struct Node {
    bool began = false;
    bool committed = false;
    bool aborted = false;
    std::vector<uint32_t> begin_clock;   // Snapshot at OnTxnBegin.
    std::vector<uint32_t> commit_clock;  // Snapshot at the commit point.
    // Outgoing conflict edges (this txn serializes before the key), with the
    // conflict that created each ("rw d0v0#3 [0,16)").
    std::map<TxnId, std::string> out;
    // Writers whose uncommitted bytes this txn read (recoverability).
    std::set<TxnId> dirty_deps;
    // Uncommitted write set, installed into the file model at commit.
    std::map<FileId, std::vector<ByteRange>> pending;
  };

  // One access to a non-transactional shared-state key.
  struct Access {
    std::string site;
    bool write = false;
    std::vector<uint32_t> clock;
    bool valid = false;
  };

  struct KeyState {
    Access last_write;
    std::vector<Access> reads;  // Since the last write.
  };

  Node& NodeOf(const TxnId& txn);
  // Records the conflict edge from -> to (from must serialize before to) and
  // runs the external-consistency check on it.
  void AddEdge(const TxnId& from, const TxnId& to, const char* conflict,
               const FileId& file, const ByteRange& range, const std::string& site);
  // Reports a cycle through `txn` if the committed subgraph has one.
  void CheckCycles(const TxnId& txn, const std::string& site);
  bool FindCycle(const TxnId& root, const TxnId& cur, std::set<TxnId>& visited,
                 std::vector<TxnId>& path);
  // a happened-before-or-equal b: a's origin component is included in b.
  static bool ClockLeq(const std::vector<uint32_t>& a, const std::vector<uint32_t>& b);
  // True when `earlier` (recorded first) happened-before `later`.
  static bool OrderedBefore(const Access& earlier, const Access& later,
                            SiteId earlier_site);
  SiteId SiteIdOf(const std::string& name);
  std::vector<uint32_t> ClockOf(SiteId site) const;

  void Check() { stats_->Add(ids_.checks); }
  void Event(const std::string& site, std::string text);
  void Violate(SerialKind kind, std::vector<TxnId> txns, const std::string& site,
               const FileId& file, const ByteRange& range, std::string detail);

  Simulation* sim_;
  Network* net_;
  StatRegistry* stats_;

  struct Ids {
    StatRegistry::StatId txns_certified;
    StatRegistry::StatId edges;
    StatRegistry::StatId cycles;
    StatRegistry::StatId checks;
    StatRegistry::StatId violations;
  };
  Ids ids_;

  int64_t txns_certified_ = 0;
  int64_t edges_ = 0;

  // Ordered maps: certifier runs are test/CI runs, and deterministic
  // iteration keeps report ordering stable.
  std::map<FileId, FileState> files_;
  std::map<TxnId, Node> txns_;
  // Non-transaction writers' uncommitted ranges, installed (edge-free) at
  // OnSingleFileCommit.
  std::map<std::pair<FileId, Pid>, std::vector<ByteRange>> anon_pending_;
  std::map<std::string, KeyState> shared_keys_;
  std::map<std::string, SiteId> site_ids_;
  // Canonical members of already-reported cycles, so the terminal sweep does
  // not re-report what a commit-point check already caught.
  std::set<std::set<TxnId>> reported_cycles_;

  std::deque<std::string> trail_;
  std::vector<SerialReport> violations_;
};

}  // namespace locus

#endif  // SRC_SERIAL_CERTIFIER_H_
