// Runtime protocol auditor: an omniscient, cluster-global observer that
// machine-checks the paper's synchronization and commit disciplines while a
// simulation runs (sections 3 and 4 of the paper; DESIGN.md section 8).
//
// The auditor is deliberately independent of the subsystems it watches: it
// keeps its own shadow model of the lock tables, its own per-transaction 2PC
// state machine, its own registry of prepared-but-uninstalled shadow pages,
// and checksums of buffer-pool pages. Production code reports events through
// small observer hooks; the auditor replays them against the model and
// records a structured violation report (transaction, site, offending range,
// recent event trail) whenever an invariant breaks. It never feeds anything
// back into the system, so enabling it cannot change virtual-time results.
//
// Compiled in always; enabled per System via SystemOptions.audit (or forced
// by building with -DLOCUS_AUDIT=ON). Every hook call site first checks
// enabled(), so the disabled cost is one predictable branch per event.

#ifndef SRC_AUDIT_AUDITOR_H_
#define SRC_AUDIT_AUDITOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/audit/observer.h"
#include "src/base/ids.h"
#include "src/fs/intentions.h"
#include "src/lock/lock_list.h"
#include "src/sim/stats.h"

namespace locus {

class Simulation;

// The invariant classes the auditor enforces. Names are stable strings used
// in reports and test assertions (AuditKindName).
enum class AuditKind {
  // Two-phase locking and lock coverage (paper section 3).
  kUnlockedWrite,        // Transactional write to bytes without an exclusive lock.
  kUnlockedRead,         // Transactional read of bytes without any covering lock.
  kAcquireAfterRelease,  // Lock accepted by a requester after its transaction resolved.
  kDirtyReadVisible,     // Read overlapped another transaction's uncommitted bytes.
  // Shadow-page / intentions commit (paper section 4).
  kPrematureInstall,     // Prepared shadow pages installed before the commit decision.
  kDiscardAfterCommit,   // Prepared shadow pages discarded after a commit decision.
  kAbortEffectAfterCommit,  // Writer rollback ran for a committed transaction.
  kSingleFileCommitInTxn,   // CommitWriter used for a transactional writer (must 2PC).
  // Two-phase commit message-order legality (paper section 4.2).
  kPrepareAfterCommit,   // Prepare requested for an already-committed transaction.
  kCommitBeforeDecision, // Commit message served before any commit decision existed.
  kCommitAfterAbort,     // Commit point declared after an abort decision.
  kAbortAfterCommit,     // Abort decision declared after the commit point.
  kCommitUnprepared,     // Commit point declared with an unprepared participant.
  kCommitActiveMembers,  // Commit point declared while member processes were active.
  // Zero-copy page sharing (buffer pool holds immutable committed images).
  kCachedPageMutated,    // A pooled page's bytes changed while cached.
};

const char* AuditKindName(AuditKind kind);

struct AuditReport {
  AuditKind kind;
  TxnId txn;
  std::string site;
  FileId file = kNoFile;
  ByteRange range{0, 0};
  std::string detail;
  // The auditor's most recent event lines at the time of the violation.
  std::vector<std::string> trail;

  std::string ToString() const;
};

class ProtocolAuditor : public ProtocolObserver {
 public:
  ProtocolAuditor(Simulation* sim, StatRegistry* stats, bool enabled);

  const std::vector<AuditReport>& violations() const { return violations_; }
  int64_t violation_count() const { return static_cast<int64_t>(violations_.size()); }
  int64_t check_count() const { return checks_; }
  // Number of violations of one kind (test assertions).
  int CountKind(AuditKind kind) const;
  // Human-readable report of every violation (empty string when clean).
  std::string Summary() const;

  // ---- Lock-protocol hooks (LockManager at the storage site) ----
  void OnLockGranted(const std::string& site, const FileId& file, const ByteRange& range,
                     const LockOwner& owner, LockMode mode, bool non_transaction) override;
  void OnUnlock(const FileId& file, const ByteRange& range, const LockOwner& owner) override;
  // `files` is the set of files with lock lists at the releasing site; only
  // those entries drop — locks the transaction still holds at other storage
  // sites stay in the shadow model.
  void OnTxnLocksReleased(const std::string& site, const TxnId& txn,
                          const std::vector<FileId>& files) override;
  void OnProcessLocksReleased(Pid pid, const std::vector<FileId>& files) override;
  // A site crashed, wiping its volatile lock tables and buffer pool.
  // `volumes` are the volume ids it hosted.
  void OnSiteCrash(const std::string& site, const std::vector<int32_t>& volumes) override;
  // Requester side: a grant entered a process's lock cache. This is the
  // strict-2PL acquire point — acquiring after the transaction resolved (its
  // first release, i.e. commit or abort) is the audited violation.
  void OnLockAccepted(const std::string& site, const FileId& file, const ByteRange& range,
                      const LockOwner& owner, LockMode mode) override;

  // ---- Transaction lifecycle / 2PC hooks (TransactionManager, kernel) ----
  void OnTxnBegin(const TxnId& txn) override;
  void OnMemberJoined(const TxnId& txn) override;
  void OnMemberExited(const TxnId& txn) override;
  void OnPrepareRequest(const std::string& site, const TxnId& txn) override;
  void OnPrepared(const std::string& site, const TxnId& txn) override;
  // The commit point: the coordinator's commit mark reached its log
  // (section 4.2's top-level log). `participants` are the storage sites asked
  // to prepare; `active_members` is the coordinator's live member count.
  void OnCommitPoint(const std::string& site, const TxnId& txn,
                     const std::vector<std::string>& participants, int active_members) override;
  void OnAbortDecision(const std::string& site, const TxnId& txn) override;
  void OnCommitMessage(const std::string& site, const TxnId& txn) override;

  // ---- Storage hooks (FileStore) ----
  void OnStoreWrite(const std::string& site, const FileId& file, const ByteRange& range,
                    const LockOwner& writer) override;
  // `dirty_of_others`: transactional uncommitted ranges of writers that are
  // not the reader, overlapping the read (computed by the store).
  void OnServeRead(const std::string& site, const FileId& file, const ByteRange& range,
                   const LockOwner& reader,
                   const std::vector<std::pair<TxnId, ByteRange>>& dirty_of_others) override;
  void OnPrepareFlushed(const std::string& site, const TxnId& txn,
                        const IntentionsList& intentions) override;
  void OnInstall(const std::string& site, const IntentionsList& intentions) override;
  void OnDiscard(const std::string& site, const IntentionsList& intentions) override;
  void OnAbortWriterEffect(const std::string& site, const FileId& file, const TxnId& txn) override;
  void OnSingleFileCommit(const std::string& site, const FileId& file,
                          const LockOwner& writer) override;

  // ---- Buffer-pool immutability hooks ----
  void OnPoolInsert(const FileId& file, int32_t page_index, const PageData* data) override;
  void OnPoolLookup(const FileId& file, int32_t page_index, const PageData* data) override;
  void OnPoolForget(const FileId& file, int32_t page_index) override;

 private:
  // One active (non-retained) entry of the shadow lock model. Retained
  // entries are omitted: they never satisfy coverage, which is all the model
  // answers.
  struct ShadowLock {
    ByteRange range;
    Pid pid = kNoPid;
    TxnId txn = kNoTxn;
    LockMode mode = LockMode::kUnix;
    bool non_transaction = false;
  };

  enum class Decision { kNone, kCommitted, kAborted };

  struct TxnState {
    bool began = false;
    int active_members = 1;
    Decision decision = Decision::kNone;
    bool locks_released = false;   // Some site ran ReleaseTransaction.
    // Lock tables holding this txn's locks were wiped by a site crash;
    // coverage can no longer be attested, so coverage checks are suppressed
    // (the transaction is being aborted by the topology-change protocol).
    bool coverage_lost = false;
    std::set<std::string> prepared_sites;
  };

  TxnState& StateOf(const TxnId& txn);
  bool Resolved(const TxnState& s) const { return s.decision != Decision::kNone; }

  // Removes `range` from entries SameAs `owner` (mirrors LockList carving).
  void CarveShadow(const FileId& file, const ByteRange& range, const LockOwner& owner);
  // Bytes of `range` not covered for `owner` at `mode` (kShared accepts
  // shared or exclusive entries; kExclusive requires exclusive).
  std::vector<ByteRange> Uncovered(const FileId& file, const ByteRange& range,
                                   const LockOwner& owner, LockMode mode) const;

  // Best-effort offending range for a page-level violation report.
  static ByteRange PageSpanOf(const IntentionsList& intentions, const PageUpdate& update);

  void Check() { ++checks_; stats_->Add(ids_.checks); }
  void Event(const std::string& site, std::string text);
  void Violate(AuditKind kind, const TxnId& txn, const std::string& site, const FileId& file,
               const ByteRange& range, std::string detail);

  Simulation* sim_;
  StatRegistry* stats_;
  int64_t checks_ = 0;

  struct Ids {
    StatRegistry::StatId checks;
    StatRegistry::StatId violations;
  };
  Ids ids_;

  // Shadow model state. Ordered maps: audit runs are test/CI runs, and
  // deterministic iteration keeps report ordering stable.
  std::map<FileId, std::vector<ShadowLock>> shadow_locks_;
  std::map<TxnId, TxnState> txns_;
  // Prepared-but-unresolved shadow pages: (volume, page) -> owning txn.
  std::map<std::pair<int32_t, PageId>, TxnId> pending_pages_;
  // FNV-1a checksums of pages currently held by any buffer pool. FileIds are
  // cluster-unique (volume ids are), so one global map covers every site.
  std::map<std::pair<FileId, int32_t>, uint64_t> pool_sums_;

  std::deque<std::string> trail_;
  std::vector<AuditReport> violations_;
};

}  // namespace locus

#endif  // SRC_AUDIT_AUDITOR_H_
