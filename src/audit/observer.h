// Protocol observer interface: the hook surface production code reports
// protocol events through, and the hub that fans one event out to every
// registered observer.
//
// Subsystems hold one ProtocolObserver* — in production the System's
// ObserverHub — and the hub forwards to every enabled observer. Observers are
// passive: they may record, count and report, but must never feed anything
// back into the system, so enabling any combination of them cannot change
// virtual-time results.
//
// LOCUS_OBSERVER_HOOKS is the one declaration of the hooks: each row names
// the hook, its parameters and their names as arguments. ProtocolObserver's
// no-op defaults and ObserverHub's fan-out are generated from it; an observer
// overrides only what it consumes. Call sites gate each event on
// `audit_ != nullptr && audit_->enabled()`, a plain flag read, so the
// disabled cost is one predictable branch per event.

#ifndef SRC_AUDIT_OBSERVER_H_
#define SRC_AUDIT_OBSERVER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/ids.h"
#include "src/fs/intentions.h"
#include "src/lock/lock_list.h"

namespace locus {

#define LOCUS_OBSERVER_HOOKS(X)                                                                 \
  /* ---- Lock-protocol hooks (LockManager at the storage site) ---- */                         \
  X(OnLockGranted,                                                                              \
    (const std::string& site, const FileId& file, const ByteRange& range,                       \
     const LockOwner& owner, LockMode mode, bool non_transaction),                              \
    (site, file, range, owner, mode, non_transaction))                                          \
  X(OnUnlock, (const FileId& file, const ByteRange& range, const LockOwner& owner),             \
    (file, range, owner))                                                                       \
  X(OnTxnLocksReleased,                                                                         \
    (const std::string& site, const TxnId& txn, const std::vector<FileId>& files),              \
    (site, txn, files))                                                                         \
  X(OnProcessLocksReleased, (Pid pid, const std::vector<FileId>& files), (pid, files))          \
  X(OnSiteCrash, (const std::string& site, const std::vector<int32_t>& volumes),                \
    (site, volumes))                                                                            \
  X(OnLockAccepted,                                                                             \
    (const std::string& site, const FileId& file, const ByteRange& range,                       \
     const LockOwner& owner, LockMode mode),                                                    \
    (site, file, range, owner, mode))                                                           \
  /* A file's whole lock list left (installed=false) or entered                                 \
     (installed=true) this site's lock table during storage-site migration. */                  \
  X(OnFileLocksTransferred, (const std::string& site, const FileId& file, bool installed),      \
    (site, file, installed))                                                                    \
                                                                                                \
  /* ---- Transaction lifecycle / 2PC hooks (TransactionManager, kernel) ---- */                \
  X(OnTxnBegin, (const TxnId& txn), (txn))                                                      \
  X(OnMemberJoined, (const TxnId& txn), (txn))                                                  \
  X(OnMemberExited, (const TxnId& txn), (txn))                                                  \
  X(OnPrepareRequest, (const std::string& site, const TxnId& txn), (site, txn))                 \
  X(OnPrepared, (const std::string& site, const TxnId& txn), (site, txn))                       \
  X(OnCommitPoint,                                                                              \
    (const std::string& site, const TxnId& txn, const std::vector<std::string>& participants,   \
     int active_members),                                                                       \
    (site, txn, participants, active_members))                                                  \
  X(OnAbortDecision, (const std::string& site, const TxnId& txn), (site, txn))                  \
  X(OnCommitMessage, (const std::string& site, const TxnId& txn), (site, txn))                  \
  /* A transaction record left (installed=false) or entered (installed=true)                    \
     this site's table during process migration or recovery hand-off. */                        \
  X(OnTxnRecordTransferred, (const TxnId& txn, bool installed), (txn, installed))               \
                                                                                                \
  /* ---- Storage hooks (FileStore) ---- */                                                     \
  X(OnStoreWrite,                                                                               \
    (const std::string& site, const FileId& file, const ByteRange& range,                       \
     const LockOwner& writer),                                                                  \
    (site, file, range, writer))                                                                \
  X(OnServeRead,                                                                                \
    (const std::string& site, const FileId& file, const ByteRange& range,                       \
     const LockOwner& reader, const std::vector<std::pair<TxnId, ByteRange>>& dirty_of_others), \
    (site, file, range, reader, dirty_of_others))                                               \
  X(OnPrepareFlushed,                                                                           \
    (const std::string& site, const TxnId& txn, const IntentionsList& intentions),              \
    (site, txn, intentions))                                                                    \
  X(OnInstall, (const std::string& site, const IntentionsList& intentions), (site, intentions)) \
  X(OnDiscard, (const std::string& site, const IntentionsList& intentions), (site, intentions)) \
  X(OnAbortWriterEffect, (const std::string& site, const FileId& file, const TxnId& txn),       \
    (site, file, txn))                                                                          \
  X(OnSingleFileCommit,                                                                         \
    (const std::string& site, const FileId& file, const LockOwner& writer),                     \
    (site, file, writer))                                                                       \
                                                                                                \
  /* ---- Buffer-pool immutability hooks ---- */                                                \
  X(OnPoolInsert, (const FileId& file, int32_t page_index, const PageData* data),               \
    (file, page_index, data))                                                                   \
  X(OnPoolLookup, (const FileId& file, int32_t page_index, const PageData* data),               \
    (file, page_index, data))                                                                   \
  X(OnPoolForget, (const FileId& file, int32_t page_index), (file, page_index))                 \
                                                                                                \
  /* ---- Non-transactional shared-state hooks (happens-before race oracle) ----                \
     A kernel touched cluster-shared mutable state outside the transaction                      \
     mechanism: a catalog entry, a replica version stamp, a formation queue.                    \
     `key` names the object ("catalog.entry/<path>", "recon.ver/<path>", ...);                  \
     keys must agree across sites so the certifier can pair the accesses. */                    \
  X(OnSharedAccess, (const std::string& site, const std::string& key, bool is_write),           \
    (site, key, is_write))

class ProtocolObserver {
 public:
  explicit ProtocolObserver(bool enabled) : enabled_(enabled) {}
  virtual ~ProtocolObserver() = default;

  // Fixed at construction for an observer; the hub's is on once an enabled
  // observer registers.
  bool enabled() const { return enabled_; }

  // Every hook defaults to a no-op.
#define LOCUS_OBSERVER_NOOP(name, params, args) \
  virtual void name params { Ignore args; }
  LOCUS_OBSERVER_HOOKS(LOCUS_OBSERVER_NOOP)
#undef LOCUS_OBSERVER_NOOP

 protected:
  // Consumes a hook's arguments unread.
  static void Ignore(const auto&...) {}

  bool enabled_;
};

// Fans each hook out to every registered observer, in registration order.
// Only enabled observers are kept, so the hub reports enabled() once any is,
// and subsystem call sites keep their single cheap gate.
class ObserverHub : public ProtocolObserver {
 public:
  ObserverHub() : ProtocolObserver(false) {}

  void Register(ProtocolObserver* observer) {
    if (observer->enabled()) {
      observers_.push_back(observer);
      enabled_ = true;
    }
  }

#define LOCUS_OBSERVER_FANOUT(name, params, args) \
  void name params override {                     \
    for (ProtocolObserver* o : observers_) {      \
      o->name args;                               \
    }                                             \
  }
  LOCUS_OBSERVER_HOOKS(LOCUS_OBSERVER_FANOUT)
#undef LOCUS_OBSERVER_FANOUT

 private:
  std::vector<ProtocolObserver*> observers_;
};

}  // namespace locus

#endif  // SRC_AUDIT_OBSERVER_H_
