// Protocol observer interface: the hook surface production code reports
// protocol events through, and the hub that fans one event out to every
// registered observer.
//
// PR 3 introduced the hooks with a single consumer (the ProtocolAuditor);
// the serializability certifier (src/serial) is a second one. Rather than
// teach every subsystem about each consumer, subsystems hold one
// ProtocolObserver* — in production the System's ObserverHub — and the hub
// forwards to whichever observers are enabled. Observers are passive: they
// may record, count and report, but must never feed anything back into the
// system, so enabling any combination of them cannot change virtual-time
// results.
//
// Every hook is a no-op by default; an observer overrides only what it
// consumes. Call sites keep the PR 3 idiom — `if (Audited()) audit_->OnX(...)`
// — where Audited() is `audit_ != nullptr && audit_->enabled()`, so the
// disabled cost stays one predictable branch per event.

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

class ProtocolObserver {
 public:
  explicit ProtocolObserver(bool enabled) : enabled_(enabled) {}
  virtual ~ProtocolObserver() = default;

  // Virtual so the hub can answer "any registered observer enabled?" through
  // the same pointer type the subsystems hold.
  virtual bool enabled() const { return enabled_; }

  // ---- Lock-protocol hooks (LockManager at the storage site) ----
  virtual void OnLockGranted(const std::string&, const FileId&,
                             const ByteRange&, const LockOwner&, LockMode,
                             bool) {}
  virtual void OnUnlock(const FileId&, const ByteRange&, const LockOwner&) {}
  virtual void OnTxnLocksReleased(const std::string&, const TxnId&,
                                  const std::vector<FileId>&) {}
  virtual void OnProcessLocksReleased(Pid, const std::vector<FileId>&) {}
  virtual void OnSiteCrash(const std::string&, const std::vector<int32_t>&) {}
  virtual void OnLockAccepted(const std::string&, const FileId&,
                              const ByteRange&, const LockOwner&, LockMode) {}
  // A file's whole lock list left (installed=false) or entered
  // (installed=true) this site's lock table during storage-site migration.
  virtual void OnFileLocksTransferred(const std::string&, const FileId&,
                                      bool) {}

  // ---- Transaction lifecycle / 2PC hooks (TransactionManager, kernel) ----
  virtual void OnTxnBegin(const TxnId&) {}
  virtual void OnMemberJoined(const TxnId&) {}
  virtual void OnMemberExited(const TxnId&) {}
  virtual void OnPrepareRequest(const std::string&, const TxnId&) {}
  virtual void OnPrepared(const std::string&, const TxnId&) {}
  virtual void OnCommitPoint(const std::string&, const TxnId&,
                             const std::vector<std::string>&,
                             int) {}
  virtual void OnAbortDecision(const std::string&, const TxnId&) {}
  virtual void OnCommitMessage(const std::string&, const TxnId&) {}
  // A transaction record left (installed=false) or entered (installed=true)
  // this site's table during process migration or recovery hand-off.
  virtual void OnTxnRecordTransferred(const TxnId&, bool) {}

  // ---- Storage hooks (FileStore) ----
  virtual void OnStoreWrite(const std::string&, const FileId&,
                            const ByteRange&, const LockOwner&) {}
  virtual void OnServeRead(const std::string&, const FileId&,
                           const ByteRange&, const LockOwner&,
                           const std::vector<std::pair<TxnId, ByteRange>>&) {}
  virtual void OnPrepareFlushed(const std::string&, const TxnId&,
                                const IntentionsList&) {}
  virtual void OnInstall(const std::string&, const IntentionsList&) {}
  virtual void OnDiscard(const std::string&, const IntentionsList&) {}
  virtual void OnAbortWriterEffect(const std::string&, const FileId&,
                                   const TxnId&) {}
  virtual void OnSingleFileCommit(const std::string&, const FileId&,
                                  const LockOwner&) {}

  // ---- Buffer-pool immutability hooks ----
  virtual void OnPoolInsert(const FileId&, int32_t, const PageData*) {}
  virtual void OnPoolLookup(const FileId&, int32_t, const PageData*) {}
  virtual void OnPoolForget(const FileId&, int32_t) {}

  // ---- Non-transactional shared-state hooks (happens-before race oracle) ----
  // A kernel touched cluster-shared mutable state outside the transaction
  // mechanism: a catalog entry, a replica version stamp, a formation queue.
  // `key` names the object ("catalog.entry/<path>", "recon.ver/<path>", ...);
  // keys must agree across sites so the certifier can pair the accesses.
  virtual void OnSharedAccess(const std::string&, const std::string&,
                              bool) {}

 protected:
  bool enabled_;
};

// Fans each hook out to every registered observer that is enabled. The hub
// itself reports enabled() when any child is, so subsystem call sites keep
// their single cheap gate.
class ObserverHub : public ProtocolObserver {
 public:
  ObserverHub() : ProtocolObserver(false) {}

  void Register(ProtocolObserver* observer) { observers_.push_back(observer); }

  bool enabled() const override {
    for (const ProtocolObserver* o : observers_) {
      if (o->enabled()) {
        return true;
      }
    }
    return false;
  }

  void OnLockGranted(const std::string& site, const FileId& file, const ByteRange& range,
                     const LockOwner& owner, LockMode mode, bool non_transaction) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnLockGranted(site, file, range, owner, mode, non_transaction);
    }
  }
  void OnUnlock(const FileId& file, const ByteRange& range, const LockOwner& owner) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnUnlock(file, range, owner);
    }
  }
  void OnTxnLocksReleased(const std::string& site, const TxnId& txn,
                          const std::vector<FileId>& files) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnTxnLocksReleased(site, txn, files);
    }
  }
  void OnProcessLocksReleased(Pid pid, const std::vector<FileId>& files) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnProcessLocksReleased(pid, files);
    }
  }
  void OnSiteCrash(const std::string& site, const std::vector<int32_t>& volumes) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnSiteCrash(site, volumes);
    }
  }
  void OnLockAccepted(const std::string& site, const FileId& file, const ByteRange& range,
                      const LockOwner& owner, LockMode mode) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnLockAccepted(site, file, range, owner, mode);
    }
  }
  void OnFileLocksTransferred(const std::string& site, const FileId& file,
                              bool installed) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnFileLocksTransferred(site, file, installed);
    }
  }
  void OnTxnBegin(const TxnId& txn) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnTxnBegin(txn);
    }
  }
  void OnMemberJoined(const TxnId& txn) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnMemberJoined(txn);
    }
  }
  void OnMemberExited(const TxnId& txn) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnMemberExited(txn);
    }
  }
  void OnPrepareRequest(const std::string& site, const TxnId& txn) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnPrepareRequest(site, txn);
    }
  }
  void OnPrepared(const std::string& site, const TxnId& txn) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnPrepared(site, txn);
    }
  }
  void OnCommitPoint(const std::string& site, const TxnId& txn,
                     const std::vector<std::string>& participants,
                     int active_members) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnCommitPoint(site, txn, participants, active_members);
    }
  }
  void OnAbortDecision(const std::string& site, const TxnId& txn) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnAbortDecision(site, txn);
    }
  }
  void OnCommitMessage(const std::string& site, const TxnId& txn) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnCommitMessage(site, txn);
    }
  }
  void OnTxnRecordTransferred(const TxnId& txn, bool installed) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnTxnRecordTransferred(txn, installed);
    }
  }
  void OnStoreWrite(const std::string& site, const FileId& file, const ByteRange& range,
                    const LockOwner& writer) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnStoreWrite(site, file, range, writer);
    }
  }
  void OnServeRead(const std::string& site, const FileId& file, const ByteRange& range,
                   const LockOwner& reader,
                   const std::vector<std::pair<TxnId, ByteRange>>& dirty_of_others) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnServeRead(site, file, range, reader, dirty_of_others);
    }
  }
  void OnPrepareFlushed(const std::string& site, const TxnId& txn,
                        const IntentionsList& intentions) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnPrepareFlushed(site, txn, intentions);
    }
  }
  void OnInstall(const std::string& site, const IntentionsList& intentions) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnInstall(site, intentions);
    }
  }
  void OnDiscard(const std::string& site, const IntentionsList& intentions) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnDiscard(site, intentions);
    }
  }
  void OnAbortWriterEffect(const std::string& site, const FileId& file,
                           const TxnId& txn) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnAbortWriterEffect(site, file, txn);
    }
  }
  void OnSingleFileCommit(const std::string& site, const FileId& file,
                          const LockOwner& writer) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnSingleFileCommit(site, file, writer);
    }
  }
  void OnPoolInsert(const FileId& file, int32_t page_index, const PageData* data) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnPoolInsert(file, page_index, data);
    }
  }
  void OnPoolLookup(const FileId& file, int32_t page_index, const PageData* data) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnPoolLookup(file, page_index, data);
    }
  }
  void OnPoolForget(const FileId& file, int32_t page_index) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnPoolForget(file, page_index);
    }
  }
  void OnSharedAccess(const std::string& site, const std::string& key,
                      bool is_write) override {
    for (ProtocolObserver* o : observers_) {
      if (o->enabled()) o->OnSharedAccess(site, key, is_write);
    }
  }

 private:
  std::vector<ProtocolObserver*> observers_;
};

}  // namespace locus

#endif  // SRC_AUDIT_OBSERVER_H_
