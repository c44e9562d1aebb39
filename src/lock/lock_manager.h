// Storage-site lock manager: processes lock requests against per-file lock
// lists, queues conflicting requests, and exports the wait-for graph.
//
// Per section 5.1 the lock list for a file lives at the file's (primary)
// storage site and all requests are processed there; requesters cache grants
// locally (see LockCache). The kernel wires remote requests to this class
// through the network layer, with the RPC responder captured in the grant
// callback so a queued request replies only when granted.

#ifndef SRC_LOCK_LOCK_MANAGER_H_
#define SRC_LOCK_LOCK_MANAGER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/audit/observer.h"
#include "src/base/ids.h"
#include "src/lock/lock_list.h"
#include "src/sim/stats.h"

namespace locus {

// Section 6.2: obtaining one local lock costs about 750 VAX instructions.
inline constexpr int64_t kLockServiceInstructions = 750;

// An edge "waiter is blocked by holder" in the wait-for graph.
struct WaitEdge {
  LockOwner waiter;
  LockOwner holder;
  FileId file;
};

class LockManager {
 public:
  // Invoked exactly once per request with the actually granted range (append
  // requests land at the end-of-file as of grant time), or with granted ==
  // false on a no-wait conflict or a cancelled waiter.
  using GrantCallback = std::function<void(bool granted, ByteRange range)>;
  // Recomputes a request's range at each grant attempt. Section 3.2: append
  // ("lock and extend") requests are interpreted relative to the end of file,
  // which may move while the request is queued.
  using RangeFn = std::function<ByteRange()>;

  LockManager(StatRegistry* stats, std::string site_name)
      : stats_(stats),
        site_name_(std::move(site_name)),
        ids_{stats->Intern("lock.requests"), stats->Intern("lock.granted"),
             stats->Intern("lock.denied"), stats->Intern("lock.queued")} {}

  // Lock request. If it conflicts and `wait` is false the callback fires
  // immediately with false; with `wait` true it queues FIFO and fires when
  // granted or cancelled. When `recompute` is set it supplies the range for
  // every grant attempt.
  void Request(const FileId& file, const ByteRange& range, const LockOwner& owner,
               LockMode mode, bool non_transaction, bool wait, GrantCallback callback,
               RangeFn recompute = nullptr);

  // Explicit unlock (transaction locks become retained per rules 1-2).
  void Unlock(const FileId& file, const ByteRange& range, const LockOwner& owner);

  // Marks `range` of `file` dirty-covered for rule 2 stickiness.
  void MarkDirtyCovered(const FileId& file, const ByteRange& range, const LockOwner& owner);

  // Transaction commit/abort: releases all its locks everywhere and retries
  // queued requests. Also cancels the transaction's own queued waiters.
  void ReleaseTransaction(const TxnId& txn);
  // Non-transaction process exit.
  void ReleaseProcess(Pid pid);
  // Cancels queued requests from `owner` (deadlock-victim abort while
  // waiting); their callbacks fire with false.
  void CancelWaiters(const LockOwner& owner);

  bool MayRead(const FileId& file, const ByteRange& range, const LockOwner& owner) const;
  bool MayWrite(const FileId& file, const ByteRange& range, const LockOwner& owner) const;
  bool Holds(const FileId& file, const ByteRange& range, const LockOwner& owner,
             LockMode mode) const;

  // Kernel interface for deadlock detection (section 3.1: the kernel does not
  // detect deadlock; it exposes the data for a system process to do so).
  std::vector<WaitEdge> WaitForEdges() const;

  // Lock-table handoff when the primary storage site for a file moves
  // (replication, section 5.2).
  LockList TakeFileLocks(const FileId& file);
  void InstallFileLocks(const FileId& file, LockList list);

  const LockList* Find(const FileId& file) const;
  int64_t waiting_count() const;
  // Read-only view of every file's lock list (diagnostics, tests).
  const std::unordered_map<FileId, LockList, FileIdHash>& files() const { return files_; }

  // Transactions holding any lock at this site (topology-change abort scan).
  std::vector<TxnId> TransactionsWithLocks() const;

  // Site crash: all lock state is volatile; queued waiters are dropped
  // without callbacks (their RPCs fail through the network layer).
  void Clear();

  // Protocol observer (the System hub) watching this site's lock table (may be null).
  void set_auditor(ProtocolObserver* audit) { audit_ = audit; }

 private:
  struct Waiting {
    uint64_t seq;
    FileId file;
    ByteRange range;  // Last computed range (refreshed by `recompute`).
    LockOwner owner;
    LockMode mode;
    bool non_transaction;
    GrantCallback callback;
    RangeFn recompute;
  };

  // Grants whatever newly-compatible queued requests exist, FIFO.
  void RetryWaiters();

  bool Audited() const { return audit_ != nullptr && audit_->enabled(); }
  // The FileIds this manager has lock lists for, for audit release hooks.
  std::vector<FileId> FileKeys() const;

  ProtocolObserver* audit_ = nullptr;
  StatRegistry* stats_;
  std::string site_name_;
  // Interned counter ids: Request sits on the hot path of every file access.
  struct Ids {
    StatRegistry::StatId requests;
    StatRegistry::StatId granted;
    StatRegistry::StatId denied;
    StatRegistry::StatId queued;
  };
  Ids ids_;
  uint64_t next_seq_ = 1;
  std::unordered_map<FileId, LockList, FileIdHash> files_;
  std::deque<Waiting> waiting_;
};

}  // namespace locus

#endif  // SRC_LOCK_LOCK_MANAGER_H_
