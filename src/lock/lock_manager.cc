#include "src/lock/lock_manager.h"

#include <algorithm>

namespace locus {

void LockManager::Request(const FileId& file, const ByteRange& range, const LockOwner& owner,
                          LockMode mode, bool non_transaction, bool wait,
                          GrantCallback callback, RangeFn recompute) {
  stats_->Add(ids_.requests);
  LockList& list = files_[file];
  ByteRange r = recompute ? recompute() : range;
  if (list.CanGrant(r, owner, mode)) {
    list.Grant(r, owner, mode, non_transaction);
    stats_->Add(ids_.granted);
    if (Audited()) {
      audit_->OnLockGranted(site_name_, file, r, owner, mode, non_transaction);
    }
    callback(true, r);
    return;
  }
  if (!wait) {
    stats_->Add(ids_.denied);
    callback(false, {});
    return;
  }
  stats_->Add(ids_.queued);
  waiting_.push_back(Waiting{next_seq_++, file, r, owner, mode, non_transaction,
                             std::move(callback), std::move(recompute)});
}

void LockManager::Unlock(const FileId& file, const ByteRange& range, const LockOwner& owner) {
  auto it = files_.find(file);
  if (it == files_.end()) {
    return;
  }
  it->second.Unlock(range, owner);
  if (Audited()) {
    audit_->OnUnlock(file, range, owner);
  }
  RetryWaiters();
}

void LockManager::MarkDirtyCovered(const FileId& file, const ByteRange& range,
                                   const LockOwner& owner) {
  auto it = files_.find(file);
  if (it != files_.end()) {
    // hook-ok runs in the grant callback, after the grant was reported
    // through OnLockGranted; it only tags granted pieces over adopted records.
    it->second.MarkDirtyCovered(range, owner);
  }
}

void LockManager::ReleaseTransaction(const TxnId& txn) {
  for (auto& [file, list] : files_) {  // order-insensitive: per-list release
    list.ReleaseTransaction(txn);
  }
  if (Audited()) {
    audit_->OnTxnLocksReleased(site_name_, txn, FileKeys());
  }
  CancelWaiters(LockOwner{kNoPid, txn});
  RetryWaiters();
}

void LockManager::ReleaseProcess(Pid pid) {
  for (auto& [file, list] : files_) {  // order-insensitive: per-list release
    list.ReleaseProcess(pid);
  }
  if (Audited()) {
    audit_->OnProcessLocksReleased(pid, FileKeys());
  }
  CancelWaiters(LockOwner{pid, kNoTxn});
  RetryWaiters();
}

void LockManager::CancelWaiters(const LockOwner& owner) {
  std::vector<GrantCallback> cancelled;
  std::erase_if(waiting_, [&](Waiting& w) {
    if (w.owner.SameAs(owner)) {
      cancelled.push_back(std::move(w.callback));
      return true;
    }
    return false;
  });
  for (auto& cb : cancelled) {
    cb(false, {});
  }
}

void LockManager::RetryWaiters() {
  // FIFO scan; each grant can unblock later waiters, so loop to fixpoint.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
      LockList& list = files_[it->file];
      if (it->recompute) {
        it->range = it->recompute();
      }
      if (list.CanGrant(it->range, it->owner, it->mode)) {
        list.Grant(it->range, it->owner, it->mode, it->non_transaction);
        stats_->Add(ids_.granted);
        if (Audited()) {
          audit_->OnLockGranted(site_name_, it->file, it->range, it->owner, it->mode,
                                it->non_transaction);
        }
        GrantCallback cb = std::move(it->callback);
        ByteRange granted = it->range;
        waiting_.erase(it);
        cb(true, granted);
        progressed = true;
        break;  // The callback may have mutated state; restart the scan.
      }
    }
  }
}

bool LockManager::MayRead(const FileId& file, const ByteRange& range,
                          const LockOwner& owner) const {
  auto it = files_.find(file);
  return it == files_.end() || it->second.MayRead(range, owner);
}

bool LockManager::MayWrite(const FileId& file, const ByteRange& range,
                           const LockOwner& owner) const {
  auto it = files_.find(file);
  return it == files_.end() || it->second.MayWrite(range, owner);
}

bool LockManager::Holds(const FileId& file, const ByteRange& range, const LockOwner& owner,
                        LockMode mode) const {
  auto it = files_.find(file);
  return it != files_.end() && it->second.Holds(range, owner, mode);
}

std::vector<WaitEdge> LockManager::WaitForEdges() const {
  std::vector<WaitEdge> edges;
  for (const Waiting& w : waiting_) {
    auto it = files_.find(w.file);
    if (it == files_.end()) {
      continue;
    }
    it->second.ForEachConflictingOwner(w.range, w.owner, w.mode, [&](const LockOwner& holder) {
      edges.push_back(WaitEdge{w.owner, holder, w.file});
    });
  }
  return edges;
}

const LockList* LockManager::Find(const FileId& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? nullptr : &it->second;
}

int64_t LockManager::waiting_count() const { return static_cast<int64_t>(waiting_.size()); }

std::vector<TxnId> LockManager::TransactionsWithLocks() const {
  // Cold path (topology-change scan). Iterate files in id order so the abort
  // spawn order stays deterministic now that files_ is hashed.
  std::vector<const FileId*> keys;
  keys.reserve(files_.size());
  for (const auto& [file, list] : files_) {  // order-insensitive: sorted below
    keys.push_back(&file);
  }
  std::sort(keys.begin(), keys.end(),
            [](const FileId* a, const FileId* b) { return *a < *b; });
  std::vector<TxnId> out;
  for (const FileId* key : keys) {
    for (const LockList::Entry& e : files_.at(*key).entries()) {
      if (e.owner.txn.valid() &&
          std::find(out.begin(), out.end(), e.owner.txn) == out.end()) {
        out.push_back(e.owner.txn);
      }
    }
  }
  return out;
}

void LockManager::Clear() {
  files_.clear();
  waiting_.clear();
}

std::vector<FileId> LockManager::FileKeys() const {
  std::vector<FileId> keys;
  keys.reserve(files_.size());
  for (const auto& [file, list] : files_) {  // order-insensitive: set of keys
    keys.push_back(file);
  }
  return keys;
}

}  // namespace locus
