#include "src/txn/transaction_manager.h"

#include <cassert>

namespace locus {

TxnRecord* TransactionManager::Begin(Pid top_pid, uint32_t boot_epoch) {
  boot_epoch_ = boot_epoch;
  std::unique_ptr<TxnRecord> record;
  if (spare_records_.empty()) {
    record = std::make_unique<TxnRecord>();
  } else {
    record = std::move(spare_records_.back());
    spare_records_.pop_back();
    record->Reuse();
  }
  record->id = TxnId{site_, boot_epoch_, next_serial_++};
  record->top_pid = top_pid;
  TxnRecord* raw = record.get();
  records_[record->id] = std::move(record);
  if (Audited()) {
    audit_->OnTxnBegin(raw->id);
  }
  return raw;
}

TxnRecord* TransactionManager::Find(const TxnId& txn) {
  auto it = records_.find(txn);
  return it == records_.end() ? nullptr : it->second.get();
}

std::unique_ptr<TxnRecord> TransactionManager::Take(const TxnId& txn) {
  auto it = records_.find(txn);
  if (it == records_.end()) {
    return nullptr;
  }
  std::unique_ptr<TxnRecord> record = std::move(it->second);
  records_.erase(it);
  if (Audited()) {
    audit_->OnTxnRecordTransferred(txn, /*installed=*/false);
  }
  return record;
}

void TransactionManager::Install(std::unique_ptr<TxnRecord> record) {
  assert(record != nullptr);
  TxnId id = record->id;
  records_[id] = std::move(record);
  if (Audited()) {
    audit_->OnTxnRecordTransferred(id, /*installed=*/true);
  }
  // Wake any barrier waiter that raced the migration.
  auto it = member_barriers_.find(id);
  if (it != member_barriers_.end()) {
    it->second->NotifyAll();
  }
}

void TransactionManager::Erase(const TxnId& txn) {
  auto record = records_.find(txn);
  if (record != records_.end()) {
    // hook-ok record removal is the tail of a commit/abort whose decision the
    // caller already reported via OnCommitPoint/OnAbortDecision.
    spare_records_.push_back(std::move(record->second));
    records_.erase(record);
  }
  auto it = member_barriers_.find(txn);
  if (it != member_barriers_.end()) {
    it->second->NotifyAll();
    member_barriers_.erase(it);
  }
}

void TransactionManager::MemberJoined(const TxnId& txn) {
  TxnRecord* record = Find(txn);
  if (record != nullptr) {
    record->active_members++;
    if (Audited()) {
      audit_->OnMemberJoined(txn);
    }
  }
}

void TransactionManager::MemberExited(const TxnId& txn, const std::vector<UsedFile>& files) {
  TxnRecord* record = Find(txn);
  if (record == nullptr) {
    return;
  }
  for (const UsedFile& f : files) {
    bool present = false;
    for (const UsedFile& existing : record->files) {
      if (existing == f) {
        present = true;
        break;
      }
    }
    if (!present) {
      record->files.push_back(f);
    }
  }
  record->active_members--;
  if (Audited()) {
    audit_->OnMemberExited(txn);
  }
  auto it = member_barriers_.find(txn);
  if (it != member_barriers_.end()) {
    it->second->NotifyAll();
  }
}

void TransactionManager::WaitMembersDone(const TxnId& txn) {
  while (true) {
    TxnRecord* record = Find(txn);
    if (record == nullptr || record->active_members <= 1 || record->abort_requested) {
      return;
    }
    auto it = member_barriers_.find(txn);
    if (it == member_barriers_.end()) {
      // hook-ok barrier bookkeeping, not protocol state; membership events
      // are reported by OnMemberJoined/OnMemberExited.
      it = member_barriers_.emplace(txn, std::make_unique<WaitQueue>(sim_)).first;
    }
    it->second->Wait();
  }
}

void TransactionManager::WakeBarrier(const TxnId& txn) {
  auto it = member_barriers_.find(txn);
  if (it != member_barriers_.end()) {
    it->second->NotifyAll();
  }
}

std::vector<TxnRecord*> TransactionManager::ActiveTransactions() {
  std::vector<TxnRecord*> out;
  for (auto& [id, record] : records_) {
    out.push_back(record.get());
  }
  return out;
}

void TransactionManager::Clear() {
  records_.clear();
  for (auto& [id, barrier] : member_barriers_) {
    barrier->NotifyAll();
  }
  member_barriers_.clear();
}

}  // namespace locus
