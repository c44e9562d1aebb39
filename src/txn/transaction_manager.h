// Per-site transaction table: id generation, member bookkeeping, and the
// EndTrans member barrier. The two-phase commit protocol itself is driven by
// the kernel (src/locus/kernel.cc) using this state.

#ifndef SRC_TXN_TRANSACTION_MANAGER_H_
#define SRC_TXN_TRANSACTION_MANAGER_H_

#include <map>
#include <memory>
#include <vector>

#include "src/audit/observer.h"
#include "src/base/flat_map.h"
#include "src/sim/simulation.h"
#include "src/txn/txn_types.h"

namespace locus {

class TransactionManager {
 public:
  TransactionManager(Simulation* sim, SiteId site) : sim_(sim), site_(site) {}

  // Generates a temporally unique id (section 4.1) and registers the record
  // at this site (the top-level process's site).
  TxnRecord* Begin(Pid top_pid, uint32_t boot_epoch);

  TxnRecord* Find(const TxnId& txn);

  // Transfers the volatile record when the top-level process migrates.
  std::unique_ptr<TxnRecord> Take(const TxnId& txn);
  void Install(std::unique_ptr<TxnRecord> record);

  void Erase(const TxnId& txn);

  // Member bookkeeping (top-level site only).
  void MemberJoined(const TxnId& txn);
  // Merges an exiting member's file-list and wakes the EndTrans barrier.
  void MemberExited(const TxnId& txn, const std::vector<UsedFile>& files);
  // Blocks the calling process until only the top-level member remains.
  void WaitMembersDone(const TxnId& txn);
  // Wakes the member barrier (abort raced the wait).
  void WakeBarrier(const TxnId& txn);

  // All active transactions at this site (for topology-change abort scans).
  std::vector<TxnRecord*> ActiveTransactions();

  // Site crash: all volatile transaction state vanishes.
  void Clear();
  void set_boot_epoch(uint32_t epoch) { boot_epoch_ = epoch; }

  // Protocol observer (the System hub) watching transaction lifecycle events (may be null).
  void set_auditor(ProtocolObserver* audit) { audit_ = audit; }

 private:
  bool Audited() const { return audit_ != nullptr && audit_->enabled(); }

  ProtocolObserver* audit_ = nullptr;
  Simulation* sim_;
  SiteId site_;
  uint32_t boot_epoch_ = 0;
  uint64_t next_serial_ = 1;
  // The site's live transactions: a few at a time, so a sorted vector.
  FlatMap<TxnId, std::unique_ptr<TxnRecord>> records_;
  // Erased records, kept with their storage for the next Begin.
  std::vector<std::unique_ptr<TxnRecord>> spare_records_;
  std::map<TxnId, std::unique_ptr<WaitQueue>> member_barriers_;
};

}  // namespace locus

#endif  // SRC_TXN_TRANSACTION_MANAGER_H_
