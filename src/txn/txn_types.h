// The per-site transaction table's record. The stable log record types it
// resolves into (coordinator and prepare records, section 4.2) live in
// src/storage/log_records.h, beside the volume log that stores them.

#ifndef SRC_TXN_TXN_TYPES_H_
#define SRC_TXN_TXN_TYPES_H_

#include <string>
#include <utility>
#include <vector>

#include "src/base/ids.h"

namespace locus {

// Volatile per-transaction state at the site currently hosting the top-level
// process (it migrates with that process).
struct TxnRecord {
  TxnId id;
  Pid top_pid = kNoPid;
  enum class Phase { kActive, kPreparing, kResolved } phase = Phase::kActive;
  bool abort_requested = false;
  // True while the coordinator's commit-mark log write is in flight — the
  // window between the final abort_requested check and the mark becoming
  // durable. An abort cascade must not tear down prepared intentions inside
  // this window (see Kernel::AbortTransactionLocal).
  bool commit_marking = false;
  std::string abort_reason;
  // Live member processes, including the top-level one. EndTrans blocks
  // until this drops to 1 (section 4.2: commit begins when all subprocesses
  // have completed).
  int active_members = 1;
  std::vector<UsedFile> files;
  // Live member processes (pid, last known site), for the abort cascade.
  std::vector<std::pair<Pid, SiteId>> members;
};

}  // namespace locus

#endif  // SRC_TXN_TXN_TYPES_H_
