// Stable log record types (section 4.2).
//
// Section 4.2 describes three levels of logs: the coordinator log (one record
// per transaction at the coordinator site, carrying the participating files
// and the status marker whose transition to `committed` IS the commit point),
// the prepare logs at participant sites (intentions + lock information per
// volume), and the per-file shadow pages themselves. The first two are the
// record types here; a volume's log holds exactly these (LogPayload), and
// recovery (section 4.4) reads them back. Shadow pages live in the FileStore.

#ifndef SRC_STORAGE_LOG_RECORDS_H_
#define SRC_STORAGE_LOG_RECORDS_H_

#include <variant>
#include <vector>

#include "src/base/ids.h"
#include "src/fs/intentions.h"

namespace locus {

enum class TxnStatus { kUnknown, kCommitted, kAborted };

// Coordinator log record (stable, one per transaction at the coordinator).
struct CoordinatorLogRecord {
  TxnId txn;
  TxnStatus status = TxnStatus::kUnknown;
  std::vector<UsedFile> files;
};

// Prepare log record (stable, one per volume per transaction at each
// participant site; the 1985 implementation wrote one per file — footnote 10
// — which the I/O-overhead experiment reproduces as a fidelity mode).
struct PrepareLogRecord {
  TxnId txn;
  SiteId coordinator = kNoSite;
  std::vector<IntentionsList> intentions;
};

using LogPayload = std::variant<CoordinatorLogRecord, PrepareLogRecord>;

}  // namespace locus

#endif  // SRC_STORAGE_LOG_RECORDS_H_
