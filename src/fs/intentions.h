// Intentions lists: the unit of the single-file commit mechanism (section 4).
//
// A file is committed by writing its new (shadow) data pages to disk and then
// atomically overwriting the inode so its page-pointer list names the shadow
// pages. The intentions list is the set of pointer replacements; prepare logs
// persist it so phase two of commit can run after a crash.
//
// A page slot the writer shares with other writers' uncommitted records
// (Figure 4b) is differenced at install time, onto the page version current
// then: its update carries the writer's bytes instead of a flushed shadow
// page, and the prepare log records them.

#ifndef SRC_FS_INTENTIONS_H_
#define SRC_FS_INTENTIONS_H_

#include <cstdint>
#include <vector>

#include "src/base/ids.h"
#include "src/lock/range.h"
#include "src/storage/disk.h"

namespace locus {

struct PageUpdate {
  int32_t page_index = 0;  // Page slot within the file.
  // The slot's shadow page: flushed to disk already if `records` is null
  // (Figure 4a); otherwise the page the install writes the merged image to.
  PageId new_page = kNoPage;
  // Figure 4(b): an image whose bytes in the intentions' ranges on this slot
  // are the writer's records; its other bytes are not read. Shared
  // copy-on-write like every page image.
  PageRef records;
};

struct IntentionsList {
  FileId file;
  // Version of the committed inode the flushed shadow pages were taken
  // against. If the file has advanced past this by install time (another
  // writer of disjoint records committed in between), installation
  // re-differences those pages against the current image using `ranges` —
  // the lock-range information the prepare log stores alongside the
  // intentions (section 4.2 stores "intentions lists and lock lists").
  uint64_t base_version = 0;
  // Replication ordinal this install advances the file to (stamped by the
  // flush as committed commit_version + 1). Install takes the max with its
  // own increment, so redo after crash and replica catch-up stay idempotent.
  uint64_t commit_version = 0;
  int64_t new_size = 0;
  // The writer's modified byte ranges (file-wide).
  std::vector<ByteRange> ranges;
  std::vector<PageUpdate> updates;
};

// Bytes of records `intentions` carries for its Figure-4(b) slots: what its
// prepare record logs beyond the page pointers.
inline int64_t CarriedRecordBytes(const IntentionsList& intentions, int32_t page_size) {
  int64_t bytes = 0;
  for (const PageUpdate& u : intentions.updates) {
    if (u.records == nullptr) {
      continue;
    }
    const ByteRange span{static_cast<int64_t>(u.page_index) * page_size, page_size};
    for (const ByteRange& r : intentions.ranges) {
      bytes += r.Intersect(span).length;
    }
  }
  return bytes;
}

}  // namespace locus

#endif  // SRC_FS_INTENTIONS_H_
