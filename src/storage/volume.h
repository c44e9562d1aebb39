// A logical volume (filesystem) on one disk.
//
// The volume owns three kinds of stable state beyond raw data pages:
//   - an inode table: per-file descriptor blocks holding the page-pointer
//     list that the intentions-list commit mechanism atomically overwrites,
//   - a free-page allocation bitmap (rebuilt during recovery: shadow pages
//     that were allocated but belong to no inode and no unresolved log are
//     reclaimed, exactly the decision section 4.4 says requires the log), and
//   - a log region. Section 4.4: "the Locus transaction mechanism maintains
//     a separate log per logical volume" so removable media carry their own
//     recovery state. Coordinator and prepare log records both live here.
//
// Inodes and log records are kept structurally (not byte-serialized) but are
// mutated only through operations that charge the same disk I/O a real
// implementation would; crash discards everything except completed writes.

#ifndef SRC_STORAGE_VOLUME_H_
#define SRC_STORAGE_VOLUME_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/flat_map.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"
#include "src/storage/disk.h"
#include "src/storage/log_records.h"

namespace locus {

using Ino = int32_t;
inline constexpr Ino kNoIno = -1;

using VolumeId = int32_t;
inline constexpr VolumeId kNoVolume = -1;

// On-disk file descriptor block ("inode"). The pages vector is the file's
// page-pointer list; committing a file atomically replaces this block.
struct DiskInode {
  Ino ino = kNoIno;
  int64_t size = 0;
  uint64_t version = 0;
  // Monotonic count of committed installs, stamped at the primary update site
  // and carried to replicas by propagation / reintegration. Unlike `version`
  // (which also moves on truncate and counts every local install), this is
  // the replication currency ordinal: replicas of one file compare equal iff
  // their commit_version matches.
  uint64_t commit_version = 0;
  std::vector<PageId> pages;
};

// One stable log record: a coordinator or a prepare record (log_records.h).
// The transaction layer interprets it; the volume only stores and scans.
struct LogRecord {
  uint64_t record_id = 0;
  LogPayload payload;
};

class Volume {
 public:
  // Fidelity switch for footnote 9 of the paper: the 1985 implementation
  // needed two writes per log append (log data page + log inode). The
  // corrected design needs one.
  enum class LogAppendMode { kSingleWrite, kDoubleWrite };

  Volume(VolumeId id, std::string name, std::unique_ptr<Disk> disk);

  VolumeId id() const { return id_; }
  const std::string& name() const { return name_; }
  Disk& disk() { return *disk_; }
  int32_t page_size() const { return disk_->page_size(); }

  void set_log_append_mode(LogAppendMode mode) { log_append_mode_ = mode; }

  // Registers the shared counter registry. Interns "form.log_forces" (bumped
  // once per log-page force in both modes, so the per-transaction ratio is
  // comparable with group commit on or off) and "form.group_commit_records"
  // (records that shared a force with at least one other).
  void BindStats(StatRegistry* stats);

  // Turns on per-volume group commit: concurrent AppendLog/MarkLog callers
  // stage their records and share a single log force (one ~26 ms disk write
  // covers every record staged when the force starts) instead of each paying
  // its own. Callers must run in process context, same as before. Disabled by
  // default; with it off the I/O pattern is bit-identical to the historical
  // one-force-per-record behavior.
  void EnableGroupCommit(Simulation* sim);

  // --- Page allocation (in-memory bitmap; durability via recovery rebuild) ---
  // The lowest free page; aborts with a message when the volume is full.
  PageId AllocPage();
  void FreePage(PageId page);
  bool IsAllocated(PageId page) const {
    return (allocated_[page >> 6] >> (page & 63)) & 1;
  }
  int32_t free_page_count() const;
  // Refused double-frees (see FreePage); must stay zero in a correct run.
  int64_t double_frees() const { return double_frees_; }

  // --- Inode table (each op charges disk I/O; blocking, process context) ---
  Ino AllocInode();
  std::optional<DiskInode> ReadInode(Ino ino);
  // Writes the descriptor block as `inode` reads at the call; the stable
  // table shows it once the write completes.
  void WriteInode(const DiskInode& inode);
  void FreeInode(Ino ino);
  // Stable-state peek for tests/recovery planning; no I/O charged.
  const DiskInode* PeekInode(Ino ino) const;

  // --- Log region (blocking, process context) ---
  // Force discipline for a log mutation. kForce blocks until the record is on
  // disk. kLazy (honored only with group commit on; plain mode always forces)
  // stages the record to ride along with the next force of this volume —
  // presumed-abort 2PC needs neither the coordinator's begin record nor abort
  // marks forced: a crash that loses them reads back as "no decision", which
  // recovery already treats as abort. The commit mark's force covers every
  // earlier staged record, so the decision is durable exactly when required.
  enum class LogForce { kForce, kLazy };
  // Appends a record under the given accounting category
  // ("coordinator_log" / "prepare_log" / "commit_mark"), forcing it as
  // `force` and the append mode say. The record is moved into the log.
  // Returns the record id. A force writes one log page per page of record
  // bytes (RecordBytes) that the records it covers carry, and at least one.
  uint64_t AppendLog(LogPayload payload, const char* category,
                     LogForce force = LogForce::kForce);
  // Sets the status marker of coordinator record `record_id` in place, one
  // write. The record keeps its file list, so a mark copies nothing.
  void MarkLog(uint64_t record_id, TxnStatus status, const char* category,
               LogForce force = LogForce::kForce);
  // Removes a resolved record (no I/O modelled; piggybacked housekeeping).
  void EraseLog(uint64_t record_id);
  // The records in id order: a table ordered by record id, whose storage
  // is kept as records resolve (ids only grow, so an append lands at its
  // end). Each record is boxed and keeps its address while others come and
  // go, since a commit installs from its prepare record across disk writes;
  // an erased record's box serves a later append.
  const FlatMap<uint64_t, std::unique_ptr<LogRecord>>& stable_log() const { return log_; }

  // --- Crash / recovery support ---
  // Called at site crash: volatile allocation state is lost with the buffer
  // cache; disk queue is flushed.
  void OnCrash();
  // Rebuilds the allocation bitmap from stable inodes plus `extra_live_pages`
  // (pages referenced by unresolved intentions lists in the log, which must
  // not be reclaimed until their transactions resolve).
  void RecoverAllocation(const std::vector<PageId>& extra_live_pages);

 private:
  // A log mutation (an append of record `id`, or a status mark of it)
  // staged for the next shared force. Stamps order staging; a force covers
  // every record staged at or before its capture point.
  struct StagedRecord {
    uint64_t id = 0;
    LogPayload payload;  // The appended record; unused by a mark.
    uint64_t stamp = 0;
    std::optional<TxnStatus> mark;
  };
  bool StagedContains(uint64_t record_id) const;
  // Stores `payload` as record `id` of the stable log, boxing a new record
  // in a spare box when there is one.
  void PutLog(uint64_t id, LogPayload payload);
  // Sets the status marker of stable coordinator record `id`.
  void PutMark(uint64_t id, TxnStatus status);

  // Blocks until a force covering `stamp` has completed. The first caller to
  // find no force in flight becomes the leader: it captures the current
  // staging high-water mark, pays the disk write, publishes every covered
  // record into the stable log, and wakes the followers. Records staged while
  // the write was in flight are covered by the next leader.
  void ForceCovering(uint64_t stamp, const char* category);
  // Moves staged records with stamp <= covered into the stable log, in order.
  void PublishThrough(uint64_t covered);
  // One log force, paid in process context: the log page writes for
  // `record_bytes` of records (at least one page), then (with `grows_log`,
  // footnote 9's double-write mode) the log inode rewrite, then the
  // "form.log_forces" bump.
  void ForceLogPage(const char* category, bool grows_log, int64_t record_bytes);

  // Zero metadata page image shared by every inode/log accounting write
  // (contents are modeled beside the disk; the write is for I/O accounting).
  const PageRef& ZeroPage() const { return disk_->zero_page(); }

  VolumeId id_;
  std::string name_;
  std::unique_ptr<Disk> disk_;
  LogAppendMode log_append_mode_ = LogAppendMode::kSingleWrite;
  // Allocation bitmap, 64 pages a word (bit p % 64 of word p / 64); bits
  // past the last page stay clear.
  std::vector<uint64_t> allocated_;
  // Sets or clears one page's bit.
  void MarkAllocated(PageId page, bool allocated);
  // Clears the bitmap and marks the reserved metadata pages.
  void ResetAllocation();
  // Every page below this one is allocated: AllocPage's first-fit scan
  // starts here, a word at a time, and FreePage lowers it.
  PageId first_free_hint_;
  int64_t double_frees_ = 0;
  Ino next_ino_ = 1;
  std::map<Ino, DiskInode> inodes_;  // Stable inode table contents.
  uint64_t next_log_id_ = 1;
  FlatMap<uint64_t, std::unique_ptr<LogRecord>> log_;  // Stable log contents.
  // Boxes of erased records, emptied, for PutLog.
  std::vector<std::unique_ptr<LogRecord>> spare_log_records_;

  // --- Group commit state (active iff sim_ != nullptr) ---
  Simulation* sim_ = nullptr;
  StatRegistry* stats_ = nullptr;
  StatRegistry::StatId log_forces_id_ = -1;
  StatRegistry::StatId group_records_id_ = -1;
  std::vector<StagedRecord> staged_;   // Volatile; lost at crash.
  uint64_t staged_stamp_ = 0;          // High-water mark of staged records.
  uint64_t durable_stamp_ = 0;         // Highest stamp covered by a force.
  bool force_in_progress_ = false;
  std::unique_ptr<WaitQueue> force_wait_;
};

}  // namespace locus

#endif  // SRC_STORAGE_VOLUME_H_
