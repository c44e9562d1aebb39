// FileStore: per-storage-site file data management implementing the paper's
// record-level shadow-page commit mechanism (sections 4, 5.2, Figure 4).
//
// Uncommitted writes live in per-file *working pages* shared by all writers
// of the file; each writer (a transaction, or a non-transaction process)
// additionally owns the set of byte ranges it modified and a shadow disk page
// per touched page slot. Committing a writer:
//   - pages modified by no one else: the working page is flushed to the
//     writer's shadow page directly (Figure 4a);
//   - pages carrying other writers' uncommitted records: the previous version
//     is fetched (buffer pool, else a disk re-read) and only the writer's
//     byte ranges are copied onto it before flushing (Figure 4b);
// and then the inode is atomically rewritten to name the shadow pages.
// Aborting a writer reverts its byte ranges in the working pages from the
// previous version and frees its shadow pages.
//
// The two-phase commit protocol splits this into PrepareWriter (flush pages,
// return the intentions list for the prepare log) and InstallIntentions /
// DiscardIntentions (phase two), which are idempotent across crashes.

#ifndef SRC_FS_FILE_STORE_H_
#define SRC_FS_FILE_STORE_H_

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/audit/observer.h"
#include "src/base/ids.h"
#include "src/fs/buffer_pool.h"
#include "src/fs/intentions.h"
#include "src/lock/lock_list.h"
#include "src/lock/range.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"
#include "src/storage/volume.h"

namespace locus {

// CPU cost model for the record commit path, calibrated against Figure 6:
// 9450 instructions (21 ms) for a one-page non-overlap commit, 10800 (24 ms)
// when differencing; and against footnote 11: copying most of a 4 KB page
// adds about 1 ms (450 instructions) over a 1 KB page.
inline constexpr int64_t kCommitBaseInstructions = 4950;
inline constexpr int64_t kCommitPerPageInstructions = 4500;
inline constexpr int64_t kDiffPerPageInstructions = 1350;
inline constexpr double kDiffInstructionsPerByte = 0.15;
inline constexpr int64_t kWritePerPageInstructions = 800;
inline constexpr int64_t kReadPerPageInstructions = 500;

class FileStore {
 public:
  FileStore(Simulation* sim, Volume* volume, BufferPool* pool, StatRegistry* stats,
            std::string site_name);

  Volume& volume() { return *volume_; }
  int32_t page_size() const { return volume_->page_size(); }

  // --- File lifecycle (blocking; process context) ---
  // Allocates and persists a fresh empty inode; returns its file id.
  FileId CreateFile();
  void RemoveFile(const FileId& file);
  bool Exists(const FileId& file) const;
  // Current size seen by readers at this site (committed size extended by
  // uncommitted writes).
  int64_t WorkingSize(const FileId& file) const;
  int64_t CommittedSize(const FileId& file) const;
  // Replication ordinal of the committed image (see DiskInode::commit_version).
  uint64_t CommitVersion(const FileId& file) const;
  // Records that the committed image now corresponds to the primary's ordinal
  // `version` (after a reintegration catch-up applied its pages). Only ever
  // moves the ordinal forward; persists via the inode block. Blocking.
  void StampCommitVersion(const FileId& file, uint64_t version);

  // --- Data access (blocking; lock enforcement is the kernel's job) ---
  std::vector<uint8_t> Read(const FileId& file, const ByteRange& range);
  void Write(const FileId& file, const LockOwner& writer, int64_t offset,
             const std::vector<uint8_t>& bytes);

  // Brings the file's descriptor into kernel memory (open-time service at
  // the storage site); returns the working size, or nullopt if missing.
  std::optional<int64_t> OpenFile(const FileId& file);

  // Shrinks the file to `size` bytes, immediately and durably (an atomic
  // inode replacement, like the base Locus commit). Refused while any writer
  // holds uncommitted records — truncation is not transactional.
  bool Truncate(const FileId& file, int64_t size);

  // --- Record commit / abort (single-file mechanism) ---
  // Commits everything `writer` has done to `file` (Figure 4): flush + atomic
  // inode replacement. Returns the installed intentions (empty updates if the
  // writer had no modifications) for replica propagation.
  IntentionsList CommitWriter(const FileId& file, const LockOwner& writer);
  // Rolls the writer's records back to the previous version. Returns false
  // if the writer is mid-resolution (a prepare flush in flight) and the
  // rollback could not run; the caller must retry.
  bool AbortWriter(const FileId& file, const LockOwner& writer);

  // --- Two-phase commit support ---
  // Phase one: flushes the writer's shadow pages (with differencing where
  // needed) and returns the intentions list to be written to the prepare
  // log. Returns nullopt if the writer modified nothing.
  std::optional<IntentionsList> PrepareWriter(const FileId& file, const LockOwner& writer);
  // Phase two: atomically installs the intentions (idempotent via version).
  void InstallIntentions(const IntentionsList& intentions);
  // Abort after prepare: frees the shadow pages named by the intentions.
  void DiscardIntentions(const IntentionsList& intentions);
  // Retires the writer's volatile state after InstallIntentions in the
  // two-phase path (CommitWriter does this internally).
  void FinishWriterCommit(const FileId& file, const LockOwner& writer);

  // --- Dirty-record bookkeeping (section 3.3 rule 2) ---
  // Uncommitted ranges of *transactional* writers that are not SameAs `owner`,
  // intersected with `range` (audit isolation check). Non-transaction writers
  // are excluded: sharing with them is legal conventional (Unix-mode) sharing.
  std::vector<std::pair<TxnId, ByteRange>> TransactionalDirtyOfOthers(
      const FileId& file, const ByteRange& range, const LockOwner& owner) const;
  // Transfers the dirty ranges overlapping `range` (and the shadow-page
  // claims backing them) from their current writers to `adopter`, so they
  // commit or abort with the adopter (rule 2). Returns the adopted ranges.
  std::vector<ByteRange> AdoptDirtyRanges(const FileId& file, const ByteRange& range,
                                          const LockOwner& adopter);

  // True if `writer` has uncommitted modifications to `file`.
  bool HasUncommitted(const FileId& file, const LockOwner& writer) const;
  // True if ANY writer has uncommitted modifications to `file`.
  bool HasAnyWriters(const FileId& file) const;

  // Section 5.2 optimization: warms the buffer pool with the committed
  // pages covering `range` using asynchronous disk reads, in anticipation of
  // access after a lock grant. Non-blocking; safe from event context.
  void PrefetchRange(const FileId& file, const ByteRange& range);
  // Files on which `writer` has uncommitted modifications.
  std::vector<FileId> FilesWithUncommitted(const LockOwner& writer) const;

  // Committed-only content of page `slot` (never working pages), for serving
  // reintegration fetches: a catch-up must ship exactly the committed image,
  // not bytes of transactions still in flight at this site. Blocking.
  PageRef CommittedPageImage(const FileId& file, int32_t slot);

  // --- Crash / recovery ---
  // Site crash: working pages, caches and writer state are volatile.
  void OnCrash();
  // Shadow pages named by unresolved prepare-log intentions, for allocation
  // rebuild during recovery.
  static std::vector<PageId> PagesNamedBy(const IntentionsList& intentions);

  // Protocol observer (the System hub) watching this store's writes and commits (may be null).
  void set_auditor(ProtocolObserver* audit) { audit_ = audit; }

 private:
  struct Writer {
    LockOwner owner;
    RangeSet dirty;                         // Byte ranges modified, file-wide.
    std::map<int32_t, PageId> shadow_pages;  // Page slot -> shadow disk page.
    int64_t max_extent = 0;                 // Highest byte written + 1.
    // Set while a commit flush or abort rollback is in progress on this
    // writer. Resolution spans blocking disk I/O, so a duplicate
    // commit/abort message arriving meanwhile must not start a second
    // resolution (it would erase the Writer under the first one's feet).
    bool resolving = false;
  };

  struct FileState {
    DiskInode inode;                          // Committed descriptor (cached).
    std::map<int32_t, PageRef> working_pages;  // Slots with uncommitted bytes.
    // std::list: Writer references stay valid across the blocking disk I/O in
    // the commit path while other processes register new writers.
    std::list<Writer> writers;
    int64_t working_size = 0;
  };

  // Consumes simulated CPU at this storage site, attributed in the stats
  // ("cpu.<site>") for service-time measurement (Figure 6).
  void Cpu(int64_t instructions);

  FileState* FindState(const FileId& file);
  const FileState* FindState(const FileId& file) const;
  // Loads the file's committed inode into memory if needed.
  FileState& LoadState(const FileId& file);
  Writer& WriterFor(FileState& state, const LockOwner& owner);
  Writer* FindWriter(FileState& state, const LockOwner& owner);
  // Committed content of a page slot: buffer pool, else disk (charging a
  // read); slots beyond the committed page list read as zeros. Returns a
  // shared image — callers clone via MutablePage before modifying.
  PageRef CommittedPage(const FileId& file, const FileState& state, int32_t slot);
  // Version-stable committed image: retries the (blocking) fetch until no
  // install replaced the page pointer during the read, so callers never
  // persist a superseded image. Optionally reports the matching version.
  PageRef StableCommittedPage(const FileId& file, const FileState& state, int32_t slot,
                              uint64_t* version_out);
  // True if a writer other than `owner` has dirty bytes on `slot`.
  bool OtherWriterOnPage(const FileState& state, const LockOwner& owner, int32_t slot) const;
  ByteRange PageSpan(int32_t slot) const;
  // Flush phase shared by CommitWriter and PrepareWriter.
  IntentionsList FlushWriter(const FileId& file, FileState& state, Writer& writer);
  // Post-install cleanup of writer/working state after a commit.
  void FinishCommit(const FileId& file, FileState& state, const LockOwner& owner);

  bool Audited() const { return audit_ != nullptr && audit_->enabled(); }

  Simulation* sim_;
  ProtocolObserver* audit_ = nullptr;
  Volume* volume_;
  BufferPool* pool_;
  StatRegistry* stats_;
  std::string site_name_;
  std::map<FileId, FileState> files_;

  // Interned ids for every counter this class bumps; the read/write/commit
  // paths are the hottest stat emitters in the system.
  struct Ids {
    StatRegistry::StatId cpu;
    StatRegistry::StatId bytes_written;
    StatRegistry::StatId shadow_pages_allocated;
    StatRegistry::StatId shadow_pages_discarded;
    StatRegistry::StatId commit_diffed_pages;
    StatRegistry::StatId commit_direct_pages;
    StatRegistry::StatId commit_remerged_pages;
    StatRegistry::StatId commits_installed;
    StatRegistry::StatId install_working_page_patches;
    StatRegistry::StatId truncates;
    StatRegistry::StatId aborts;
    StatRegistry::StatId rule2_adoptions;
    StatRegistry::StatId prefetches;
  };
  Ids ids_;
};

}  // namespace locus

#endif  // SRC_FS_FILE_STORE_H_
