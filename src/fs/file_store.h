// FileStore: per-storage-site file data management implementing the paper's
// record-level shadow-page commit mechanism (sections 4, 5.2, Figure 4).
//
// Uncommitted writes live in per-file *working pages* shared by all writers
// of the file; each writer (a transaction, or a non-transaction process)
// additionally owns the set of byte ranges it modified and a shadow disk page
// per touched page slot. Committing a writer:
//   - pages modified by no one else: the working page is flushed to the
//     writer's shadow page directly (Figure 4a);
//   - pages carrying other writers' uncommitted records: the intentions list
//     carries the writer's bytes, and the install copies only the writer's
//     byte ranges onto the version current then (buffer pool, else a disk
//     read) and writes the merged page to the shadow page (Figure 4b);
// and then the inode is atomically rewritten to name the shadow pages. The
// install caches each page image it publishes in the buffer pool, so the
// next commit on the page finds its previous version buffered (section 6.3).
// Installs of one file run one group at a time: the installs queued behind
// the one in flight form the next group, which writes one merged page per
// slot and one descriptor for all of them. Pages the group replaces are freed
// once that descriptor is on disk. Replicas install the primary's committed
// images through the same queue, in ordinal order.
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
#include <span>
#include <string>
#include <vector>

#include "src/audit/observer.h"
#include "src/base/flat_map.h"
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
  // CommitVersion once every replica install queued so far has ended: the
  // ordinal a replica reaches with the propagations it has received.
  // Blocking.
  uint64_t InstalledCommitVersion(const FileId& file);
  // The ordinal of the last install whose descriptor write has completed
  // (CommitVersion already counts the group in flight).
  uint64_t DurableCommitVersion(const FileId& file) const;

  // --- Data access (blocking; lock enforcement is the kernel's job) ---
  // A replica serves Read and OpenFile once the propagations it has received
  // are installed, so a process that saw the primary commit reads the commit
  // there too.
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
  // inode replacement. Returns the installed intentions for replica
  // propagation, their updates naming every page slot the install's group
  // published if this commit led the group, and none otherwise (or if the
  // writer had no modifications).
  IntentionsList CommitWriter(const FileId& file, const LockOwner& writer);
  // Rolls the writer's records back to the previous version. Returns false
  // if the writer is mid-resolution (a prepare flush in flight) and the
  // rollback could not run; the caller must retry.
  bool AbortWriter(const FileId& file, const LockOwner& writer);

  // --- Two-phase commit support ---
  // Phase one: flushes the writer's unshared shadow pages, takes its records
  // on shared ones, and returns the intentions list to be written to the
  // prepare log. Returns nullopt if the writer modified nothing.
  std::optional<IntentionsList> PrepareWriter(const FileId& file, const LockOwner& writer);
  // Phase two: atomically installs the intentions (idempotent via version),
  // queueing behind the file's install in flight and sharing the next
  // group's page and descriptor writes. The pages the intentions name stay
  // allocated until ReleaseIntentions, even once a later install replaces
  // them: the prepare record naming them may be redone after a crash.
  // `group_pages`, if given, receives the pages to propagate to replicas:
  // every slot the group installed if this call led it, none otherwise (the
  // group's one replication ordinal covers all its members).
  void InstallIntentions(const IntentionsList& intentions,
                         std::vector<PageUpdate>* group_pages = nullptr);
  // The prepare record naming these installed intentions is being erased:
  // frees those of its pages that installs have replaced meanwhile.
  void ReleaseIntentions(const IntentionsList& intentions);
  // Recovery found a prepare record naming `intentions`: its pages stay
  // allocated until ReleaseIntentions or DiscardIntentions, whatever the
  // redo installs replace in between.
  void HoldIntentions(const IntentionsList& intentions);
  // Abort after prepare: frees the shadow pages named by the intentions.
  void DiscardIntentions(const IntentionsList& intentions);

  // --- Replica installs (section 5.2) ---
  enum class ReplicaInstall { kInstalled, kDuplicate, kGap };
  // Installs the primary's committed images of `pages`, each clamped to
  // `committed_size`, as the file's replication ordinal `commit_version`,
  // queued behind the file's installs like any commit. An ordinal at or
  // below the last one installed or queued is a duplicate; one past the
  // next is a gap, unless `catchup` (a whole image may skip ordinals).
  // Ordinal 0 is unversioned and applies unless `catchup`. Blocking.
  ReplicaInstall InstallReplicaPages(const FileId& file, uint64_t commit_version,
                                     int64_t committed_size,
                                     std::span<const std::pair<int32_t, PageRef>> pages,
                                     bool catchup);
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
  // commit with the adopter (rule 2). Aborting the adopter hands them back to
  // their writers as they were when adopted, unless a writer has resolved
  // meanwhile (section 3.4: an abort undoes the transaction's changes only).
  // Returns the adopted ranges.
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
  // Files on which `writer` has uncommitted modifications, or records a
  // transaction adopted from it.
  std::vector<FileId> FilesWithUncommitted(const LockOwner& writer) const;

  // Committed-only content of page `slot` (never working pages): a replica
  // must receive exactly the committed image, not bytes of transactions
  // still in flight at this site. Blocking.
  PageRef CommittedPageImage(const FileId& file, int32_t slot);
  // The whole committed image, for serving reintegration fetches: its pages
  // and size, as of no install in flight (a group raises the ordinal before
  // it publishes its pages). Returns its ordinal. Blocking.
  uint64_t CommittedImage(const FileId& file, int64_t* size,
                          std::vector<std::pair<int32_t, PageRef>>* pages);

  // --- Crash / recovery ---
  // Site crash: working pages, caches and writer state are volatile.
  void OnCrash();
  // Shadow pages named by unresolved prepare-log intentions, for allocation
  // rebuild during recovery.
  static std::vector<PageId> PagesNamedBy(const IntentionsList& intentions);

  // Protocol observer (the System hub) watching this store's writes and commits (may be null).
  void set_auditor(ProtocolObserver* audit) { audit_ = audit; }

 private:
  // Conventional records a transaction adopted (rule 2), as they were then.
  struct AdoptedRecord {
    LockOwner donor;
    int64_t offset = 0;
    std::vector<uint8_t> bytes;
  };

  struct Writer {
    LockOwner owner;
    RangeSet dirty;                          // Byte ranges modified, file-wide.
    FlatMap<int32_t, PageId> shadow_pages;  // Page slot -> shadow disk page.
    // Page slot -> the image the flush wrote to its shadow page (Figure 4a
    // slots only), kept until the writer resolves (shared copy-on-write, like
    // every page image).
    FlatMap<int32_t, PageRef> flushed;
    int64_t max_extent = 0;                 // Highest byte written + 1.
    // Set while a commit flush or abort rollback is in progress on this
    // writer. Resolution spans blocking disk I/O, so a duplicate
    // commit/abort message arriving meanwhile must not start a second
    // resolution (it would erase the Writer under the first one's feet).
    bool resolving = false;
    // Records this (transactional) writer adopted; an abort hands them back.
    std::vector<AdoptedRecord> adopted;

    // Readies a retired record for `o`, keeping its storage.
    void Reuse(const LockOwner& o) {
      owner = o;
      dirty.clear();
      shadow_pages.clear();
      flushed.clear();
      max_extent = 0;
      resolving = false;
      adopted.clear();
    }
  };

  // Where an install comes from: a single-file commit (CommitWriter), a
  // prepare record (InstallIntentions), or a replica's propagation or
  // catch-up (InstallReplicaPages).
  enum class InstallSource { kCommit, kPrepareRecord, kReplica };

  // One install waiting in (or leading) its file's install queue. It lives
  // on the installing process's stack until the group that carries it ends.
  struct PendingInstall {
    const IntentionsList* intentions = nullptr;
    InstallSource source = InstallSource::kCommit;
    bool done = false;  // Its group's descriptor write has completed.
  };

  // One member's update of one page slot, in the group in flight.
  struct SlotUpdate {
    int32_t slot = 0;
    size_t member = 0;  // Position in the group.
    const IntentionsList* intentions = nullptr;
    const PageUpdate* update = nullptr;
  };

  struct FileState {
    explicit FileState(Simulation* sim) : install_done(sim) {}
    DiskInode inode;                          // Committed descriptor (cached).
    uint64_t durable_commit_version = 0;      // As the descriptor on disk has it.
    FlatMap<int32_t, PageRef> working_pages;  // Slots with uncommitted bytes.
    // std::list: Writer references stay valid across the blocking disk I/O in
    // the commit path while other processes register new writers.
    std::list<Writer> writers;
    int64_t working_size = 0;
    // Installs queued while a group is in flight, in arrival order; the first
    // of them to run once it ends leads them all as the next group.
    std::vector<PendingInstall*> install_queue;
    // The group in flight and its page updates ordered by slot, then by
    // queue order; both keep their storage for the next group.
    std::vector<PendingInstall*> group;
    std::vector<SlotUpdate> slot_table;
    bool installing = false;  // A group is in flight.
    // While one is: inode.version before it, and the first slot_table entry
    // whose slot it has not yet published.
    uint64_t group_base_version = 0;
    size_t install_cursor = 0;
    // Pages the group in flight replaced, freed once its descriptor write
    // has completed: until then the durable descriptor may still name them.
    std::vector<PageId> replaced;
    WaitQueue install_done;   // Woken when a group ends.
    // Replica installs queued so far, and those whose group has ended.
    uint64_t replica_installs_queued = 0;
    uint64_t replica_installs_done = 0;
  };


  // Consumes simulated CPU at this storage site, attributed in the stats
  // ("cpu.<site>") for service-time measurement (Figure 6).
  void Cpu(int64_t instructions);

  FileState* FindState(const FileId& file);
  const FileState* FindState(const FileId& file) const;
  // Loads the file's committed inode into memory if needed.
  FileState& LoadState(const FileId& file);
  // LoadState, once every replica install queued so far has ended.
  FileState& LoadInstalled(const FileId& file);
  Writer& WriterFor(FileState& state, const LockOwner& owner);
  Writer* FindWriter(FileState& state, const LockOwner& owner);
  // Moves every writer record of `owner` to spare_writers_; WriterFor
  // clears and reuses them. A retired record stays readable until then.
  void RetireWriters(FileState& state, const LockOwner& owner);
  // Committed content of a page slot: buffer pool, else disk (charging a
  // read); slots beyond the committed page list read as zeros. Returns a
  // shared image — callers clone via Disk::MutableImage before modifying.
  PageRef CommittedPage(const FileId& file, const FileState& state, int32_t slot);
  // The page the committed descriptor names for `slot` (kNoPage past its end).
  static PageId PageAt(const FileState& state, int32_t slot);
  // Version-stable committed image: retries the (blocking) fetch until no
  // install bumped the version or replaced the page pointer during the read,
  // so callers never persist a superseded image. Optionally reports the
  // version the image is current as of (ImageVersion).
  PageRef StableCommittedPage(const FileId& file, const FileState& state, int32_t slot,
                              uint64_t* version_out);
  // The inode version that the committed image of `slot`, as fetched now,
  // is current as of. While a group is in flight the inode version already
  // counts it, but a slot it has yet to publish still holds the image from
  // before it.
  uint64_t ImageVersion(const FileState& state, int32_t slot) const;
  // True if each piece of `ranges` inside `span` lies within one dirty range
  // of a live writer: an install then has nothing to patch into the working
  // page (the general check unions the writers' ranges).
  bool OwnedByLiveWriter(const FileState& state, const std::vector<ByteRange>& ranges,
                         const ByteRange& span) const;
  // The working-page bytes of `range`, every page of which a live writer
  // has dirtied (non-blocking).
  std::vector<uint8_t> WorkingBytes(const FileState& state, const ByteRange& range) const;
  // Forgets the adopted records of `donor`, which is resolving: they stay
  // with their adopters whatever the adopters' outcome.
  static void DropAdoptionsFrom(FileState& state, const LockOwner& donor);
  // True if a writer other than `owner` has dirty bytes on `slot`.
  bool OtherWriterOnPage(const FileState& state, const LockOwner& owner, int32_t slot) const;
  ByteRange PageSpan(int32_t slot) const;
  // The image a live writer's flush wrote to `u.new_page` (Figure 4a), or
  // null if no writer holds it (crash-recovery redo).
  PageRef FlushedImage(const FileState& state, const PageUpdate& u) const;
  // Flush phase shared by CommitWriter and PrepareWriter.
  IntentionsList FlushWriter(const FileId& file, FileState& state, Writer& writer);
  // Queues `intentions` on its file and returns once a group has installed
  // them, leading that group if no install of the file is in flight.
  // `group_pages` as for InstallIntentions.
  void Install(const IntentionsList& intentions, InstallSource source,
               std::vector<PageUpdate>* group_pages);
  // Installs state.group: every slot's merged page, then one descriptor.
  void InstallGroup(const FileId& file, FileState& state);
  // One slot of the group in flight, state.slot_table[begin, end): merges
  // the members' records onto one image, writes it once, publishes it and
  // adds what it replaces to state.replaced.
  void InstallSlot(const FileId& file, FileState& state, size_t begin, size_t end,
                   uint64_t version_at_entry);
  // Frees a page an install replaced, or marks it for ReleaseIntentions if
  // prepare-logged intentions still name it.
  void FreeReplacedPage(PageId page);
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
  // Retired writer records, kept with their storage for the next writer.
  std::list<Writer> spare_writers_;
  // Pages named by installed (or, after a crash, logged) prepare-record
  // intentions not yet released, each with whether an install has replaced
  // it since: those are freed at ReleaseIntentions.
  FlatMap<PageId, bool> held_pages_;

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
    StatRegistry::StatId install_groups;
    StatRegistry::StatId install_grouped;
    StatRegistry::StatId truncates;
    StatRegistry::StatId aborts;
    StatRegistry::StatId rule2_adoptions;
    StatRegistry::StatId prefetches;
  };
  Ids ids_;
};

}  // namespace locus

#endif  // SRC_FS_FILE_STORE_H_
