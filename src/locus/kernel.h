// The per-site Locus kernel: syscall implementations, storage-site service,
// transaction coordination (two-phase commit), abort cascade, migration, and
// crash/recovery.
//
// Every site in the cluster runs one Kernel. User processes enter through
// the Sys* methods (wrapped by the Syscalls facade). Each protocol message
// row has one service function (Serve); a request to the local site calls it
// directly, and a remote one arrives through a message handler that calls
// it, in a short-lived kernel process for blocking work — the paper's
// lightweight kernel-to-kernel protocols, location-transparent.

#ifndef SRC_LOCUS_KERNEL_H_
#define SRC_LOCUS_KERNEL_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/base/expiring_map.h"
#include "src/base/flat_map.h"
#include "src/base/ids.h"
#include "src/form/formation.h"
#include "src/fs/buffer_pool.h"
#include "src/fs/catalog.h"
#include "src/fs/file_store.h"
#include "src/lock/lock_manager.h"
#include "src/locus/errors.h"
#include "src/locus/messages.h"
#include "src/net/network.h"
#include "src/proc/process.h"
#include "src/sim/simulation.h"
#include "src/storage/volume.h"
#include "src/txn/transaction_manager.h"

namespace locus {

class System;

// CPU cost model for syscall and protocol processing.
inline constexpr int64_t kSyscallInstructions = 150;
inline constexpr int64_t kNameResolveInstructionsPerComponent = 400;
inline constexpr int64_t kForkInstructions = 2500;
inline constexpr int64_t kMigrationImageBytes = 4096;
inline constexpr int64_t kTwoPhaseCommitInstructions = 1800;
inline constexpr int64_t kRemoteCommitMarshalInstructions = 7200;  // Figure 6.

struct OpenFlags {
  bool read = true;
  bool write = false;
  bool append = false;  // Section 3.2 append (lock-and-extend) mode.
};

enum class LockOp { kShared, kExclusive, kUnlock };

struct LockFlags {
  bool wait = true;             // Queue on conflict rather than fail.
  bool non_transaction = false;  // Section 3.4 non-transaction lock.
};

// One row of the ReplicaStatus syscall: the caller-visible currency of each
// replica of a path.
struct ReplicaStatusEntry {
  SiteId site = kNoSite;
  uint64_t commit_version = 0;
  bool stale = false;      // Quarantined by the staleness gate.
  bool reachable = false;  // From the calling site, at probe time.
  // Version matches the maximum among the replicas whose version could be
  // learned, and the replica is not quarantined.
  bool current = false;
};

// LOCUS_SYSCALLS is the one declaration of the process-facing calls that go
// straight to the kernel: each row names the result, the call, its
// parameters (with their defaults) and their names as arguments. From it come
// the Kernel::Sys<Name> declarations below, which take the calling process
// first, and the Syscalls facade's forwarding methods (system.h). Calls with
// work of their own on the facade side (Fork, WriteString, Compute) are
// written out there.
#define LOCUS_SYSCALLS(X)                                                                      \
  /* ---- Namespace ---- */                                                                    \
  X(Err, Mkdir, (const std::string& path), (path))                                             \
  /* Creates a file with `replication` replicas on distinct sites, the first                   \
     at the caller's site, each on its site's root volume. */                                  \
  X(Err, Creat, (const std::string& path, int replication = 1), (path, replication))           \
  X(Err, Unlink, (const std::string& path), (path))                                            \
                                                                                               \
  /* ---- Files ---- */                                                                        \
  X(Result<int>, Open, (const std::string& path, OpenFlags flags = {}), (path, flags))         \
  X(Err, Close, (int fd), (fd))                                                                \
  X(Result<std::vector<uint8_t>>, Read, (int fd, int64_t length), (fd, length))                \
  X(Err, Write, (int fd, const std::vector<uint8_t>& bytes), (fd, bytes))                      \
  X(Result<int64_t>, Seek, (int fd, int64_t offset), (fd, offset))                             \
  X(Result<int64_t>, FileSize, (int fd), (fd))                                                 \
  /* Section 3.2: the paper's Lock(file, length, mode). The range starts at                    \
     the channel's current offset; in append mode it is allocated at                           \
     end-of-file atomically. */                                                                \
  X(Result<ByteRange>, Lock, (int fd, int64_t length, LockOp op, LockFlags flags = {}),        \
    (fd, length, op, flags))                                                                   \
  /* Single-file commit of the calling process's uncommitted records                           \
     (non-transaction processes; the base Locus commit-at-close mechanism). */                 \
  X(Err, CommitFile, (int fd), (fd))                                                           \
  /* Shrinks the file to `size` bytes, durably at once (non-transactional):                    \
     refused with kBusy while any uncommitted records exist on the file, and                   \
     with kInvalid inside a transaction. */                                                    \
  X(Err, Truncate, (int fd, int64_t size), (fd, size))                                         \
  /* Names of the direct children of a directory. */                                           \
  X(Result<std::vector<std::string>>, ReadDir, (const std::string& path), (path))              \
  /* Replica currency of a path (kernel_recon.cc): one row per replica with                    \
     its commit ordinal, quarantine flag, reachability from the caller's                       \
     site, and whether it matches the current maximum. */                                      \
  X(Result<std::vector<ReplicaStatusEntry>>, ReplicaStatus, (const std::string& path), (path)) \
                                                                                               \
  /* ---- Transactions (section 2) ---- */                                                     \
  X(Err, BeginTrans, (), ())                                                                   \
  X(Err, EndTrans, (), ())                                                                     \
  X(Err, AbortTrans, (), ())                                                                   \
                                                                                               \
  /* ---- Processes ---- */                                                                    \
  X(void, WaitChildren, (), ())                                                                \
  X(Err, Migrate, (SiteId to), (to))

// LOCUS_CRASH_POINTS is the one declaration of the points at which a
// SchedulePolicy may crash a site: each row gives the id and the name a
// counterexample trace carries, and its comment places it among the section 4
// log writes. The kernel consults Simulation::AtCrashPoint at each; src/mc
// sweeps every (point, site) occurrence of a run. Rows keep their ids, so a
// recorded trace reads the same: new rows go at the end.
#define LOCUS_CRASH_POINTS(X)                                                                  \
  /* ---- Coordinator (kernel_txn.cc) ---- */                                                  \
  X(kCoordLogWritten, "coord_log_written")          /* After the coordinator log append. */    \
  X(kBeforeCommitMark, "before_commit_mark")        /* Before the commit-mark log update. */   \
  X(kAfterCommitMark, "after_commit_mark")          /* After the commit mark is durable. */    \
  X(kBeforeCommitSend, "before_commit_send")        /* Before sending one commit message. */   \
  /* ---- Participant (kernel.cc) ---- */                                                      \
  X(kBeforePrepareLog, "before_prepare_log")        /* Before the prepare log append. */       \
  X(kAfterPrepareLog, "after_prepare_log")          /* After the prepare record is durable. */ \
  X(kPrepareReplySent, "prepare_reply_sent")        /* After the prepare reply left. */        \
  X(kBeforeCommitInstall, "before_commit_install")  /* Before installing intentions. */        \
  X(kAfterCommitInstall, "after_commit_install")    /* After installing intentions. */

// Rows number from 0 in table order.
enum CrashPoint : int32_t {
#define LOCUS_CRASH_POINT_ENUMERATOR(id, name) id,
  LOCUS_CRASH_POINTS(LOCUS_CRASH_POINT_ENUMERATOR)
#undef LOCUS_CRASH_POINT_ENUMERATOR
};

// The name column of row `point`; "unknown_step" for a number no row has.
const char* CrashPointName(int32_t point);

class Kernel {
 public:
  Kernel(System* system, SiteId site);

  SiteId site() const { return site_; }
  bool alive() const { return alive_; }

  // Attaches a volume hosted at this site. The first volume is the root
  // volume holding this site's coordinator log.
  void AttachVolume(std::unique_ptr<Volume> volume);
  Volume* FindVolume(VolumeId id);
  FileStore* StoreFor(VolumeId id);
  std::vector<Volume*> volumes();

  // Registers one handler per message row; call once after construction.
  void Start();

  // --- Syscall layer (called in the invoking process's context) ---
#define LOCUS_KERNEL_SYSCALL(ret, name, params, args) ret Sys##name LOCUS_SYS_PARAMS params;
#define LOCUS_SYS_PARAMS(...) (OsProcess* p __VA_OPT__(, ) __VA_ARGS__)
  LOCUS_SYSCALLS(LOCUS_KERNEL_SYSCALL)
#undef LOCUS_SYS_PARAMS
#undef LOCUS_KERNEL_SYSCALL
  Result<Pid> SysFork(OsProcess* p, SiteId target_site,
                      std::function<void(OsProcess*)> body);
  // Process teardown; called when a process body returns.
  void SysExit(OsProcess* p);

  // --- Process bootstrap ---
  // Creates a fresh process at this site running `body` (an "init"-spawned
  // program). Returns its pid.
  Pid StartProcess(const std::string& name, std::function<void(OsProcess*)> body);

  ProcessTable& process_table() { return procs_; }
  LockManager& lock_manager() { return locks_; }
  TransactionManager& txn_manager() { return txns_; }
  BufferPool& buffer_pool() { return pool_; }
  // This site's formation queue (src/form); created in Start(). Control-plane
  // protocol messages route through it instead of Network::Send directly.
  FormationQueue& form() { return *form_; }

  // --- Crash / recovery ---
  // Tears down all volatile state; resident processes die. Called by
  // System::CrashSite after the network layer marks the site dead.
  void OnCrash();
  // Reboot-time recovery (section 4.4): rebuild volume allocation from
  // stable inodes plus unresolved prepare intentions, then scan coordinator
  // logs and queue commit/abort completion work.
  void OnReboot();

  // Aborts a transaction whose top-level process lives here. Safe to call
  // multiple times.
  void AbortTransactionLocal(const TxnId& txn, const std::string& reason);

  // --- Replica reintegration (kernel_recon.cc; section 5.2 extended) ---
  // Applies one replica propagation under the version gate: next-in-sequence
  // installs through the shadow-page path, a duplicate is dropped, a gap
  // quarantines this site's replica and starts an out-of-band catch-up.
  // Blocking; kernel process context.
  void ApplyPropagation(const ReplicaPropagateMsg& msg);
  // Applies a fetched committed image atomically (one shadow-page commit).
  // Idempotent: an image at or below the local ordinal is dropped. Blocking.
  Err ApplyCatchup(const FileId& local_file, const ReplicaFetchReply& image);
  // The kReplicaFetchReq service: the whole committed image of a local
  // replica, never torn by a concurrent install. Blocking.
  ReplicaFetchReply Serve(const ReplicaFetchRequest& req);

  // Sizes of the per-transaction and per-process memory this site keeps
  // past a transaction or process (diagnostics; long-run bounds).
  size_t abort_tombstone_count() const { return locally_aborted_.size(); }
  size_t txn_forward_count() const { return txn_forward_.size(); }
  size_t process_forward_count() const { return procs_.forwarding_count(); }

 private:
  friend class System;

  // --- Infrastructure ---
  Simulation& sim();
  Network& net();
  Catalog& catalog();
  StatRegistry& stats();
  // Consumes simulated CPU at this site and attributes it in the stats
  // ("cpu.<site>" in instructions) — the service-time measure of Figure 6.
  void BurnCpu(int64_t instructions);
  // Echoes one trace line (Simulation::set_trace_echo). Call sites whose
  // arguments cost work to build check sim().trace_echo() first.
  void Trace(const char* format, ...) __attribute__((format(printf, 2, 3)));
  // Spawns a tracked kernel process running `body`, any callable that fits
  // a Callback: OnCrash kills it if it is still live. It is named
  // "<site>:<label><number>#<n>" (no number when negative), numbering this
  // site's kernel processes; the name is formatted only if printed, so
  // `label` must be a string literal.
  template <typename F>
  void SpawnKernelProcess(const char* label, F&& body) {
    SpawnKernelProcess(label, -1, std::forward<F>(body));
  }
  template <typename F>
  void SpawnKernelProcess(const char* label, int32_t number, F&& body) {
    TrackKernelProcess(sim().Spawn(ProcessName(site_name_.c_str(), label, number, next_kproc_++),
                                   std::forward<F>(body)));
  }
  void TrackKernelProcess(ProcessHandle p);
  // Crash-injection hook (src/mc): consults the installed SchedulePolicy at a
  // LOCUS_CRASH_POINTS row; if it elects a crash, the site goes down and the
  // calling process unwinds via SimCancelled. No-op with no policy.
  void MaybeCrashAt(CrashPoint point);

  // --- One call path per message row ---
  // A kType request to site `to`: run by the row's Serve in the caller's
  // context when local, sent by the row's route otherwise. Empty when the
  // remote site is unreachable or the call times out.
  template <MsgType kType>
  std::optional<ReplyOf<kType>> Call(SiteId to, RequestOf<kType> req,
                                     int32_t size_bytes = kControlMsgBytes,
                                     SimTime timeout = Network::kDefaultRpcTimeout);
  // The same, one-way: any reply is discarded.
  template <MsgType kType>
  void Post(SiteId to, RequestOf<kType> req, int32_t size_bytes = kControlMsgBytes);
  // Call to the channel's storage site. The first remote exchange on a
  // deferred-open channel carries the open probe in the same batch envelope.
  template <MsgType kType>
  std::optional<ReplyOf<kType>> ChannelCall(Channel& ch, RequestOf<kType> req,
                                            int32_t size_bytes = kControlMsgBytes,
                                            SimTime timeout = Network::kDefaultRpcTimeout);
  // Call to a transaction's top-level site, chasing the forwarding pointers
  // migrations leave (section 4.1) and backing off while the top-level
  // process is in transit (kBusy). `target` ends at the site that gave the
  // returned reply. Empty when a site is unreachable or the attempts run out.
  template <MsgType kType>
  std::optional<ReplyOf<kType>> CallTopLevel(SiteId& target, const RequestOf<kType>& req);
  // Registers the kType handler, which runs Handle in the row's context; a
  // dead site drops the request.
  template <MsgType kType>
  void RegisterHandler();
  // Serve, then reply. Rows with remote-only work specialize it (kernel.cc).
  template <MsgType kType>
  void Handle(const RequestOf<kType>& req, Responder r);
  // Call and Post decide locality themselves; other uses mark work that
  // differs by site in virtual time or event order, each with its reason.
  bool IsLocal(SiteId s) const { return s == site_; }

  // --- Service: one function per message row, run at the serving site ---
  OpenReply Serve(const OpenRequest& req);
  ReadReply Serve(const ReadRequest& req);
  WriteReply Serve(const WriteRequest& req);
  // A local lock request: waits for the grant, denial, or cancellation.
  LockReply Serve(const LockRequest& req);
  Err Serve(const UnlockRequest& req);
  Err Serve(const CommitFileRequest& req);
  // Section 4.3: a failed process's uncommitted records abort and its
  // personal locks release.
  Err Serve(const ReleaseProcessRequest& req);
  PrepareReply Serve(const PrepareRequest& req);
  Err Serve(const CommitTxnRequest& req);
  Err Serve(const AbortTxnAtSiteRequest& req);
  MemberJoinReply Serve(const MemberJoinRequest& req);
  MergeFileListReply Serve(const MergeFileListRequest& req);
  AbortTxnRouteReply Serve(const AbortTxnRouteRequest& req);
  // Kills a process subtree resident here (abort cascade, section 4.3).
  Err Serve(const KillProcessRequest& req);
  void Serve(const ReplicaPropagateMsg& msg);
  // Deadlock-detector support: the wait-for edges at this site.
  WaitEdgesReply Serve(const WaitEdgesRequest&) const { return {locks_.WaitForEdges()}; }
  CreateFileReply Serve(const CreateFileRequest&);
  Err Serve(const RemoveFileRequest& req);
  TxnStatusReply Serve(const TxnStatusRequest& req);
  void Serve(const ReleasePrimaryRequest& req) { MaybeReleasePrimary(req.file); }
  Err Serve(const TruncateRequest& req);
  ReplicaVersionReply Serve(const ReplicaVersionRequest& req);
  // Processes a lock request at the storage site; `done` fires when granted,
  // denied, or cancelled. It holds an RPC responder or a waiter's references.
  using LockReplyFn = Callback<void(LockReply), 32>;
  void ServeLock(const LockRequest& req, LockReplyFn done);

  // --- Requester-side helpers ---
  Result<ByteRange> RequestLock(OsProcess* p, Channel& ch, LockRequest req);
  Err ImplicitLock(OsProcess* p, Channel& ch, const ByteRange& range, LockMode mode);
  LockOwner OwnerOf(const OsProcess* p) const;
  Channel* ChannelFor(OsProcess* p, int fd);
  void NoteUse(OsProcess* p, const Channel& ch);

  // --- Transaction machinery ---
  // Registers a forked child with the transaction's top-level site.
  Err RegisterMember(OsProcess* p, Pid child, SiteId child_site);
  // Storage for one run of the commit path, kept for the next. Several
  // transactions commit, and several prepares run, at a site at once, each
  // blocking on disk and network, so each run takes its own from a pool and
  // gives it back at its end; the coordinator's passes from
  // RunTwoPhaseCommit to its phase-two process. A run cut short by
  // SimCancelled just frees its storage.
  struct CommitScratch {
    std::vector<SiteId> participants;
    // A round's split calls, and the participants phase two must retry.
    std::vector<std::pair<SiteId, CallHandle>> in_flight;
    std::vector<SiteId> still;
    // The coordinator's prepare message for one participant, and a
    // prepare's intentions lists, in volume order.
    PrepareRequest prepare;
    std::vector<IntentionsList> intentions;
    // The files a commit installed, and the pages one install propagates.
    std::vector<FileId> files;
    std::vector<PageUpdate> group_pages;
  };
  std::unique_ptr<CommitScratch> TakeCommitScratch();
  // Empties `scratch` and returns it to the pool.
  void KeepCommitScratch(std::unique_ptr<CommitScratch> scratch);

  Err RunTwoPhaseCommit(OsProcess* p, TxnRecord* record);
  void AbortDuringCommit(TxnRecord* record, uint64_t coord_log_id,
                         const std::vector<SiteId>& prepared_sites);
  // Asynchronous phase two: sends commit messages until every participant
  // in scratch->participants acknowledges, then erases the coordinator log
  // (section 4.2).
  void SpawnPhaseTwo(const TxnId& txn, std::unique_ptr<CommitScratch> scratch, uint64_t log_id);
  // Routes an abort request toward the top-level process's site, following
  // forwarding pointers left by migrations.
  void RouteAbort(const TxnId& txn, const std::string& reason, SiteId first_target = kNoSite);
  // Sends the exiting member's file-list to the top-level site with retries
  // for the in-transit race (section 4.1).
  void SendFileListMerge(OsProcess* p);
  void ClearTxnState(OsProcess* p);
  // Sends the primary-release hints SysClose held back during the process's
  // transaction (formation): called just before the prepare fan-out so each
  // hint shares a batch envelope with the prepare to the same site, and again
  // at transaction teardown / process exit as a catch-all.
  void FlushReleaseHints(OsProcess* p);
  // Clears the file's primary-update-site designation once no update opens,
  // locks, or uncommitted writers remain at this (primary) site, letting
  // replicas serve reads locally again (section 5.2).
  void MaybeReleasePrimary(const FileId& file);
  void HandleTopologyChange();

  // --- Replication (kernel_recon.cc) ---
  // Ships the pages of a committed install group (FileStore reports them to
  // the group's leader) to the file's other replicas; a replica whose site
  // is unreachable is quarantined instead.
  void PropagateReplicas(const FileId& primary, std::span<const PageUpdate> pages);
  // Reports a write of this site's version stamp of replica `path` to the
  // race oracle (observers enabled only). Each replica's stamp is its own
  // state object (sibling replicas apply the primary's propagations
  // independently), so the key carries the owning site: the oracle then
  // verifies no other site touches it without a message chain ordering it.
  void StampReplicaVersion(const std::string& path);
  // One replica of a path, snapshotted from the catalog (whose pointers do
  // not survive the probe calls), with its commit ordinal if it answered.
  struct ReplicaProbe {
    SiteId site;
    FileId file;
    bool stale;
    bool reachable;  // From this site, at probe time.
    std::optional<uint64_t> version;
  };
  // Asks every reachable replica of `entry` for its commit ordinal, in
  // catalog order (the local one without a message). Blocking.
  std::vector<ReplicaProbe> ProbeReplicas(const CatalogEntry& entry);
  // Brings this site's replica of `path` to currency: probes reachable peers
  // for ordinals, fetches from the most current, applies, and lifts the
  // quarantine once a non-quarantined peer vouches for the result. Returns
  // true if the local replica is verified current on return. Blocking.
  bool ReconcileFile(const std::string& path);
  // Reboot-time sweep (blocking; runs inside the recovery kernel process):
  // verifies every local replica of a multi-replica file against its peers
  // and catches up the behind ones. Files whose primary designation is this
  // site are skipped — no commit can have happened while the primary was
  // down, so the local stable state is authoritative.
  void ReconcileAfterReboot();
  // Topology change (event context): if any local replica is quarantined,
  // spawns a catch-up process — this is how a healed partition reconciles.
  void ReconcileStaleReplicas();

  // --- Stable log readers (one per job; sections 4.2, 4.4) ---
  // The prepare record `record_id` on `volume`, or null once it is resolved
  // (erased) — a duplicate commit or abort finds nothing left to do.
  const PrepareLogRecord* PrepareRecord(VolumeId volume, uint64_t record_id);
  // (txn, coordinator) of each prepared transaction whose coordinator is
  // another site, in transaction order.
  std::vector<std::pair<TxnId, SiteId>> PreparedElsewhere();
  // Asks `coordinator` for the outcome of prepared `txn` and commits or
  // aborts it here when decided (presumed abort: a coordinator with no log
  // answers aborted). False when the call failed.
  bool AskOutcome(const TxnId& txn, SiteId coordinator);

  System* system_;
  SiteId site_;
  // This site's name, which its kernel processes' names point to.
  const std::string site_name_;
  // Interned ids of the counters the kernel's service and per-transaction
  // paths bump (stats.h: hot paths bump by id); interned at construction, so
  // counters() lists them even at zero.
  struct Ids {
    StatRegistry::StatId cpu;  // "cpu.<site>", bumped by BurnCpu.
    StatRegistry::StatId txn_begins;
    StatRegistry::StatId txn_nested_begins;
    StatRegistry::StatId txn_committed;
    StatRegistry::StatId txn_committed_trivial;
    StatRegistry::StatId txn_phase2_completed;
    StatRegistry::StatId txn_aborted;
    StatRegistry::StatId txn_aborted_in_commit;
    StatRegistry::StatId txn_merges;
    StatRegistry::StatId txn_merge_retries;
    StatRegistry::StatId sys_opens;
    StatRegistry::StatId sys_locks_granted;
    StatRegistry::StatId lock_cache_hits;
    StatRegistry::StatId lock_implicit;
    StatRegistry::StatId lock_stale_grants_undone;
    StatRegistry::StatId lock_read_denied;
    StatRegistry::StatId lock_write_denied;
    StatRegistry::StatId form_lock_fetches;
    StatRegistry::StatId form_opens_deferred;
    StatRegistry::StatId form_prefetch_hits;
    StatRegistry::StatId fs_service_migrations;
    StatRegistry::StatId proc_exits;
    StatRegistry::StatId proc_forks;
    StatRegistry::StatId proc_remote_forks;
    StatRegistry::StatId proc_killed;
    StatRegistry::StatId proc_migrations;
    StatRegistry::StatId fs_replica_propagations;
    StatRegistry::StatId recon_catchup_pages;
    StatRegistry::StatId recon_duplicate_drops;
    StatRegistry::StatId recon_gap_quarantines;
    StatRegistry::StatId recon_reintegrations;
    StatRegistry::StatId recon_stale_marks;
    StatRegistry::StatId recon_stale_reads_blocked;
  };
  Ids ids_;
  bool alive_ = true;
  ProcessTable procs_;
  LockManager locks_;
  TransactionManager txns_;
  BufferPool pool_;
  std::vector<std::unique_ptr<Volume>> volumes_;
  std::map<VolumeId, std::unique_ptr<FileStore>> stores_;
  // Paths with a reconcile in flight here (the reboot sweep and the gap
  // trigger may race; the second caller backs off). Volatile.
  std::set<std::string> reconciling_;
  // Message formation queue (src/form); created in Start().
  std::unique_ptr<FormationQueue> form_;
  // Coordinator-log record ids by transaction (volatile index of the root
  // volume's stable log). This and the tables below hold the few
  // transactions in flight at this site, in sorted vectors that keep their
  // storage from one transaction to the next.
  FlatMap<TxnId, uint64_t> coordinator_log_index_;
  // Prepared-transaction index: one (txn, volume, prepare log record id)
  // entry per prepare record here (several per volume in the footnote-10
  // per-file fidelity mode), in transaction order and, within one
  // transaction, in log order.
  struct PrepareLogEntry {
    TxnId txn;
    VolumeId volume = kNoVolume;
    uint64_t record_id = 0;
  };
  std::vector<PrepareLogEntry> prepare_log_index_;
  // The first entry of `txn` in prepare_log_index_, or where it would go.
  std::vector<PrepareLogEntry>::const_iterator FirstPrepareLog(const TxnId& txn) const;
  void IndexPrepareLog(const TxnId& txn, VolumeId volume, uint64_t record_id);
  void ForgetPrepareLogs(const TxnId& txn);
  bool HasPrepareLogs(const TxnId& txn) const;
  // The k-th (volume, record id) of `txn` in prepare_log_index_, or nullopt
  // past its last. Resolution walks the records by position and looks each
  // up afresh, for its installs yield and other transactions' prepares may
  // reorganize the index meanwhile.
  std::optional<std::pair<VolumeId, uint64_t>> PrepareLogRef(const TxnId& txn, size_t k) const;
  // Forwarding for migrated transaction records (top-level process moved),
  // forgotten kForgetAfter after the move.
  ExpiringMap<TxnId, SiteId> txn_forward_{kForgetAfter};
  // Transactions with a phase-two driver currently running here.
  FlatSet<TxnId> phase2_active_;
  // Transactions whose local commit/abort resolution is currently executing
  // (it spans blocking disk I/O). Duplicate commit or abort messages —
  // coordinator retries racing participant recovery — must not start a
  // second concurrent resolution: installs would double-free pages.
  FlatSet<TxnId> txn_resolution_in_progress_;
  // Closed channels no process shares, reused by the next open.
  std::vector<std::shared_ptr<Channel>> spare_channels_;
  // Commit-path storage not on loan: at most the most runs ever in flight.
  std::vector<std::unique_ptr<CommitScratch>> spare_commit_scratch_;
  // Abort cascades in flight; AbortTrans waits on these so rollback is
  // visible when the call returns.
  std::map<TxnId, std::shared_ptr<WaitQueue>> abort_done_;
  // Tombstones of transactions aborted at this site. A prepare that was
  // already in flight when the abort arrived consults these before writing
  // its prepare log, closing the window where an aborted transaction could
  // end up locally prepared with its locks already released. Forgotten
  // kForgetAfter after the abort (the value is unused).
  ExpiringMap<TxnId, bool> locally_aborted_{kForgetAfter};
  // Kernel processes spawned here, for OnCrash to kill. Finished entries are
  // swept once the list reaches kernel_procs_sweep_at_.
  static constexpr size_t kMinKernelProcsSweep = 64;
  std::vector<ProcessHandle> kernel_procs_;
  size_t kernel_procs_sweep_at_ = kMinKernelProcsSweep;
  // Records of killed processes. They are kept (not freed) until kernel
  // destruction because their SimProcess threads may still be unwinding and
  // in-flight callbacks may hold pointers.
  std::vector<std::unique_ptr<OsProcess>> retired_;
  uint64_t next_kproc_ = 1;
};

template <MsgType kType>
std::optional<ReplyOf<kType>> Kernel::Call(SiteId to, RequestOf<kType> req,
                                           int32_t size_bytes, SimTime timeout) {
  if (IsLocal(to)) {
    return Serve(req);
  }
  Message msg = MakeMsg<kType>(std::move(req), size_bytes);
  RpcResult res = MsgSpec<kType>::kRoute == Route::kFormation
                      ? form().Call(to, std::move(msg), timeout)
                      : net().Call(site_, to, std::move(msg), timeout);
  if (!res.ok) {
    return std::nullopt;
  }
  return std::move(res.reply.As<ReplyOf<kType>>());
}

template <MsgType kType>
void Kernel::Post(SiteId to, RequestOf<kType> req, int32_t size_bytes) {
  if (IsLocal(to)) {
    Serve(req);
    return;
  }
  Message msg = MakeMsg<kType>(std::move(req), size_bytes);
  if constexpr (MsgSpec<kType>::kRoute == Route::kFormation) {
    form().Send(to, std::move(msg));
  } else {
    net().Send(site_, to, std::move(msg));
  }
}

}  // namespace locus

#endif  // SRC_LOCUS_KERNEL_H_
