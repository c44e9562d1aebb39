// Process model: Unix-style processes with transaction membership, shared
// open-file channels, file-lists for two-phase commit, and migration state.
//
// Section 4.1: every process in a transaction carries the transaction id it
// inherited at fork; the kernel keeps a per-process file-list of the files it
// used, stored at the process's current site and migrating with it. Child
// file-lists merge into the top-level process's list at child exit.

#ifndef SRC_PROC_PROCESS_H_
#define SRC_PROC_PROCESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/expiring_map.h"
#include "src/base/flat_map.h"
#include "src/base/ids.h"
#include "src/lock/lock_list.h"
#include "src/net/network.h"
#include "src/sim/simulation.h"

namespace locus {

// How long a site remembers a transaction it aborted, or where a transaction
// or process it no longer hosts went: twice the longest RPC time-out, so a
// message still in flight for it finds the entry.
inline constexpr SimTime kForgetAfter = 2 * Network::kLockCallTimeout;

// An open-file channel (Unix file-table entry). Shared between parent and
// child after fork, so the offset is shared, matching Unix semantics the
// paper leans on ("child processes inherit file access from their parents").
struct Channel {
  std::string path;
  FileId file;                 // Replica actually served (primary if updating).
  SiteId storage_site = kNoSite;
  int64_t offset = 0;
  bool readable = true;
  bool writable = false;
  bool append_mode = false;    // Section 3.2 lock-and-extend mode.
  bool open_for_update = false;
  // Formation: the storage site's open probe has not been sent yet; it rides
  // in the same batch envelope as the channel's first remote lock request.
  bool open_deferred = false;
  // Data shipped with a lock grant (section 4.3), consumed by the next read
  // at exactly this offset/length. Valid only while prefetch_txn still holds
  // the lock it arrived under; any write through the channel invalidates it.
  std::vector<uint8_t> prefetch;
  int64_t prefetch_offset = 0;
  TxnId prefetch_txn = kNoTxn;
};

struct OsProcess {
  Pid pid = kNoPid;
  SiteId site = kNoSite;           // Current residence.
  Pid parent = kNoPid;
  std::vector<Pid> children;       // Live children.

  // Transaction state (section 2): the enclosing transaction and the
  // BeginTrans/EndTrans nesting count.
  TxnId txn = kNoTxn;
  int txn_nesting = 0;
  bool txn_top_level = false;
  bool txn_aborted = false;        // The enclosing transaction was aborted.
  SiteId txn_top_site_hint = kNoSite;  // Last known site of the top-level process.

  // Per-process file-list for two-phase commit (section 4.1).
  std::vector<UsedFile> file_list;

  // Migration: set while the process is between sites; file-list merge
  // messages arriving now are refused and retried (section 4.1's race).
  bool in_transit = false;
  // Short-duration anti-migration latch taken while a merge is applied.
  int migration_locks = 0;

  FlatMap<int, std::shared_ptr<Channel>> fds;
  int next_fd = 3;

  // Requester-side lock cache (section 5.1): grants are cached here so read
  // and write requests validate locally without a storage-site exchange.
  FlatMap<FileId, LockList> lock_cache;
  // Lists emptied when a transaction ended, kept with their storage.
  std::vector<LockList> spare_lock_lists;
  // Files this process has modified outside any transaction; the base Locus
  // single-file commit runs for them at close.
  std::set<FileId> nontxn_dirty;
  // Storage sites where this process may hold personal (non-transaction)
  // locks, released at exit.
  std::set<SiteId> lock_sites;
  // Formation: primary-release hints for channels closed inside a still-open
  // transaction. They are only advisory while the transaction retains its
  // locks, so they wait here and ride the prepare envelopes at commit time.
  std::vector<std::pair<SiteId, FileId>> deferred_release_hints;

  ProcessHandle sim_process;
  std::unique_ptr<WaitQueue> children_exited;  // Signalled on each child exit.

  // The cached lock list of `file`, built on spare storage if it is new.
  LockList& CachedLocks(const FileId& file) {
    auto [it, inserted] = lock_cache.try_emplace(file);
    if (inserted && !spare_lock_lists.empty()) {
      it->second = std::move(spare_lock_lists.back());
      spare_lock_lists.pop_back();
    }
    return it->second;
  }
  // Empties the lock cache, keeping the lists' storage for later grants.
  void ResetLockCache() {
    for (auto& [file, list] : lock_cache) {
      list.Reset();
      spare_lock_lists.push_back(std::move(list));
    }
    lock_cache.clear();
  }

  void NoteFileUsed(const FileId& file, SiteId storage_site) {
    UsedFile uf{file, storage_site};
    for (const UsedFile& existing : file_list) {
      if (existing == uf) {
        return;
      }
    }
    file_list.push_back(uf);
  }
};

// Per-site process table with forwarding pointers for migrated processes.
class ProcessTable {
 public:
  void Add(std::unique_ptr<OsProcess> process);
  // Removes and returns the process record (exit or outbound migration).
  std::unique_ptr<OsProcess> Take(Pid pid);
  OsProcess* Find(Pid pid);
  const OsProcess* Find(Pid pid) const;

  // Forwarding pointer left behind when a process migrates away at virtual
  // time `now`; forgotten kForgetAfter later.
  void SetForwarding(Pid pid, SiteId new_site, SimTime now) {
    forwarding_.Set(pid, new_site, now);
  }
  SiteId ForwardingFor(Pid pid) const;
  size_t forwarding_count() const { return forwarding_.size(); }

  std::vector<OsProcess*> All();
  int count() const { return static_cast<int>(table_.size()); }
  void Clear() { table_.clear(); forwarding_.Clear(); }

 private:
  std::map<Pid, std::unique_ptr<OsProcess>> table_;
  ExpiringMap<Pid, SiteId> forwarding_{kForgetAfter};
};

}  // namespace locus

#endif  // SRC_PROC_PROCESS_H_
