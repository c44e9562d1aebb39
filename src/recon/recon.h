// Replica reconciliation and site reintegration (the "recon" subsystem).
//
// The paper's replication story (section 5.2) propagates committed pages to
// replicas with one-way messages, which are silently dropped while the
// replica's site is crashed or partitioned away — after which the replica
// would serve stale committed bytes forever. This subsystem closes that gap
// with a primary-copy catch-up scheme:
//
//   - every committed install advances a per-file replication ordinal
//     (DiskInode::commit_version), stamped at the primary update site and
//     carried by propagation messages;
//   - a replica applies only the next-in-sequence propagation; a duplicate is
//     dropped and a gap quarantines the replica (Catalog's per-replica stale
//     flag) so reads fall through to a current copy;
//   - the ReintegrationManager at each site reconciles its quarantined or
//     possibly-behind replicas on reboot and on topology change (partition
//     heal), probing peers for their ordinals and fetching the whole
//     committed image from the most current one; the catch-up is applied
//     atomically through the ordinary shadow-page commit path.
//
// Deviation from Locus: the paper merges diverged partitions after the fact
// (type-specific reconciliation); here updates never happen at a behind
// replica (the primary-update-site rule already routes all writes to one
// site), so reintegration is strictly one-directional catch-up.

#ifndef SRC_RECON_RECON_H_
#define SRC_RECON_RECON_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/ids.h"
#include "src/fs/catalog.h"
#include "src/fs/file_store.h"
#include "src/locus/errors.h"
#include "src/locus/messages.h"
#include "src/net/network.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"
#include "src/storage/disk.h"

namespace locus {

// Writer identity under which propagated or fetched committed images are
// applied at a replica site (through the normal shadow-page commit path).
inline constexpr Pid kReplicatorPid = -2;

// The reintegration protocol's payloads (ReplicaVersion*, ReplicaFetch*) are
// rows of the kernel message table in src/locus/messages.h.

// Simulated wire footprint of a fetch reply: control header plus the bytes
// that are meaningful under committed_size (the last page is partial).
int32_t FetchWireBytes(const ReplicaFetchReply& reply, int32_t page_size);

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

// Per-kernel reintegration driver. Constructed by the kernel at Start();
// hooks (Env) keep this library independent of the kernel proper.
class ReintegrationManager {
 public:
  struct Env {
    SiteId site = kNoSite;
    std::string site_name;
    Simulation* sim = nullptr;
    Network* net = nullptr;
    Catalog* catalog = nullptr;
    StatRegistry* stats = nullptr;
    // Resolves a volume id to the site's FileStore (nullptr if not local).
    std::function<FileStore*(VolumeId)> store_for;
    // Spawns a kernel process at the site (tracked; killed on crash);
    // `label`, its name's stem, is a string literal.
    std::function<void(const char* label, std::function<void()>)> spawn;
  };

  explicit ReintegrationManager(Env env);

  // --- Storage-site service (blocking; kernel process context) ---
  ReplicaVersionReply ServeVersion(const ReplicaVersionRequest& req);
  ReplicaFetchReply ServeFetch(const ReplicaFetchRequest& req);

  // Applies one replica propagation under the version gate: next-in-sequence
  // installs through the shadow-page path, a duplicate is dropped, a gap
  // quarantines this site's replica and starts an out-of-band catch-up.
  // Blocking; kernel process context.
  void ApplyPropagation(const ReplicaPropagateMsg& msg);

  // Applies a fetched committed image atomically (one shadow-page commit).
  // Idempotent: an image at or below the local ordinal is dropped. Blocking.
  Err ApplyCatchup(const FileId& local_file, const ReplicaFetchReply& image);

  // Reboot-time sweep (blocking; runs inside the recovery kernel process):
  // verifies every local replica of a multi-replica file against its peers
  // and catches up the behind ones. Files whose primary designation is this
  // site are skipped — no commit can have happened while the primary was
  // down, so the local stable state is authoritative.
  void OnReboot();
  // Topology-change hook (event context): if any local replica is
  // quarantined, spawns a catch-up process — this is how a healed partition
  // reconciles.
  void OnTopologyChange();
  // Volatile teardown at site crash.
  void OnCrash();

  // Brings this site's replica of `path` to currency: probes reachable peers
  // for ordinals, fetches from the most current, applies, and lifts the
  // quarantine once a non-quarantined peer vouches for the result. Returns
  // true if the local replica is verified current on return. Blocking.
  bool ReconcileFile(const std::string& path);

  // ReplicaStatus syscall backend (blocking: probes reachable peers).
  std::vector<ReplicaStatusEntry> CollectStatus(const std::string& path);

  // Called by the primary's propagation path when a replica's site was
  // unreachable and the committed pages could not be shipped: quarantines
  // that replica until reintegration.
  void NotePropagationSkipped(const std::string& path, SiteId replica_site);
  // Called by the open/read path when the staleness gate redirected a read
  // away from a quarantined local replica.
  void NoteStaleReadBlocked();

 private:
  void Trace(const char* format, ...) __attribute__((format(printf, 2, 3)));
  void SpawnReconcile(const std::string& path);

  Env env_;
  // Paths with a reconcile in flight here (the sweep and the gap trigger may
  // race; the second caller backs off). Volatile: cleared on crash.
  std::set<std::string> reconciling_;

  struct Ids {
    StatRegistry::StatId catchup_pages;
    StatRegistry::StatId stale_reads_blocked;
    StatRegistry::StatId reintegrations;
    StatRegistry::StatId stale_marks;
    StatRegistry::StatId duplicate_drops;
    StatRegistry::StatId gap_quarantines;
    StatRegistry::StatId propagations_applied;
  };
  Ids ids_;
};

}  // namespace locus

#endif  // SRC_RECON_RECON_H_
