// Replication layer of the Kernel (section 5.2 extended): page propagation
// from the primary update site, and replica reconciliation and site
// reintegration.
//
// The paper's replication story propagates committed pages to replicas with
// one-way messages, which are silently dropped while the replica's site is
// crashed or partitioned away — after which the replica would serve stale
// committed bytes forever. A primary-copy catch-up scheme closes that gap:
//
//   - every committed install advances a per-file replication ordinal
//     (DiskInode::commit_version), stamped at the primary update site and
//     carried by propagation messages;
//   - a propagation carries committed page images only, never a live
//     writer's uncommitted bytes;
//   - a replica queues the next-in-sequence propagation behind the file's
//     install in flight, so ordinal k+1 installs after k; a duplicate is
//     dropped and a gap quarantines the replica (Catalog's per-replica stale
//     flag) so reads fall through to a current copy;
//   - each kernel reconciles its quarantined or possibly-behind replicas on
//     reboot and on topology change (partition heal), probing peers for their
//     ordinals and fetching the whole committed image from the most current
//     one; the catch-up is applied atomically through the same install
//     queue.
//
// Deviation from Locus: the paper merges diverged partitions after the fact
// (type-specific reconciliation); here updates never happen at a behind
// replica (the primary-update-site rule already routes all writes to one
// site), so reintegration is strictly one-directional catch-up.

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/locus/kernel.h"
#include "src/locus/system.h"

namespace locus {

// ---------------------------------------------------------------------------
// Propagation (primary side) and its version gate (replica side)

void Kernel::PropagateReplicas(const FileId& primary, std::span<const PageUpdate> pages) {
  if (pages.empty()) {
    return;
  }
  std::optional<std::string> path = catalog().PathOf(primary);
  if (!path.has_value()) {
    return;
  }
  CatalogEntry* entry = catalog().Find(*path);
  if (entry == nullptr || entry->replicas.size() < 2) {
    return;
  }
  FileStore* store = StoreFor(primary.volume);
  if (system_->observers().enabled()) {
    StampReplicaVersion(*path);
  }
  ReplicaPropagateMsg base;
  base.new_size = store->CommittedSize(primary);
  // Stamp the primary's post-install ordinal: the replica-side gate applies
  // this message only in sequence (see ApplyPropagation).
  base.commit_version = store->CommitVersion(primary);
  // Committed images only: the working page would carry other writers'
  // uncommitted records. The wire carries each page up to the committed size.
  int32_t total_bytes = kControlMsgBytes;
  for (const PageUpdate& u : pages) {
    int64_t offset = static_cast<int64_t>(u.page_index) * store->page_size();
    total_bytes += static_cast<int32_t>(
        std::clamp<int64_t>(base.new_size - offset, 0, store->page_size()));
    base.pages.push_back({u.page_index, store->CommittedPageImage(primary, u.page_index)});
  }
  for (const Replica& r : entry->replicas) {
    if (r.site == site_) {
      continue;
    }
    if (!net().Reachable(site_, r.site)) {
      // The one-way propagation would be dropped on the floor; quarantine the
      // replica so it cannot serve the old image, until reintegration.
      if (catalog().SetReplicaStale(*path, r.site, true)) {
        stats().Add(ids_.recon_stale_marks);
        Trace("replica of %s at %s missed a commit; quarantined", path->c_str(),
              net().SiteName(r.site).c_str());
      }
      continue;
    }
    ReplicaPropagateMsg msg = base;
    msg.replica_file = r.file;
    Post<kReplicaPropagate>(r.site, std::move(msg), total_bytes);
  }
}

void Kernel::StampReplicaVersion(const std::string& path) {
  net().StampLocalEvent(site_);
  system_->observers().OnSharedAccess(net().SiteName(site_),
                                      "recon.ver@" + net().SiteName(site_) + path, true);
}

void Kernel::Serve(const ReplicaPropagateMsg& msg) {
  if (system_->observers().enabled()) {
    if (std::optional<std::string> path = catalog().PathOf(msg.replica_file)) {
      StampReplicaVersion(*path);
    }
  }
  ApplyPropagation(msg);
}

void Kernel::ApplyPropagation(const ReplicaPropagateMsg& msg) {
  FileStore* store = StoreFor(msg.replica_file.volume);
  if (store == nullptr || !store->Exists(msg.replica_file)) {
    return;
  }
  // The ordinal gate counts installs queued behind the one in flight, so a
  // propagation that arrives while its predecessor installs queues behind it.
  switch (store->InstallReplicaPages(msg.replica_file, msg.commit_version, msg.new_size,
                                     msg.pages, /*catchup=*/false)) {
    case FileStore::ReplicaInstall::kInstalled:
      stats().Add(ids_.fs_replica_propagations);
      return;
    case FileStore::ReplicaInstall::kDuplicate:
      // Redelivery or a redo-driven repeat: the image is already here.
      stats().Add(ids_.recon_duplicate_drops);
      return;
    case FileStore::ReplicaInstall::kGap:
      break;
  }
  // At least one propagation never arrived; the committed image between the
  // local ordinal and this message is unrecoverable from the message stream.
  // Quarantine and catch up out of band instead of applying a hole.
  stats().Add(ids_.recon_gap_quarantines);
  std::optional<std::string> path = catalog().PathOf(msg.replica_file);
  if (path.has_value()) {
    if (catalog().SetReplicaStale(*path, site_, true)) {
      stats().Add(ids_.recon_stale_marks);
    }
    if (!reconciling_.contains(*path)) {
      SpawnKernelProcess("reintegrate", [this, path = *path] { ReconcileFile(path); });
    }
  }
}

// ---------------------------------------------------------------------------
// Storage-site service for a reconciling peer

ReplicaVersionReply Kernel::Serve(const ReplicaVersionRequest& req) {
  ReplicaVersionReply reply;
  FileStore* store = StoreFor(req.file.volume);
  if (store == nullptr || !store->Exists(req.file)) {
    reply.err = Err::kNoEnt;
    return reply;
  }
  // An install's propagation leaves once its descriptor is on disk: a
  // replica is current as soon as it has that ordinal.
  reply.commit_version = store->DurableCommitVersion(req.file);
  reply.committed_size = store->CommittedSize(req.file);
  return reply;
}

ReplicaFetchReply Kernel::Serve(const ReplicaFetchRequest& req) {
  ReplicaFetchReply reply;
  FileStore* store = StoreFor(req.file.volume);
  if (store == nullptr || !store->Exists(req.file)) {
    reply.err = Err::kNoEnt;
    return reply;
  }
  reply.commit_version = store->CommittedImage(req.file, &reply.committed_size, &reply.pages);
  return reply;
}

// ---------------------------------------------------------------------------
// Reconciliation at a behind replica

std::vector<Kernel::ReplicaProbe> Kernel::ProbeReplicas(const CatalogEntry& entry) {
  std::vector<ReplicaProbe> out;
  for (const Replica& r : entry.replicas) {
    out.push_back({r.site, r.file, r.stale, false, std::nullopt});
  }
  for (ReplicaProbe& r : out) {
    r.reachable = net().Reachable(site_, r.site);
    if (!r.reachable) {
      continue;
    }
    std::optional<ReplicaVersionReply> reply =
        Call<kReplicaVersionReq>(r.site, ReplicaVersionRequest{r.file});
    if (reply.has_value() && reply->err == Err::kOk) {
      r.version = reply->commit_version;
    }
  }
  return out;
}

Err Kernel::ApplyCatchup(const FileId& local_file, const ReplicaFetchReply& image) {
  FileStore* store = StoreFor(local_file.volume);
  if (store == nullptr || !store->Exists(local_file)) {
    return Err::kNoEnt;
  }
  if (store->InstallReplicaPages(local_file, image.commit_version, image.committed_size,
                                 image.pages, /*catchup=*/true) ==
      FileStore::ReplicaInstall::kDuplicate) {
    // Duplicate catch-up delivery: already at (or past) this image.
    stats().Add(ids_.recon_duplicate_drops);
    return Err::kOk;
  }
  stats().Add(ids_.recon_catchup_pages,
              std::ranges::count_if(image.pages, [&](const auto& page) {
                return static_cast<int64_t>(page.first) * store->page_size() <
                       image.committed_size;
              }));
  return Err::kOk;
}

bool Kernel::ReconcileFile(const std::string& path) {
  if (!reconciling_.insert(path).second) {
    return false;  // Another reconcile of this path is already in flight.
  }
  bool current = false;
  // A commit can land at the primary while a catch-up round is in flight;
  // loop until a round finds us current (bounded — each round ends at the
  // probed maximum, so staying behind requires fresh commits every round).
  for (int round = 0; round < 4 && !current; ++round) {
    const CatalogEntry* entry = catalog().Lookup(path);
    const Replica* mine = catalog().ReplicaAt(path, site_);
    if (entry == nullptr || mine == nullptr) {
      break;  // Unlinked (or never replicated here) meanwhile.
    }
    FileId local_file = mine->file;
    FileStore* store = StoreFor(local_file.volume);
    if (store == nullptr || !store->Exists(local_file)) {
      break;
    }
    // Only a peer that is not itself quarantined can vouch that "no higher
    // ordinal exists" — two behind replicas in the same partition must not
    // certify each other as current. A replica with no peers needs none.
    std::vector<ReplicaProbe> replicas = ProbeReplicas(*entry);
    // Read after the probe: a propagation that left a peer before its reply
    // did has arrived, and propagations received count once installed.
    uint64_t local = store->InstalledCommitVersion(local_file);
    bool witness = replicas.size() == 1;
    uint64_t best = local;
    SiteId best_site = kNoSite;
    FileId best_file;
    for (const ReplicaProbe& peer : replicas) {
      if (peer.site == site_ || !peer.version.has_value()) {
        continue;
      }
      if (!peer.stale) {
        witness = true;
      }
      if (*peer.version > best) {
        best = *peer.version;
        best_site = peer.site;
        best_file = peer.file;
      }
    }

    if (best_site == kNoSite) {
      // Nobody reachable is ahead of us. Lift the quarantine only with a
      // current witness; otherwise stay quarantined until the topology heals.
      if (witness) {
        if (catalog().SetReplicaStale(path, site_, false)) {
          Trace("reintegration: %s verified current at v%llu", path.c_str(),
                static_cast<unsigned long long>(local));
        }
        current = true;
      }
      break;
    }

    // Behind a reachable peer: quarantine while the catch-up runs so no read
    // is served from the old image meanwhile.
    if (catalog().SetReplicaStale(path, site_, true)) {
      stats().Add(ids_.recon_stale_marks);
    }
    std::optional<ReplicaFetchReply> image = Call<kReplicaFetchReq>(
        best_site, ReplicaFetchRequest{best_file}, kControlMsgBytes, Seconds(30));
    if (!image.has_value() || image->err != Err::kOk) {
      continue;  // Peer lost mid-fetch; the next round re-probes.
    }
    uint64_t before = store->CommitVersion(local_file);
    if (ApplyCatchup(local_file, *image) != Err::kOk) {
      break;
    }
    if (store->CommitVersion(local_file) > before) {
      stats().Add(ids_.recon_reintegrations);
      Trace("reintegration: %s caught up v%llu -> v%llu from %s", path.c_str(),
            static_cast<unsigned long long>(before),
            static_cast<unsigned long long>(store->CommitVersion(local_file)),
            net().SiteName(best_site).c_str());
    }
    // Loop: the next round re-probes and lifts the quarantine via a witness.
  }
  reconciling_.erase(path);
  return current;
}

void Kernel::ReconcileAfterReboot() {
  for (const std::string& path : catalog().ReplicaPathsAt(site_)) {
    const CatalogEntry* entry = catalog().Lookup(path);
    if (entry == nullptr) {
      continue;
    }
    if (entry->update_site == site_) {
      // This site holds the primary designation: no commit can have happened
      // elsewhere while it was down, so the local stable (and possibly
      // in-doubt prepared) state is authoritative.
      continue;
    }
    ReconcileFile(path);
  }
}

void Kernel::ReconcileStaleReplicas() {
  if (!net().IsAlive(site_)) {
    return;
  }
  std::vector<std::string> paths = catalog().StaleReplicaPathsAt(site_);
  std::erase_if(paths, [this](const std::string& p) { return reconciling_.contains(p); });
  if (paths.empty()) {
    return;
  }
  SpawnKernelProcess("reintegrate", [this, paths] {
    for (const std::string& p : paths) {
      ReconcileFile(p);
    }
  });
}

}  // namespace locus
