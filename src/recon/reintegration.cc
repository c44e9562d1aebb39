#include "src/recon/recon.h"

#include <algorithm>
#include <cstdarg>
#include <optional>

namespace locus {

int32_t FetchWireBytes(const ReplicaFetchReply& reply, int32_t page_size) {
  int32_t total = kControlMsgBytes;
  for (const auto& [slot, page] : reply.pages) {
    int64_t start = static_cast<int64_t>(slot) * page_size;
    total += static_cast<int32_t>(
        std::clamp<int64_t>(reply.committed_size - start, 0, page_size));
  }
  return total;
}

ReintegrationManager::ReintegrationManager(Env env) : env_(std::move(env)) {
  ids_.catchup_pages = env_.stats->Intern("recon.catchup_pages");
  ids_.stale_reads_blocked = env_.stats->Intern("recon.stale_reads_blocked");
  ids_.reintegrations = env_.stats->Intern("recon.reintegrations");
  ids_.stale_marks = env_.stats->Intern("recon.stale_marks");
  ids_.duplicate_drops = env_.stats->Intern("recon.duplicate_propagations_dropped");
  ids_.gap_quarantines = env_.stats->Intern("recon.gap_quarantines");
  ids_.propagations_applied = env_.stats->Intern("fs.replica_propagations");
}

void ReintegrationManager::Trace(const char* format, ...) {
  va_list args;
  va_start(args, format);
  env_.sim->VTrace(env_.site_name, format, args);
  va_end(args);
}

ReplicaVersionReply ReintegrationManager::ServeVersion(const ReplicaVersionRequest& req) {
  ReplicaVersionReply reply;
  FileStore* store = env_.store_for(req.file.volume);
  if (store == nullptr || !store->Exists(req.file)) {
    reply.err = Err::kNoEnt;
    return reply;
  }
  reply.commit_version = store->CommitVersion(req.file);
  reply.committed_size = store->CommittedSize(req.file);
  return reply;
}

ReplicaFetchReply ReintegrationManager::ServeFetch(const ReplicaFetchRequest& req) {
  ReplicaFetchReply reply;
  FileStore* store = env_.store_for(req.file.volume);
  if (store == nullptr || !store->Exists(req.file)) {
    reply.err = Err::kNoEnt;
    return reply;
  }
  // The page reads block; re-read the ordinal afterwards and retry if an
  // install landed mid-collection, so the shipped image is never torn.
  for (;;) {
    reply.commit_version = store->CommitVersion(req.file);
    reply.committed_size = store->CommittedSize(req.file);
    reply.pages.clear();
    int32_t slots = static_cast<int32_t>(
        (reply.committed_size + store->page_size() - 1) / store->page_size());
    for (int32_t slot = 0; slot < slots; ++slot) {
      reply.pages.push_back({slot, store->CommittedPageImage(req.file, slot)});
    }
    if (store->CommitVersion(req.file) == reply.commit_version) {
      return reply;
    }
  }
}

void ReintegrationManager::ApplyPropagation(const ReplicaPropagateMsg& msg) {
  FileStore* store = env_.store_for(msg.replica_file.volume);
  if (store == nullptr || !store->Exists(msg.replica_file)) {
    return;
  }
  if (msg.commit_version != 0) {
    uint64_t local = store->CommitVersion(msg.replica_file);
    if (msg.commit_version <= local) {
      // Redelivery or a redo-driven repeat: the image is already here.
      env_.stats->Add(ids_.duplicate_drops);
      return;
    }
    if (msg.commit_version > local + 1) {
      // At least one propagation never arrived; the committed image between
      // `local` and this message is unrecoverable from the message stream.
      // Quarantine and catch up out of band instead of applying a hole.
      env_.stats->Add(ids_.gap_quarantines);
      std::optional<std::string> path = env_.catalog->PathOf(msg.replica_file);
      if (path.has_value()) {
        if (env_.catalog->SetReplicaStale(*path, env_.site, true)) {
          env_.stats->Add(ids_.stale_marks);
        }
        SpawnReconcile(*path);
      }
      return;
    }
  }
  LockOwner replicator{kReplicatorPid, kNoTxn};
  for (const auto& [slot, bytes] : msg.pages) {
    store->Write(msg.replica_file, replicator,
                 static_cast<int64_t>(slot) * store->page_size(), *bytes);
  }
  store->CommitWriter(msg.replica_file, replicator);
  if (msg.commit_version != 0) {
    store->StampCommitVersion(msg.replica_file, msg.commit_version);
  }
  env_.stats->Add(ids_.propagations_applied);
}

Err ReintegrationManager::ApplyCatchup(const FileId& local_file,
                                       const ReplicaFetchReply& image) {
  FileStore* store = env_.store_for(local_file.volume);
  if (store == nullptr || !store->Exists(local_file)) {
    return Err::kNoEnt;
  }
  if (image.commit_version <= store->CommitVersion(local_file)) {
    // Duplicate catch-up delivery: already at (or past) this image.
    env_.stats->Add(ids_.duplicate_drops);
    return Err::kOk;
  }
  LockOwner replicator{kReplicatorPid, kNoTxn};
  int64_t applied_pages = 0;
  for (const auto& [slot, page] : image.pages) {
    int64_t start = static_cast<int64_t>(slot) * store->page_size();
    int64_t len = std::min<int64_t>(store->page_size(), image.committed_size - start);
    if (len <= 0) {
      continue;
    }
    store->Write(local_file, replicator, start,
                 std::vector<uint8_t>(page->begin(), page->begin() + len));
    ++applied_pages;
  }
  store->CommitWriter(local_file, replicator);
  store->StampCommitVersion(local_file, image.commit_version);
  env_.stats->Add(ids_.catchup_pages, applied_pages);
  return Err::kOk;
}

bool ReintegrationManager::ReconcileFile(const std::string& path) {
  if (!reconciling_.insert(path).second) {
    return false;  // Another reconcile of this path is already in flight.
  }
  bool current = false;
  // A commit can land at the primary while a catch-up round is in flight;
  // loop until a round finds us current (bounded — each round ends at the
  // probed maximum, so staying behind requires fresh commits every round).
  for (int round = 0; round < 4 && !current; ++round) {
    const CatalogEntry* entry = env_.catalog->Lookup(path);
    const Replica* mine = env_.catalog->ReplicaAt(path, env_.site);
    if (entry == nullptr || mine == nullptr) {
      break;  // Unlinked (or never replicated here) meanwhile.
    }
    // Snapshot before blocking: catalog pointers do not survive the RPCs.
    FileId local_file = mine->file;
    struct Peer {
      SiteId site;
      FileId file;
      bool stale;
    };
    std::vector<Peer> peers;
    for (const Replica& r : entry->replicas) {
      if (r.site != env_.site) {
        peers.push_back({r.site, r.file, r.stale});
      }
    }
    FileStore* store = env_.store_for(local_file.volume);
    if (store == nullptr || !store->Exists(local_file)) {
      break;
    }
    uint64_t local = store->CommitVersion(local_file);

    // Probe every reachable peer. Only a peer that is not itself quarantined
    // can vouch that "no higher ordinal exists" — two behind replicas in the
    // same partition must not certify each other as current.
    bool witness = peers.empty();
    uint64_t best = local;
    SiteId best_site = kNoSite;
    FileId best_file;
    for (const Peer& peer : peers) {
      if (!env_.net->Reachable(env_.site, peer.site)) {
        continue;
      }
      RpcResult res = env_.net->Call(
          env_.site, peer.site, MakeMsg<kReplicaVersionReq>(ReplicaVersionRequest{peer.file}));
      if (!res.ok) {
        continue;
      }
      const auto& reply = ReplyIn<kReplicaVersionReq>(res.reply);
      if (reply.err != Err::kOk) {
        continue;
      }
      if (!peer.stale) {
        witness = true;
      }
      if (reply.commit_version > best) {
        best = reply.commit_version;
        best_site = peer.site;
        best_file = peer.file;
      }
    }

    if (best_site == kNoSite) {
      // Nobody reachable is ahead of us. Lift the quarantine only with a
      // current witness; otherwise stay quarantined until the topology heals.
      if (witness) {
        if (env_.catalog->SetReplicaStale(path, env_.site, false)) {
          Trace("reintegration: %s verified current at v%llu", path.c_str(),
                static_cast<unsigned long long>(local));
        }
        current = true;
      }
      break;
    }

    // Behind a reachable peer: quarantine while the catch-up runs so no read
    // is served from the old image meanwhile.
    if (env_.catalog->SetReplicaStale(path, env_.site, true)) {
      env_.stats->Add(ids_.stale_marks);
    }
    RpcResult res = env_.net->Call(env_.site, best_site,
                                   MakeMsg<kReplicaFetchReq>(ReplicaFetchRequest{best_file}),
                                   Seconds(30));
    if (!res.ok) {
      continue;  // Peer lost mid-fetch; the next round re-probes.
    }
    const auto& image = ReplyIn<kReplicaFetchReq>(res.reply);
    if (image.err != Err::kOk) {
      continue;
    }
    uint64_t before = store->CommitVersion(local_file);
    if (ApplyCatchup(local_file, image) != Err::kOk) {
      break;
    }
    if (store->CommitVersion(local_file) > before) {
      env_.stats->Add(ids_.reintegrations);
      Trace("reintegration: %s caught up v%llu -> v%llu from %s", path.c_str(),
            static_cast<unsigned long long>(before),
            static_cast<unsigned long long>(store->CommitVersion(local_file)),
            env_.net->SiteName(best_site).c_str());
    }
    // Loop: the next round re-probes and lifts the quarantine via a witness.
  }
  reconciling_.erase(path);
  return current;
}

void ReintegrationManager::OnReboot() {
  for (const std::string& path : env_.catalog->ReplicaPathsAt(env_.site)) {
    const CatalogEntry* entry = env_.catalog->Lookup(path);
    if (entry == nullptr) {
      continue;
    }
    if (entry->update_site == env_.site) {
      // This site holds the primary designation: no commit can have happened
      // elsewhere while it was down, so the local stable (and possibly
      // in-doubt prepared) state is authoritative.
      continue;
    }
    ReconcileFile(path);
  }
}

void ReintegrationManager::OnTopologyChange() {
  if (!env_.net->IsAlive(env_.site)) {
    return;
  }
  std::vector<std::string> paths = env_.catalog->StaleReplicaPathsAt(env_.site);
  std::erase_if(paths, [this](const std::string& p) { return reconciling_.contains(p); });
  if (paths.empty()) {
    return;
  }
  env_.spawn("reintegrate", [this, paths] {
    for (const std::string& p : paths) {
      ReconcileFile(p);
    }
  });
}

void ReintegrationManager::OnCrash() { reconciling_.clear(); }

void ReintegrationManager::SpawnReconcile(const std::string& path) {
  if (reconciling_.contains(path)) {
    return;
  }
  env_.spawn("reintegrate", [this, path] { ReconcileFile(path); });
}

std::vector<ReplicaStatusEntry> ReintegrationManager::CollectStatus(const std::string& path) {
  std::vector<ReplicaStatusEntry> out;
  const CatalogEntry* entry = env_.catalog->Lookup(path);
  if (entry == nullptr || entry->is_dir) {
    return out;
  }
  struct Peer {
    SiteId site;
    FileId file;
    bool stale;
  };
  std::vector<Peer> peers;
  for (const Replica& r : entry->replicas) {
    peers.push_back({r.site, r.file, r.stale});
  }
  std::vector<bool> known(peers.size(), false);
  for (size_t i = 0; i < peers.size(); ++i) {
    ReplicaStatusEntry row;
    row.site = peers[i].site;
    row.stale = peers[i].stale;
    row.reachable = env_.net->Reachable(env_.site, peers[i].site);
    if (peers[i].site == env_.site) {
      FileStore* store = env_.store_for(peers[i].file.volume);
      if (store != nullptr && store->Exists(peers[i].file)) {
        row.commit_version = store->CommitVersion(peers[i].file);
        known[i] = true;
      }
    } else if (row.reachable) {
      RpcResult res =
          env_.net->Call(env_.site, peers[i].site,
                         MakeMsg<kReplicaVersionReq>(ReplicaVersionRequest{peers[i].file}));
      if (res.ok) {
        const auto& reply = ReplyIn<kReplicaVersionReq>(res.reply);
        if (reply.err == Err::kOk) {
          row.commit_version = reply.commit_version;
          known[i] = true;
        }
      }
    }
    out.push_back(row);
  }
  uint64_t max_version = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    if (known[i]) {
      max_version = std::max(max_version, out[i].commit_version);
    }
  }
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].current = known[i] && !out[i].stale && out[i].commit_version == max_version;
  }
  return out;
}

void ReintegrationManager::NotePropagationSkipped(const std::string& path,
                                                 SiteId replica_site) {
  if (env_.catalog->SetReplicaStale(path, replica_site, true)) {
    env_.stats->Add(ids_.stale_marks);
    Trace("replica of %s at %s missed a commit; quarantined", path.c_str(),
          env_.net->SiteName(replica_site).c_str());
  }
}

void ReintegrationManager::NoteStaleReadBlocked() {
  env_.stats->Add(ids_.stale_reads_blocked);
}

}  // namespace locus
