// Syscall layer of the Kernel: file, locking, and process system calls.
// Transaction calls live in kernel_txn.cc; storage-site service in kernel.cc.

#include <algorithm>
#include <cassert>

#include "src/locus/kernel.h"
#include "src/locus/system.h"

namespace locus {

LockOwner Kernel::OwnerOf(const OsProcess* p) const {
  if (p->txn.valid()) {
    return LockOwner{p->pid, p->txn};
  }
  return LockOwner{p->pid, kNoTxn};
}

Channel* Kernel::ChannelFor(OsProcess* p, int fd) {
  auto it = p->fds.find(fd);
  return it == p->fds.end() ? nullptr : it->second.get();
}

template <MsgType kType>
std::optional<ReplyOf<kType>> Kernel::ChannelCall(Channel& ch, RequestOf<kType> req,
                                                  int32_t size_bytes, SimTime timeout) {
  if (!ch.open_deferred) {
    return Call<kType>(ch.storage_site, std::move(req), size_bytes, timeout);
  }
  ch.open_deferred = false;
  // The probe is a pure existence check the catalog already vouched for; the
  // request's own outcome (and any later data exchange) subsumes it.
  RpcResult res = form()
                      .Call2(ch.storage_site, MakeMsg<kOpenReq>(OpenRequest{ch.file}),
                             MakeMsg<kType>(std::move(req), size_bytes), timeout)
                      .second;
  if (!res.ok) {
    return std::nullopt;
  }
  return std::move(res.reply.As<ReplyOf<kType>>());
}

void Kernel::NoteUse(OsProcess* p, const Channel& ch) {
  if (p->txn.valid()) {
    p->NoteFileUsed(ch.file, ch.storage_site);
  }
}

// ---------------------------------------------------------------------------
// Namespace

Err Kernel::SysMkdir(OsProcess* p, const std::string& path) {
  (void)p;
  BurnCpu(kSyscallInstructions +
                         kNameResolveInstructionsPerComponent * Catalog::ComponentCount(path));
  return catalog().MakeDir(path) ? Err::kOk : Err::kExists;
}

Err Kernel::SysCreat(OsProcess* p, const std::string& path, int replication) {
  BurnCpu(kSyscallInstructions +
                         kNameResolveInstructionsPerComponent * Catalog::ComponentCount(path));
  if (catalog().Exists(path)) {
    return Err::kExists;
  }
  // Choose replica sites: the caller's site first, then round-robin.
  std::vector<SiteId> sites;
  sites.push_back(p->site);
  for (SiteId s = 0; s < system_->site_count() && static_cast<int>(sites.size()) < replication;
       ++s) {
    if (s != p->site && net().IsAlive(s)) {
      sites.push_back(s);
    }
  }
  std::vector<Replica> replicas;
  for (SiteId s : sites) {
    std::optional<CreateFileReply> created = Call<kCreateFileReq>(s, CreateFileRequest{});
    if (!created || created->err != Err::kOk) {
      continue;  // Keep whatever replicas we managed; a file needs at least one.
    }
    replicas.push_back(Replica{s, created->file});
  }
  if (replicas.empty()) {
    return Err::kUnreachable;
  }
  if (!catalog().CreateFileEntry(path, replicas)) {
    // Lost the create-create race (section 3.4): immediately visible conflict.
    for (const Replica& r : replicas) {
      Post<kRemoveFileReq>(r.site, RemoveFileRequest{r.file});
    }
    return Err::kExists;
  }
  if (system_->observers().enabled()) {
    // Cluster-shared catalog mutation outside the transaction mechanism:
    // feed the happens-before race oracle.
    net().StampLocalEvent(site_);
    system_->observers().OnSharedAccess(net().SiteName(site_), "catalog.entry" + path,
                                        true);
  }
  return Err::kOk;
}

Err Kernel::SysUnlink(OsProcess* p, const std::string& path) {
  (void)p;
  BurnCpu(kSyscallInstructions +
                         kNameResolveInstructionsPerComponent * Catalog::ComponentCount(path));
  const CatalogEntry* entry = catalog().Lookup(path);
  if (entry == nullptr || entry->is_dir) {
    return Err::kNoEnt;
  }
  std::vector<Replica> replicas = entry->replicas;
  if (!catalog().Remove(path)) {
    return Err::kNoEnt;
  }
  if (system_->observers().enabled()) {
    net().StampLocalEvent(site_);
    system_->observers().OnSharedAccess(net().SiteName(site_), "catalog.entry" + path,
                                        true);
  }
  for (const Replica& r : replicas) {
    Post<kRemoveFileReq>(r.site, RemoveFileRequest{r.file});
  }
  return Err::kOk;
}

// ---------------------------------------------------------------------------
// Files

Result<int> Kernel::SysOpen(OsProcess* p, const std::string& path, OpenFlags flags) {
  BurnCpu(kSyscallInstructions +
                         kNameResolveInstructionsPerComponent * Catalog::ComponentCount(path));
  const CatalogEntry* entry = catalog().Lookup(path);
  if (entry == nullptr) {
    return {Err::kNoEnt, -1};
  }
  if (entry->is_dir) {
    return {Err::kInvalid, -1};
  }
  const Replica* replica = flags.write ? catalog().OpenForUpdate(path, p->site)
                                       : catalog().ServingReplica(path, p->site);
  if (replica == nullptr) {
    return {Err::kNoEnt, -1};
  }
  if (!flags.write && replica->site != p->site) {
    // Staleness gate accounting: a co-located replica exists but is
    // quarantined, so the read is served elsewhere until reintegration.
    const Replica* local = catalog().ReplicaAt(path, p->site);
    if (local != nullptr && local->stale) {
      stats().Add(ids_.recon_stale_reads_blocked);
    }
  }
  Err err = Err::kOk;
  // Formation fusion: the catalog (maintained synchronously) already
  // confirmed the replica exists, and the storage site's open is a pure
  // existence probe, so a remote kOpenReq rides in the same batch envelope as
  // the channel's first storage request instead of paying its own round
  // trip (a local open has no envelope to ride). Update opens always lock
  // before touching data, which is what makes the write-open the profitable
  // (and bounded) case.
  bool open_deferred = system_->options().formation && flags.write && !IsLocal(replica->site);
  if (open_deferred) {
    stats().Add(ids_.form_opens_deferred);
  } else {
    std::optional<OpenReply> opened = Call<kOpenReq>(replica->site, OpenRequest{replica->file});
    err = opened ? opened->err : Err::kUnreachable;
  }
  if (err != Err::kOk) {
    if (flags.write) {
      catalog().CloseForUpdate(path);
    }
    return {err, -1};
  }
  std::shared_ptr<Channel> ch;
  if (spare_channels_.empty()) {
    ch = std::make_shared<Channel>();
  } else {
    ch = std::move(spare_channels_.back());
    spare_channels_.pop_back();
  }
  ch->path = path;
  ch->file = replica->file;
  ch->storage_site = replica->site;
  ch->readable = flags.read;
  ch->writable = flags.write;
  ch->append_mode = flags.append;
  ch->open_for_update = flags.write;
  ch->open_deferred = open_deferred;
  int fd = p->next_fd++;
  p->fds[fd] = std::move(ch);
  stats().Add(ids_.sys_opens);
  return {Err::kOk, fd};
}

Err Kernel::SysClose(OsProcess* p, int fd) {
  auto it = p->fds.find(fd);
  if (it == p->fds.end()) {
    return Err::kBadFd;
  }
  std::shared_ptr<Channel> ch = it->second;
  p->fds.erase(it);
  BurnCpu(kSyscallInstructions);
  // Base Locus behaviour: a non-transaction writer's changes commit
  // atomically at close (section 4's single-file commit mechanism).
  if (p->nontxn_dirty.count(ch->file)) {
    Call<kCommitFileReq>(ch->storage_site, CommitFileRequest{ch->file, LockOwner{p->pid, kNoTxn}});
    p->nontxn_dirty.erase(ch->file);
  }
  if (ch.use_count() == 1 && ch->open_for_update) {
    catalog().CloseForUpdate(ch->path);
    // The primary site decides whether the designation can be released
    // (retained locks or uncommitted records may still pin it there).
    if (system_->options().formation && p->txn.valid() && !IsLocal(ch->storage_site)) {
      // The hint is advisory while this transaction retains its locks (the
      // primary stays pinned anyway), so hold it and let it ride the prepare
      // envelope to the same site at commit time. A local release has no
      // envelope to ride.
      p->deferred_release_hints.emplace_back(ch->storage_site, ch->file);
    } else {
      Post<kReleasePrimaryReq>(ch->storage_site, ReleasePrimaryRequest{ch->file});
    }
  }
  if (ch.use_count() == 1) {
    *ch = Channel{};
    spare_channels_.push_back(std::move(ch));  // The next open reuses it.
  }
  return Err::kOk;
}

Result<std::vector<uint8_t>> Kernel::SysRead(OsProcess* p, int fd, int64_t length) {
  BurnCpu(kSyscallInstructions);
  Channel* ch = ChannelFor(p, fd);
  if (ch == nullptr) {
    return {Err::kBadFd, {}};
  }
  if (!ch->readable || length < 0) {
    return {Err::kInvalid, {}};
  }
  if (p->txn.valid() && p->txn_aborted) {
    return {Err::kAborted, {}};
  }
  if (!ch->open_for_update) {
    // Storage-site service may have migrated to a primary update site
    // (section 5.2 footnote 8); re-resolve read service.
    const Replica* replica = catalog().ServingReplica(ch->path, p->site);
    if (replica != nullptr && replica->site != ch->storage_site) {
      if (replica->site != p->site && ch->storage_site == p->site) {
        // Service is leaving this site; if that is because the local replica
        // was quarantined, count the blocked stale read.
        const Replica* local = catalog().ReplicaAt(ch->path, p->site);
        if (local != nullptr && local->stale) {
          stats().Add(ids_.recon_stale_reads_blocked);
        }
      }
      ch->storage_site = replica->site;
      ch->file = replica->file;
      stats().Add(ids_.fs_service_migrations);
    }
  }
  ByteRange range{ch->offset, length};
  Err lock_err = ImplicitLock(p, *ch, range, LockMode::kShared);
  if (lock_err != Err::kOk) {
    return {lock_err, {}};
  }
  // Formation fusion (section 4.3): data shipped with this transaction's lock
  // grant satisfies the read locally. The lock held since the fetch keeps the
  // bytes current; consume-once so any later read revalidates at the store.
  if (!ch->prefetch.empty() && p->txn.valid() && ch->prefetch_txn == p->txn &&
      ch->prefetch_offset == ch->offset &&
      static_cast<int64_t>(ch->prefetch.size()) == length) {
    std::vector<uint8_t> bytes = std::move(ch->prefetch);
    ch->prefetch.clear();
    ch->prefetch_txn = kNoTxn;
    stats().Add(ids_.form_prefetch_hits);
    NoteUse(p, *ch);
    ch->offset += static_cast<int64_t>(bytes.size());
    return {Err::kOk, std::move(bytes)};
  }
  std::optional<ReadReply> reply =
      ChannelCall<kReadReq>(*ch, ReadRequest{ch->file, range, OwnerOf(p)});
  if (!reply) {
    return {Err::kUnreachable, {}};
  }
  if (reply->err != Err::kOk) {
    return {reply->err, {}};
  }
  NoteUse(p, *ch);
  ch->offset += static_cast<int64_t>(reply->bytes.size());
  return {Err::kOk, std::move(reply->bytes)};
}

Err Kernel::SysWrite(OsProcess* p, int fd, const std::vector<uint8_t>& bytes) {
  BurnCpu(kSyscallInstructions);
  Channel* ch = ChannelFor(p, fd);
  if (ch == nullptr) {
    return Err::kBadFd;
  }
  if (!ch->writable) {
    return Err::kAccess;
  }
  if (p->txn.valid() && p->txn_aborted) {
    return Err::kAborted;
  }
  ByteRange range{ch->offset, static_cast<int64_t>(bytes.size())};
  // Section 3.4: a write fully covered by the process's non-transaction lock
  // stays OUTSIDE the transaction envelope — it is attributed to the process
  // (committing at close like any conventional update) and neither acquires
  // a transaction lock nor rolls back with the transaction.
  bool outside_txn = false;
  if (p->txn.valid()) {
    auto cache_it = p->lock_cache.find(ch->file);
    outside_txn = cache_it != p->lock_cache.end() &&
                  cache_it->second.HoldsNonTransaction(range, OwnerOf(p));
  }
  if (!outside_txn) {
    Err lock_err = ImplicitLock(p, *ch, range, LockMode::kExclusive);
    if (lock_err != Err::kOk) {
      return lock_err;
    }
  }
  LockOwner writer = outside_txn ? LockOwner{p->pid, kNoTxn} : OwnerOf(p);
  std::optional<WriteReply> reply =
      ChannelCall<kWriteReq>(*ch, WriteRequest{ch->file, ch->offset, bytes, writer},
                             kControlMsgBytes + static_cast<int32_t>(bytes.size()));
  if (!reply) {
    return Err::kUnreachable;
  }
  if (reply->err != Err::kOk) {
    return reply->err;
  }
  // A write through the channel supersedes any data shipped with a lock
  // grant; drop it rather than serve a stale image.
  ch->prefetch.clear();
  ch->prefetch_txn = kNoTxn;
  if (outside_txn || !p->txn.valid()) {
    // Conventional update: commits at close (or explicit CommitFile).
    p->nontxn_dirty.insert(ch->file);
  } else {
    NoteUse(p, *ch);
  }
  ch->offset += static_cast<int64_t>(bytes.size());
  return Err::kOk;
}

Result<int64_t> Kernel::SysSeek(OsProcess* p, int fd, int64_t offset) {
  Channel* ch = ChannelFor(p, fd);
  if (ch == nullptr) {
    return {Err::kBadFd, 0};
  }
  if (offset < 0) {
    return {Err::kInvalid, 0};
  }
  ch->offset = offset;
  return {Err::kOk, offset};
}

Result<int64_t> Kernel::SysFileSize(OsProcess* p, int fd) {
  Channel* ch = ChannelFor(p, fd);
  if (ch == nullptr) {
    return {Err::kBadFd, 0};
  }
  if (IsLocal(ch->storage_site)) {
    // A plain read of the size: a local open would load the inode.
    return {Err::kOk, StoreFor(ch->file.volume)->WorkingSize(ch->file)};
  }
  std::optional<OpenReply> reply = Call<kOpenReq>(ch->storage_site, OpenRequest{ch->file});
  if (!reply) {
    return {Err::kUnreachable, 0};
  }
  return {reply->err, reply->size};
}

Err Kernel::SysTruncate(OsProcess* p, int fd, int64_t size) {
  BurnCpu(kSyscallInstructions);
  Channel* ch = ChannelFor(p, fd);
  if (ch == nullptr) {
    return Err::kBadFd;
  }
  if (!ch->writable || size < 0) {
    return Err::kAccess;
  }
  if (p->txn.valid()) {
    return Err::kInvalid;  // Truncation is not transactional.
  }
  return Call<kTruncateReq>(ch->storage_site, TruncateRequest{ch->file, size})
      .value_or(Err::kUnreachable);
}

Result<std::vector<std::string>> Kernel::SysReadDir(OsProcess* p, const std::string& path) {
  (void)p;
  BurnCpu(kSyscallInstructions +
          kNameResolveInstructionsPerComponent * Catalog::ComponentCount(path));
  const CatalogEntry* entry = catalog().Lookup(path);
  if (entry == nullptr) {
    return {Err::kNoEnt, {}};
  }
  if (!entry->is_dir) {
    return {Err::kNotDir, {}};
  }
  return {Err::kOk, catalog().List(path)};
}

Result<std::vector<ReplicaStatusEntry>> Kernel::SysReplicaStatus(OsProcess* p,
                                                                 const std::string& path) {
  (void)p;
  BurnCpu(kSyscallInstructions +
          kNameResolveInstructionsPerComponent * Catalog::ComponentCount(path));
  const CatalogEntry* entry = catalog().Lookup(path);
  if (entry == nullptr || entry->is_dir) {
    return {Err::kNoEnt, {}};
  }
  std::vector<ReplicaProbe> probes = ProbeReplicas(*entry);
  uint64_t max_version = 0;
  for (const ReplicaProbe& r : probes) {
    max_version = std::max(max_version, r.version.value_or(0));
  }
  std::vector<ReplicaStatusEntry> rows;
  for (const ReplicaProbe& r : probes) {
    rows.push_back({r.site, r.version.value_or(0), r.stale, r.reachable,
                    r.version.has_value() && !r.stale && *r.version == max_version});
  }
  return {Err::kOk, std::move(rows)};
}

// ---------------------------------------------------------------------------
// Locking

Result<ByteRange> Kernel::RequestLock(OsProcess* p, Channel& ch, LockRequest req) {
  // Largest fetch the storage site is asked to piggyback on a grant: one
  // page's worth, matching the paper's "page arrives with the lock" unit.
  constexpr int64_t kMaxLockFetchBytes = 4096;
  if (system_->options().formation && !IsLocal(ch.storage_site) && req.owner.txn.valid() &&
      !req.non_transaction && !req.append && ch.readable && req.range.length > 0 &&
      req.range.length <= kMaxLockFetchBytes) {
    // Section 4.3 fusion: the storage site ships the locked bytes with the
    // grant, so the transaction's follow-up read of this range completes
    // locally (see SysRead). Valid for shared grants too — the lock itself
    // keeps writers away while it is held. A local grant has no reply
    // envelope to carry them.
    req.fetch_bytes = req.range.length;
  }
  std::optional<LockReply> granted =
      ChannelCall<kLockReq>(ch, req, kControlMsgBytes, Network::kLockCallTimeout);
  if (!granted) {
    // Withdraw the queued request. After a timeout nobody is listening for
    // the grant, and a still-queued entry would later be granted to this
    // (about-to-abort) transaction and wedge the lock at the storage site
    // forever — the reply-side stale-grant undo below never runs because
    // the reply is dropped.
    if (req.owner.txn.valid() && net().Reachable(site_, ch.storage_site)) {
      Post<kAbortTxnAtSiteReq>(ch.storage_site, AbortTxnAtSiteRequest{req.owner.txn});
    }
    return {p->txn_aborted ? Err::kAborted : Err::kUnreachable, {}};
  }
  LockReply& reply = *granted;
  if (reply.err != Err::kOk) {
    if (p->txn.valid() && p->txn_aborted) {
      return {Err::kAborted, {}};
    }
    return {reply.err, {}};
  }
  // Stale grant: a queued request can be granted after its transaction was
  // aborted (the grant raced the abort cascade). Undo it at the storage site
  // so the dead transaction's entry cannot wedge other owners.
  if (req.owner.txn.valid() && (p->txn != req.owner.txn || p->txn_aborted)) {
    Post<kAbortTxnAtSiteReq>(ch.storage_site, AbortTxnAtSiteRequest{req.owner.txn});
    stats().Add(ids_.lock_stale_grants_undone);
    return {Err::kAborted, {}};
  }
  p->CachedLocks(ch.file).Grant(reply.granted, req.owner, req.mode, req.non_transaction);
  p->lock_sites.insert(ch.storage_site);
  if (reply.fetched) {
    // Data shipped with the grant: park it on the channel for the next read
    // of exactly this range (consume-once, invalidated by writes).
    ch.prefetch = std::move(reply.bytes);
    ch.prefetch_offset = reply.granted.start;
    ch.prefetch_txn = req.owner.txn;
  }
  if (system_->observers().enabled()) {
    // The strict-2PL acquire point: the requester accepted the grant into its
    // cache (stale grants were undone above and never reach here).
    system_->observers().OnLockAccepted(net().SiteName(site_), ch.file, reply.granted,
                                    req.owner, req.mode);
  }
  stats().Add(ids_.sys_locks_granted);
  return {Err::kOk, reply.granted};
}

Err Kernel::ImplicitLock(OsProcess* p, Channel& ch, const ByteRange& range, LockMode mode) {
  if (!p->txn.valid()) {
    return Err::kOk;  // Conventional Unix access; enforcement still applies.
  }
  if (p->txn_aborted) {
    return Err::kAborted;
  }
  LockOwner owner = OwnerOf(p);
  // Section 5.1: the cached lock list validates accesses without a
  // storage-site exchange.
  if (!system_->options().disable_lock_cache) {
    auto cache_it = p->lock_cache.find(ch.file);
    if (cache_it != p->lock_cache.end() && cache_it->second.Holds(range, owner, mode)) {
      stats().Add(ids_.lock_cache_hits);
      return Err::kOk;
    }
  }
  LockRequest req;
  req.file = ch.file;
  req.range = range;
  req.owner = owner;
  req.mode = mode;
  req.non_transaction = false;
  req.wait = true;
  stats().Add(ids_.lock_implicit);
  Result<ByteRange> res = RequestLock(p, ch, req);
  if (res.err == Err::kOk) {
    NoteUse(p, ch);
  }
  return res.err;
}

Result<ByteRange> Kernel::SysLock(OsProcess* p, int fd, int64_t length, LockOp op,
                                  LockFlags flags) {
  BurnCpu(kSyscallInstructions);
  Channel* ch = ChannelFor(p, fd);
  if (ch == nullptr) {
    return {Err::kBadFd, {}};
  }
  // Section 3.1 policy: enforced locks can deny access, so locking requires
  // write access to the file.
  if (!ch->writable) {
    return {Err::kAccess, {}};
  }
  if (length <= 0) {
    return {Err::kInvalid, {}};
  }
  if (p->txn.valid() && p->txn_aborted) {
    return {Err::kAborted, {}};
  }
  LockOwner owner = OwnerOf(p);
  ByteRange range{ch->offset, length};

  if (op == LockOp::kUnlock) {
    if (!Call<kUnlockReq>(ch->storage_site, UnlockRequest{ch->file, range, owner})) {
      return {Err::kUnreachable, {}};
    }
    auto cache_it = p->lock_cache.find(ch->file);
    if (cache_it != p->lock_cache.end()) {
      cache_it->second.Unlock(range, owner);
    }
    return {Err::kOk, range};
  }

  LockRequest req;
  req.file = ch->file;
  req.range = range;
  req.owner = owner;
  req.mode = op == LockOp::kShared ? LockMode::kShared : LockMode::kExclusive;
  req.non_transaction = flags.non_transaction;
  req.wait = flags.wait;
  req.append = ch->append_mode;
  Result<ByteRange> res = RequestLock(p, *ch, req);
  if (res.err == Err::kOk) {
    if (ch->append_mode) {
      // Lock-and-extend: position the channel at the newly locked region.
      ch->offset = res.value.start;
    }
    if (p->txn.valid() && !flags.non_transaction) {
      NoteUse(p, *ch);
    }
  }
  return res;
}

Err Kernel::SysCommitFile(OsProcess* p, int fd) {
  BurnCpu(kSyscallInstructions);
  Channel* ch = ChannelFor(p, fd);
  if (ch == nullptr) {
    return Err::kBadFd;
  }
  if (!IsLocal(ch->storage_site)) {
    // Requester-site work for a remote commit: marshalling the dirty records
    // and driving the exchange (Figure 6 measures ~7200 instructions here;
    // the page updates themselves are offloaded to the storage site).
    BurnCpu(kRemoteCommitMarshalInstructions - kSyscallInstructions);
  }
  CommitFileRequest req{ch->file, LockOwner{p->pid, kNoTxn}};
  Err err = Call<kCommitFileReq>(ch->storage_site, req).value_or(Err::kUnreachable);
  if (err == Err::kOk) {
    p->nontxn_dirty.erase(ch->file);
  }
  return err;
}

// ---------------------------------------------------------------------------
// Processes

Pid Kernel::StartProcess(const std::string& name, std::function<void(OsProcess*)> body) {
  auto proc = std::make_unique<OsProcess>();
  proc->pid = system_->AllocPid();
  proc->site = site_;
  proc->children_exited = std::make_unique<WaitQueue>(&sim());
  OsProcess* raw = proc.get();
  procs_.Add(std::move(proc));
  raw->sim_process = sim().Spawn(name, [this, raw, body = std::move(body)] {
    body(raw);
    system_->kernel(raw->site).SysExit(raw);
  });
  return raw->pid;
}

Result<Pid> Kernel::SysFork(OsProcess* p, SiteId target_site,
                            std::function<void(OsProcess*)> body) {
  BurnCpu(kForkInstructions);
  if (target_site < 0 || target_site >= system_->site_count()) {
    return {Err::kInvalid, kNoPid};
  }
  Kernel& target = system_->kernel(target_site);
  if (!IsLocal(target_site)) {
    if (!net().Reachable(site_, target_site)) {
      return {Err::kUnreachable, kNoPid};
    }
    // Ship the process image to the target site.
    sim().Sleep(net().OneWayLatency(kMigrationImageBytes));
    stats().Add(ids_.proc_remote_forks);
    if (!target.alive()) {
      return {Err::kUnreachable, kNoPid};
    }
  }
  Pid child_pid = system_->AllocPid();
  if (p->txn.valid()) {
    // Register the member with the transaction's top-level site before the
    // child starts (section 3.1: all processes created from within a
    // transaction are part of it).
    Err err = RegisterMember(p, child_pid, target_site);
    if (err != Err::kOk) {
      return {err, kNoPid};
    }
  }
  auto child = std::make_unique<OsProcess>();
  child->pid = child_pid;
  child->site = target_site;
  child->parent = p->pid;
  child->txn = p->txn;
  child->txn_nesting = p->txn_nesting;
  child->txn_top_site_hint = p->txn_top_site_hint;
  child->fds = p->fds;  // Shared channels: Unix file-access inheritance.
  child->next_fd = p->next_fd;
  child->children_exited = std::make_unique<WaitQueue>(&sim());
  OsProcess* raw = child.get();
  target.procs_.Add(std::move(child));
  p->children.push_back(child_pid);
  std::string name = net().SiteName(target_site) + ":pid" + std::to_string(child_pid);
  raw->sim_process = sim().Spawn(name, [this, raw, body = std::move(body)] {
    body(raw);
    system_->kernel(raw->site).SysExit(raw);
  });
  stats().Add(ids_.proc_forks);
  return {Err::kOk, child_pid};
}

void Kernel::SysWaitChildren(OsProcess* p) {
  while (!p->children.empty()) {
    p->children_exited->Wait();
  }
}

Err Kernel::SysMigrate(OsProcess* p, SiteId to) {
  BurnCpu(kForkInstructions);
  if (to < 0 || to >= system_->site_count()) {
    return Err::kInvalid;
  }
  if (to == site_) {
    return Err::kOk;
  }
  if (!net().Reachable(site_, to)) {
    return Err::kUnreachable;
  }
  // Brief anti-migration latches (file-list merges in progress) must drain.
  while (p->migration_locks > 0) {
    sim().Sleep(Milliseconds(1));
  }
  p->in_transit = true;
  stats().Add(ids_.proc_migrations);
  // Ship the process image. While in transit, file-list merges aimed at this
  // process are refused with kBusy and retried (section 4.1).
  sim().Sleep(net().OneWayLatency(kMigrationImageBytes));
  Kernel& target = system_->kernel(to);
  if (!net().Reachable(site_, to) || !target.alive()) {
    p->in_transit = false;
    return Err::kUnreachable;
  }
  std::unique_ptr<OsProcess> moved = procs_.Take(p->pid);
  assert(moved != nullptr);
  procs_.SetForwarding(p->pid, to, sim().Now());
  std::unique_ptr<TxnRecord> record;
  if (p->txn.valid() && p->txn_top_level) {
    record = txns_.Take(p->txn);
    txn_forward_.Set(p->txn, to, sim().Now());
  }
  moved->site = to;
  moved->in_transit = false;
  if (p->txn.valid() && p->txn_top_level) {
    moved->txn_top_site_hint = to;
  }
  target.procs_.Add(std::move(moved));
  if (record != nullptr) {
    target.txns_.Install(std::move(record));
    target.txn_forward_.Erase(p->txn);
  }
  Trace("pid %lld migrated to %s", static_cast<long long>(p->pid),
        net().SiteName(to).c_str());
  return Err::kOk;
}

void Kernel::SysExit(OsProcess* p) {
  // Close every channel (committing non-transaction modifications).
  std::vector<int> fds;
  for (const auto& [fd, ch] : p->fds) {
    fds.push_back(fd);
  }
  for (int fd : fds) {
    SysClose(p, fd);
  }
  // Hints SysClose deferred for commit-time batching must not die with the
  // process; the transaction may outlive this member.
  FlushReleaseHints(p);
  if (p->txn.valid()) {
    if (!p->txn_top_level) {
      // Section 4.1: the completing member's file-list merges into the
      // top-level process's list.
      SendFileListMerge(p);
    } else if (p->txn_nesting > 0 && !p->txn_aborted) {
      // Top-level process died inside the transaction: the transaction fails.
      AbortTransactionLocal(p->txn, "top-level process exited inside transaction");
      txns_.Erase(p->txn);
    } else if (txns_.Find(p->txn) != nullptr) {
      txns_.Erase(p->txn);
    }
  }
  // Personal (non-transaction) locks are released everywhere.
  for (SiteId s : p->lock_sites) {
    Post<kReleaseProcessReq>(s, ReleaseProcessRequest{p->pid});
  }
  if (OsProcess* parent = system_->Locate(p->parent)) {
    std::erase(parent->children, p->pid);
    parent->children_exited->NotifyAll();
  }
  stats().Add(ids_.proc_exits);
  procs_.Take(p->pid);  // Destroys the process record.
}

}  // namespace locus
