#include "src/locus/kernel.h"

#include <algorithm>
#include <cassert>
#include <cstdarg>
#include <iterator>
#include <type_traits>

#include "src/locus/system.h"

namespace locus {

Kernel::Kernel(System* system, SiteId site)
    : system_(system),
      site_(site),
      site_name_(system->net().SiteName(site)),
      locks_(&system->stats(), system->net().SiteName(site)),
      txns_(&system->sim(), site),
      pool_(system->options().pool_pages) {
  ids_.cpu = stats().Intern("cpu." + net().SiteName(site));
  ids_.txn_begins = stats().Intern("txn.begins");
  ids_.txn_nested_begins = stats().Intern("txn.nested_begins");
  ids_.txn_committed = stats().Intern("txn.committed");
  ids_.txn_committed_trivial = stats().Intern("txn.committed_trivial");
  ids_.txn_phase2_completed = stats().Intern("txn.phase2_completed");
  ids_.txn_aborted = stats().Intern("txn.aborted");
  ids_.txn_aborted_in_commit = stats().Intern("txn.aborted_in_commit");
  ids_.txn_merges = stats().Intern("txn.merges");
  ids_.txn_merge_retries = stats().Intern("txn.merge_retries");
  ids_.sys_opens = stats().Intern("sys.opens");
  ids_.sys_locks_granted = stats().Intern("sys.locks_granted");
  ids_.lock_cache_hits = stats().Intern("lock.cache_hits");
  ids_.lock_implicit = stats().Intern("lock.implicit");
  ids_.lock_stale_grants_undone = stats().Intern("lock.stale_grants_undone");
  ids_.lock_read_denied = stats().Intern("lock.read_denied");
  ids_.lock_write_denied = stats().Intern("lock.write_denied");
  ids_.form_lock_fetches = stats().Intern("form.lock_fetches");
  ids_.form_opens_deferred = stats().Intern("form.opens_deferred");
  ids_.form_prefetch_hits = stats().Intern("form.prefetch_hits");
  ids_.fs_service_migrations = stats().Intern("fs.service_migrations");
  ids_.proc_exits = stats().Intern("proc.exits");
  ids_.proc_forks = stats().Intern("proc.forks");
  ids_.proc_remote_forks = stats().Intern("proc.remote_forks");
  ids_.proc_killed = stats().Intern("proc.killed");
  ids_.proc_migrations = stats().Intern("proc.migrations");
  locks_.set_auditor(&system->observers());
  txns_.set_auditor(&system->observers());
  pool_.set_auditor(&system->observers());
}

Simulation& Kernel::sim() { return system_->sim(); }
Network& Kernel::net() { return system_->net(); }
Catalog& Kernel::catalog() { return system_->catalog(); }
StatRegistry& Kernel::stats() { return system_->stats(); }

void Kernel::BurnCpu(int64_t instructions) {
  stats().Add(ids_.cpu, instructions);
  sim().BurnInstructions(instructions);
}

void Kernel::Trace(const char* format, ...) {
  va_list args;
  va_start(args, format);
  sim().VTrace(site_name_, format, args);
  va_end(args);
}

void Kernel::AttachVolume(std::unique_ptr<Volume> volume) {
  Volume* raw = volume.get();
  volumes_.push_back(std::move(volume));
  stores_[raw->id()] =
      std::make_unique<FileStore>(&sim(), raw, &pool_, &stats(), net().SiteName(site_));
  stores_[raw->id()]->set_auditor(&system_->observers());
}

Volume* Kernel::FindVolume(VolumeId id) {
  for (auto& v : volumes_) {
    if (v->id() == id) {
      return v.get();
    }
  }
  return nullptr;
}

FileStore* Kernel::StoreFor(VolumeId id) {
  auto it = stores_.find(id);
  return it == stores_.end() ? nullptr : it->second.get();
}

std::vector<Volume*> Kernel::volumes() {
  std::vector<Volume*> out;
  for (auto& v : volumes_) {
    out.push_back(v.get());
  }
  return out;
}

void Kernel::TrackKernelProcess(ProcessHandle p) {
  // Drop finished entries only when the list has doubled since the last
  // sweep: amortized O(1) per spawn, and the list stays within twice the
  // live count at that sweep (or the floor).
  if (kernel_procs_.size() >= kernel_procs_sweep_at_) {
    std::erase_if(kernel_procs_, [](ProcessHandle kp) { return kp.finished(); });
    kernel_procs_sweep_at_ = std::max<size_t>(kMinKernelProcsSweep, 2 * kernel_procs_.size());
  }
  kernel_procs_.push_back(p);
}

void Kernel::MaybeCrashAt(ProtocolStep step) {
  if (!alive_ || !sim().AtCrashPoint(step, site_)) {
    return;
  }
  Trace("crash injected at %s", ProtocolStepName(step));
  system_->CrashSite(site_);
  // CrashSite self-kills the calling process (cancelled_ set, no unwinding);
  // throw so the protocol stops here rather than at the next blocking point.
  throw SimCancelled{};
}

template <MsgType kType>
void Kernel::Handle(const RequestOf<kType>& req, Responder r) {
  if constexpr (std::is_void_v<ReplyOf<kType>>) {
    Serve(req);
  } else {
    r(MakeReply<kType>(Serve(req)));
  }
}

// The reply carries the data: its wire size grows with it.
template <>
void Kernel::Handle<kReadReq>(const ReadRequest& req, Responder r) {
  ReadReply reply = Serve(req);
  int32_t size = kControlMsgBytes + static_cast<int32_t>(reply.bytes.size());
  r(MakeReply<kReadReq>(std::move(reply), size));
}

// The reply waits for the grant; the handler process does not.
template <>
void Kernel::Handle<kLockReq>(const LockRequest& req, Responder r) {
  ServeLock(req, [r](LockReply reply) { r(MakeReply<kLockReq>(std::move(reply))); });
}

// Crash point between the participant's prepare reply and anything after it.
template <>
void Kernel::Handle<kPrepareReq>(const PrepareRequest& req, Responder r) {
  r(MakeReply<kPrepareReq>(Serve(req)));
  MaybeCrashAt(ProtocolStep::kPrepareReplySent);
}

// A remote member join or file-list merge costs the top-level site's
// protocol processing; a local one is a plain call.
template <>
void Kernel::Handle<kMemberJoinReq>(const MemberJoinRequest& req, Responder r) {
  BurnCpu(300);
  r(MakeReply<kMemberJoinReq>(Serve(req)));
}

template <>
void Kernel::Handle<kMergeFileListReq>(const MergeFileListRequest& req, Responder r) {
  BurnCpu(300);
  r(MakeReply<kMergeFileListReq>(Serve(req)));
}

// The reply carries the committed image: its wire size grows with it.
template <>
void Kernel::Handle<kReplicaFetchReq>(const ReplicaFetchRequest& req, Responder r) {
  ReplicaFetchReply reply = Serve(req);
  FileStore* store = StoreFor(req.file.volume);
  int32_t size =
      FetchWireBytes(reply, store != nullptr ? store->page_size() : volumes_[0]->page_size());
  r(MakeReply<kReplicaFetchReq>(std::move(reply), size));
}

template <MsgType kType>
void Kernel::RegisterHandler() {
  net().RegisterHandler(site_, kType, [this](SiteId, Message& msg, Responder r) {
    if (!alive_) {
      return;
    }
    if constexpr (MsgSpec<kType>::kContext == HandlerContext::kInline) {
      Handle<kType>(RequestIn<kType>(msg), r);
    } else {
      SpawnKernelProcess("svc", msg.type,
                         [this, req = std::move(msg.As<RequestOf<kType>>()), r] {
                           Handle<kType>(req, r);
                         });
    }
  });
}

void Kernel::Start() {
  form_ = std::make_unique<FormationQueue>(&net(), &stats(), site_,
                                           system_->options().formation);
  form_->Start();
  if (system_->observers().enabled()) {
    form_->set_shared_access_hook([this](const std::string& key, bool is_write) {
      system_->observers().OnSharedAccess(net().SiteName(site_), key, is_write);
    });
  }

  ReintegrationManager::Env env;
  env.site = site_;
  env.site_name = net().SiteName(site_);
  env.sim = &sim();
  env.net = &net();
  env.catalog = &catalog();
  env.stats = &stats();
  env.store_for = [this](VolumeId v) { return StoreFor(v); };
  env.spawn = [this](const char* label, std::function<void()> body) {
    SpawnKernelProcess(label, std::move(body));
  };
  recon_ = std::make_unique<ReintegrationManager>(std::move(env));

#define LOCUS_REGISTER_HANDLER(type, request, reply, route, context) RegisterHandler<type>();
  LOCUS_MESSAGES(LOCUS_REGISTER_HANDLER)
#undef LOCUS_REGISTER_HANDLER
  net().OnTopologyChange(site_, [this] { HandleTopologyChange(); });
}

// ---------------------------------------------------------------------------
// Service: one function per message row (the transaction control-plane rows
// are in kernel_txn.cc)

OpenReply Kernel::Serve(const OpenRequest& req) {
  FileStore* store = StoreFor(req.file.volume);
  if (store == nullptr) {
    return OpenReply{Err::kNoEnt, 0};
  }
  std::optional<int64_t> size = store->OpenFile(req.file);
  return size.has_value() ? OpenReply{Err::kOk, *size} : OpenReply{Err::kNoEnt, 0};
}

ReadReply Kernel::Serve(const ReadRequest& req) {
  FileStore* store = StoreFor(req.file.volume);
  if (store == nullptr) {
    return ReadReply{Err::kNoEnt, {}};
  }
  if (!locks_.MayRead(req.file, req.range, req.owner)) {
    stats().Add(ids_.lock_read_denied);
    return ReadReply{Err::kAccess, {}};
  }
  // A request from a transaction already aborted at this site raced the
  // abort cascade; serving it would expose rolled-back state.
  if (req.owner.txn.valid() && locally_aborted_.count(req.owner.txn) != 0) {
    return ReadReply{Err::kAborted, {}};
  }
  if (system_->observers().enabled()) {
    system_->observers().OnServeRead(
        net().SiteName(site_), req.file, req.range, req.owner,
        store->TransactionalDirtyOfOthers(req.file, req.range, req.owner));
  }
  return ReadReply{Err::kOk, store->Read(req.file, req.range)};
}

WriteReply Kernel::Serve(const WriteRequest& req) {
  FileStore* store = StoreFor(req.file.volume);
  if (store == nullptr) {
    return WriteReply{Err::kNoEnt, 0};
  }
  ByteRange range{req.offset, static_cast<int64_t>(req.bytes.size())};
  if (!locks_.MayWrite(req.file, range, req.owner)) {
    stats().Add(ids_.lock_write_denied);
    return WriteReply{Err::kAccess, 0};
  }
  if (req.owner.txn.valid() && locally_aborted_.count(req.owner.txn) != 0) {
    return WriteReply{Err::kAborted, 0};
  }
  store->Write(req.file, req.owner, req.offset, req.bytes);
  return WriteReply{Err::kOk, store->WorkingSize(req.file)};
}

LockReply Kernel::Serve(const LockRequest& req) {
  LockReply reply;
  bool done = false;
  WaitQueue wake(&sim());
  ServeLock(req, [&](LockReply r) {
    reply = std::move(r);
    done = true;
    wake.NotifyAll();
  });
  while (!done) {
    wake.Wait();
  }
  return reply;
}

void Kernel::ServeLock(const LockRequest& req, std::function<void(LockReply)> done) {
  BurnCpu(kLockServiceInstructions);
  FileStore* store = StoreFor(req.file.volume);
  if (store == nullptr) {
    LockReply no_ent;
    no_ent.err = Err::kNoEnt;
    done(no_ent);
    return;
  }
  FileId file = req.file;
  LockOwner owner = req.owner;
  bool adopt = owner.txn.valid() && !req.non_transaction;
  LockManager::RangeFn recompute;
  if (req.append) {
    // Section 3.2: append-mode requests are interpreted relative to the end
    // of file, recomputed at every grant attempt — atomically with the grant
    // — so concurrent extenders cannot livelock or overwrite each other.
    int64_t length = req.range.length;
    recompute = [store, file, length] {
      return ByteRange{store->WorkingSize(file), length};
    };
  }
  int64_t fetch_bytes = req.fetch_bytes;
  locks_.Request(file, req.range, owner, req.mode, req.non_transaction, req.wait,
                 [this, store, file, owner, adopt, fetch_bytes, done](bool ok,
                                                                     ByteRange granted) {
                   if (!ok) {
                     LockReply conflict;
                     conflict.err = Err::kConflict;
                     done(conflict);
                     return;
                   }
                   if (adopt) {
                     // Section 3.3 rule 2: dirty uncommitted records under a
                     // new transaction lock now belong to that transaction.
                     for (const ByteRange& piece :
                          store->AdoptDirtyRanges(file, granted, owner)) {
                       locks_.MarkDirtyCovered(file, piece, owner);
                     }
                   }
                   if (system_->options().lock_prefetch) {
                     // Section 5.2 optimization: warm the pool with the
                     // pages the holder is about to touch.
                     store->PrefetchRange(file, granted);
                   }
                   LockReply grant;
                   grant.err = Err::kOk;
                   grant.granted = granted;
                   if (fetch_bytes > 0) {
                     // Section 4.3: ship the locked data with the grant. The
                     // owner holds the lock as of this instant, so ServeRead's
                     // access check (and the audit hook) see a legitimate read.
                     ByteRange fetch{granted.start, std::min(fetch_bytes, granted.length)};
                     ReadReply page = Serve(ReadRequest{file, fetch, owner});
                     if (page.err == Err::kOk) {
                       stats().Add(ids_.form_lock_fetches);
                       grant.fetched = true;
                       grant.bytes = std::move(page.bytes);
                     }
                   }
                   done(grant);
                 },
                 std::move(recompute));
}

Err Kernel::Serve(const UnlockRequest& req) {
  BurnCpu(kLockServiceInstructions);
  locks_.Unlock(req.file, req.range, req.owner);
  return Err::kOk;
}

Err Kernel::Serve(const CommitFileRequest& req) {
  FileStore* store = StoreFor(req.file.volume);
  if (store == nullptr) {
    return Err::kNoEnt;
  }
  IntentionsList intentions = store->CommitWriter(req.file, req.owner);
  PropagateReplicas(req.file, intentions);
  MaybeReleasePrimary(req.file);
  return Err::kOk;
}

void Kernel::MaybeReleasePrimary(const FileId& file) {
  std::optional<std::string> path = catalog().PathOf(file);
  if (!path.has_value()) {
    return;
  }
  const CatalogEntry* entry = catalog().Lookup(*path);
  if (entry == nullptr || entry->update_opens != 0 || entry->update_site != site_) {
    return;
  }
  const LockList* locks = locks_.Find(file);
  if (locks != nullptr && !locks->empty()) {
    return;  // Retained transaction locks still pin the primary here.
  }
  FileStore* store = StoreFor(file.volume);
  if (store != nullptr && store->HasAnyWriters(file)) {
    return;  // Uncommitted records still pin the primary here.
  }
  catalog().ReleasePrimaryIfIdle(*path);
}

PrepareReply Kernel::Serve(const PrepareRequest& req) {
  LockOwner owner{kNoPid, req.txn};
  if (system_->observers().enabled()) {
    system_->observers().OnPrepareRequest(net().SiteName(site_), req.txn);
  }
  if (locally_aborted_.count(req.txn) != 0) {
    return PrepareReply{Err::kAborted};  // The topology protocol aborted it here already.
  }
  // Group this site's intentions by volume: one prepare log per logical
  // volume (section 4.4) unless the footnote-10 per-file fidelity mode is on.
  std::map<VolumeId, std::vector<IntentionsList>> by_volume;
  for (const FileId& file : req.files) {
    FileStore* store = StoreFor(file.volume);
    if (store == nullptr) {
      return PrepareReply{Err::kNoEnt};
    }
    std::optional<IntentionsList> intentions = store->PrepareWriter(file, owner);
    if (intentions.has_value() && !intentions->updates.empty()) {
      by_volume[file.volume].push_back(std::move(*intentions));
    }
  }
  if (locally_aborted_.count(req.txn) != 0) {
    // The abort arrived while we were flushing (the rollback was deferred to
    // us); undo the flush and refuse to prepare.
    for (auto& [vol_id, intentions] : by_volume) {
      for (const IntentionsList& il : intentions) {
        FileStore* store = StoreFor(il.file.volume);
        store->AbortWriter(il.file, owner);
      }
    }
    locks_.ReleaseTransaction(req.txn);
    return PrepareReply{Err::kAborted};
  }
  MaybeCrashAt(ProtocolStep::kBeforePrepareLog);
  for (auto& [vol_id, intentions] : by_volume) {
    Volume* volume = FindVolume(vol_id);
    // One record per volume, or per file in the footnote-10 fidelity mode.
    const size_t per_record = system_->options().prepare_log_per_file ? 1 : intentions.size();
    for (size_t first = 0; first < intentions.size(); first += per_record) {
      auto begin = std::make_move_iterator(intentions.begin() + first);
      uint64_t id = volume->AppendLog(
          PrepareLogRecord{req.txn, req.coordinator, {begin, begin + per_record}},
          "prepare_log");
      if (sim().trace_echo()) {
        Trace("prepare %s -> log record %llu", ToString(req.txn).c_str(),
              static_cast<unsigned long long>(id));
      }
      prepare_log_index_[req.txn].push_back({vol_id, id});
    }
  }
  MaybeCrashAt(ProtocolStep::kAfterPrepareLog);
  if (sim().trace_echo()) {
    Trace("prepared %s (%zu files)", ToString(req.txn).c_str(), req.files.size());
  }
  if (system_->observers().enabled()) {
    system_->observers().OnPrepared(net().SiteName(site_), req.txn);
  }
  return PrepareReply{Err::kOk};
}

Err Kernel::Serve(const CommitTxnRequest& req) {
  const TxnId& txn = req.txn;
  if (system_->observers().enabled()) {
    system_->observers().OnCommitMessage(net().SiteName(site_), txn);
  }
  if (!txn_resolution_in_progress_.insert(txn).second) {
    return Err::kOk;  // A duplicate message raced an in-flight resolution.
  }
  MaybeCrashAt(ProtocolStep::kBeforeCommitInstall);
  LockOwner owner{kNoPid, txn};
  std::vector<FileId> committed_files;
  auto it = prepare_log_index_.find(txn);
  if (it != prepare_log_index_.end()) {
    for (const auto& [vol_id, record_id] : it->second) {
      const PrepareLogRecord* rec = PrepareRecord(vol_id, record_id);
      if (rec == nullptr) {
        continue;  // Duplicate commit message; already resolved (section 4.4).
      }
      if (sim().trace_echo()) {
        Trace("commit %s: installing log record %llu (%zu intentions)",
              ToString(txn).c_str(), static_cast<unsigned long long>(record_id),
              rec->intentions.size());
      }
      for (const IntentionsList& il : rec->intentions) {
        FileStore* store = StoreFor(il.file.volume);
        store->InstallIntentions(il);
        store->FinishWriterCommit(il.file, owner);
        PropagateReplicas(il.file, il);
        committed_files.push_back(il.file);
      }
      FindVolume(vol_id)->EraseLog(record_id);
    }
    prepare_log_index_.erase(txn);
  }
  MaybeCrashAt(ProtocolStep::kAfterCommitInstall);
  // Phase two releases the retained locks (section 4.2).
  locks_.ReleaseTransaction(txn);
  for (const FileId& file : committed_files) {
    MaybeReleasePrimary(file);
  }
  txn_resolution_in_progress_.erase(txn);
  if (sim().trace_echo()) {
    Trace("committed %s locally", ToString(txn).c_str());
  }
  return Err::kOk;
}

Err Kernel::Serve(const AbortTxnAtSiteRequest& req) {
  const TxnId& txn = req.txn;
  if (!txn_resolution_in_progress_.insert(txn).second) {
    return Err::kOk;  // A duplicate message raced an in-flight resolution.
  }
  locally_aborted_.insert(txn);
  LockOwner owner{kNoPid, txn};
  // Prepared state first: roll back via writer state if we still have it
  // (pre-crash) or free the logged shadow pages (post-crash).
  auto it = prepare_log_index_.find(txn);
  if (it != prepare_log_index_.end()) {
    for (const auto& [vol_id, record_id] : it->second) {
      const PrepareLogRecord* rec = PrepareRecord(vol_id, record_id);
      if (rec == nullptr) {
        continue;
      }
      for (const IntentionsList& il : rec->intentions) {
        FileStore* store = StoreFor(il.file.volume);
        if (store->HasUncommitted(il.file, owner)) {
          store->AbortWriter(il.file, owner);
        } else {
          store->DiscardIntentions(il);
        }
      }
      FindVolume(vol_id)->EraseLog(record_id);
    }
    prepare_log_index_.erase(txn);
  }
  // Unprepared uncommitted modifications. A writer mid-prepare-flush cannot
  // be rolled back immediately; retry until every rollback lands — the locks
  // below must NOT be released while transactional dirty data remains.
  std::vector<FileId> touched;
  for (int attempt = 0; attempt < 300; ++attempt) {
    bool all_done = true;
    for (auto& [vol_id, store] : stores_) {
      for (const FileId& file : store->FilesWithUncommitted(owner)) {
        if (store->AbortWriter(file, owner)) {
          touched.push_back(file);
        } else {
          all_done = false;
        }
      }
    }
    if (all_done) {
      break;
    }
    sim().Sleep(Milliseconds(10));
  }
  locks_.ReleaseTransaction(txn);
  for (const FileId& file : touched) {
    MaybeReleasePrimary(file);
  }
  txn_resolution_in_progress_.erase(txn);
  if (sim().trace_echo()) {
    Trace("aborted %s locally", ToString(txn).c_str());
  }
  return Err::kOk;
}

Err Kernel::Serve(const ReleaseProcessRequest& req) {
  LockOwner owner{req.pid, kNoTxn};
  for (auto& [vol_id, store] : stores_) {
    for (const FileId& file : store->FilesWithUncommitted(owner)) {
      store->AbortWriter(file, owner);
    }
  }
  locks_.ReleaseProcess(req.pid);
  return Err::kOk;
}

void Kernel::Serve(const ReplicaPropagateMsg& msg) {
  if (system_->observers().enabled()) {
    std::optional<std::string> path = catalog().PathOf(msg.replica_file);
    if (path.has_value()) {
      // Each replica's version stamp is its own state object (sibling
      // replicas apply the primary's propagations independently), so the key
      // carries the owning site. The race oracle then verifies no *other*
      // site ever touches this stamp without a message chain ordering it.
      net().StampLocalEvent(site_);
      system_->observers().OnSharedAccess(
          net().SiteName(site_), "recon.ver@" + net().SiteName(site_) + *path, true);
    }
  }
  // The version gate (duplicate drop / gap quarantine) and the shadow-page
  // apply live in the reintegration manager.
  recon_->ApplyPropagation(msg);
}

CreateFileReply Kernel::Serve(const CreateFileRequest&) {
  return CreateFileReply{Err::kOk, StoreFor(volumes_[0]->id())->CreateFile()};
}

Err Kernel::Serve(const RemoveFileRequest& req) {
  FileStore* store = StoreFor(req.file.volume);
  if (store != nullptr && store->Exists(req.file)) {
    store->RemoveFile(req.file);
  }
  return Err::kOk;
}

Err Kernel::Serve(const TruncateRequest& req) {
  FileStore* store = StoreFor(req.file.volume);
  if (store == nullptr || !store->Exists(req.file)) {
    return Err::kNoEnt;
  }
  return store->Truncate(req.file, req.size) ? Err::kOk : Err::kBusy;
}

void Kernel::PropagateReplicas(const FileId& primary, const IntentionsList& intentions) {
  if (intentions.updates.empty()) {
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
    net().StampLocalEvent(site_);
    system_->observers().OnSharedAccess(
        net().SiteName(site_), "recon.ver@" + net().SiteName(site_) + *path, true);
  }
  ReplicaPropagateMsg base;
  base.new_size = store->CommittedSize(primary);
  // Stamp the primary's post-install ordinal: the replica-side gate applies
  // this message only in sequence (see ReintegrationManager::ApplyPropagation).
  base.commit_version = store->CommitVersion(primary);
  int32_t total_bytes = kControlMsgBytes;
  for (const PageUpdate& u : intentions.updates) {
    int64_t offset = static_cast<int64_t>(u.page_index) * store->page_size();
    PageRef bytes = MakePage(store->Read(primary, ByteRange{offset, store->page_size()}));
    total_bytes += static_cast<int32_t>(bytes->size());
    base.pages.push_back({u.page_index, std::move(bytes)});
  }
  for (const Replica& r : entry->replicas) {
    if (r.site == site_) {
      continue;
    }
    if (!net().Reachable(site_, r.site)) {
      // The one-way propagation would be dropped on the floor; quarantine the
      // replica so it cannot serve the old image, until reintegration.
      recon_->NotePropagationSkipped(*path, r.site);
      continue;
    }
    ReplicaPropagateMsg msg = base;
    msg.replica_file = r.file;
    Post<kReplicaPropagate>(r.site, std::move(msg), total_bytes);
  }
}

}  // namespace locus
