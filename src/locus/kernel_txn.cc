// Transaction layer of the Kernel: BeginTrans/EndTrans/AbortTrans, the
// two-phase commit protocol with its three log levels (section 4.2), the
// abort cascade (section 4.3), control-plane routing that chases migrating
// top-level processes (section 4.1), and crash recovery (section 4.4).

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "src/locus/kernel.h"
#include "src/locus/system.h"

namespace locus {

namespace {
constexpr int kRouteAttempts = 12;

void AddUniqueFiles(std::vector<UsedFile>& dest, const std::vector<UsedFile>& src) {
  for (const UsedFile& f : src) {
    if (std::find(dest.begin(), dest.end(), f) == dest.end()) {
      dest.push_back(f);
    }
  }
}

// The distinct storage sites of `files`, in first-use order.
std::vector<SiteId> ParticipantSites(const std::vector<UsedFile>& files) {
  std::vector<SiteId> sites;
  for (const UsedFile& f : files) {
    if (std::find(sites.begin(), sites.end(), f.storage_site) == sites.end()) {
      sites.push_back(f.storage_site);
    }
  }
  return sites;
}

// The prepare message for one participant: the transaction's files stored there.
PrepareRequest PrepareRequestFor(const TxnRecord& record, SiteId coordinator,
                                 SiteId participant) {
  PrepareRequest req{record.id, coordinator, {}};
  for (const UsedFile& f : record.files) {
    if (f.storage_site == participant) {
      req.files.push_back(f.file);
    }
  }
  return req;
}

}  // namespace

// ---------------------------------------------------------------------------
// Syscalls

Err Kernel::SysBeginTrans(OsProcess* p) {
  BurnCpu(kSyscallInstructions);
  if (p->txn.valid()) {
    // Simple nesting (section 2): composition bumps the nesting count.
    p->txn_nesting++;
    stats().Add(ids_.txn_nested_begins);
    return Err::kOk;
  }
  TxnRecord* record = txns_.Begin(p->pid, net().BootEpoch(site_));
  p->txn = record->id;
  p->txn_nesting = 1;
  p->txn_top_level = true;
  p->txn_aborted = false;
  p->txn_top_site_hint = site_;
  stats().Add(ids_.txn_begins);
  if (sim().trace_echo()) {
    Trace("%s begun by pid %lld", ToString(p->txn).c_str(), static_cast<long long>(p->pid));
  }
  return Err::kOk;
}

Err Kernel::SysEndTrans(OsProcess* p) {
  BurnCpu(kSyscallInstructions);
  if (!p->txn.valid()) {
    return Err::kNoTransaction;
  }
  if (p->txn_nesting > 0) {
    p->txn_nesting--;
  }
  if (p->txn_nesting > 0) {
    return Err::kOk;  // Inner EndTrans of a composed transaction.
  }
  if (!p->txn_top_level) {
    // A member's outermost EndTrans does not commit anything; the member
    // completes (and merges its file-list) at exit.
    return p->txn_aborted ? Err::kAborted : Err::kOk;
  }
  TxnRecord* record = txns_.Find(p->txn);
  if (record == nullptr || p->txn_aborted || record->abort_requested) {
    if (record != nullptr) {
      txns_.Erase(p->txn);
    }
    ClearTxnState(p);
    return Err::kAborted;
  }
  // Fold the top-level process's own file-list into the transaction's.
  AddUniqueFiles(record->files, p->file_list);
  // Section 4.2: commit begins only when all subprocesses have completed.
  txns_.WaitMembersDone(p->txn);
  record = txns_.Find(p->txn);
  if (record == nullptr || p->txn_aborted || record->abort_requested) {
    if (record != nullptr) {
      txns_.Erase(p->txn);
    }
    ClearTxnState(p);
    return Err::kAborted;
  }
  Err err = RunTwoPhaseCommit(p, record);
  ClearTxnState(p);
  return err;
}

Err Kernel::SysAbortTrans(OsProcess* p) {
  BurnCpu(kSyscallInstructions);
  if (!p->txn.valid()) {
    return Err::kNoTransaction;
  }
  TxnId txn = p->txn;
  RouteAbort(txn, "AbortTrans", p->txn_top_site_hint);
  if (p->txn_top_level) {
    // Wait for the local cascade so the rollback is visible on return.
    auto it = abort_done_.find(txn);
    if (it != abort_done_.end()) {
      std::shared_ptr<WaitQueue> done = it->second;
      done->Wait();
    }
    txns_.Erase(txn);
    ClearTxnState(p);
  } else {
    p->txn_aborted = true;  // The cascade will terminate this member shortly.
  }
  return Err::kOk;
}

void Kernel::FlushReleaseHints(OsProcess* p) {
  for (const auto& [s, file] : p->deferred_release_hints) {
    Post<kReleasePrimaryReq>(s, ReleasePrimaryRequest{file});
  }
  p->deferred_release_hints.clear();
}

void Kernel::ClearTxnState(OsProcess* p) {
  FlushReleaseHints(p);
  p->txn = kNoTxn;
  p->txn_nesting = 0;
  p->txn_top_level = false;
  p->txn_aborted = false;
  p->txn_top_site_hint = kNoSite;
  p->file_list.clear();
  p->lock_cache.clear();
}

// ---------------------------------------------------------------------------
// Two-phase commit (coordinator side; runs in the top-level process)

Err Kernel::RunTwoPhaseCommit(OsProcess* p, TxnRecord* record) {
  const TxnId txn = record->id;
  if (record->files.empty()) {
    // Nothing used: trivial commit, no logs (the common nested-composition
    // case where an inner call did all the work of a larger transaction).
    if (system_->observers().enabled()) {
      net().StampLocalEvent(site_);
      system_->observers().OnCommitPoint(net().SiteName(site_), txn, {},
                                     record->active_members);
    }
    txns_.Erase(txn);
    stats().Add(ids_.txn_committed_trivial);
    return Err::kOk;
  }
  BurnCpu(kTwoPhaseCommitInstructions);
  record->phase = TxnRecord::Phase::kPreparing;
  std::vector<SiteId> participants = ParticipantSites(record->files);
  std::sort(participants.begin(), participants.end());

  // Step 1: the coordinator log, naming every file and storage site, with the
  // status marker initially unknown.
  Volume* root = volumes_[0].get();
  CoordinatorLogRecord coord{txn, TxnStatus::kUnknown, record->files};
  // Presumed abort: the begin record need not hit disk before prepares go
  // out — losing it in a crash reads back as "no decision", which recovery
  // treats as abort. The commit mark's force below covers it.
  uint64_t log_id = root->AppendLog(coord, "coordinator_log", Volume::LogForce::kLazy);
  coordinator_log_index_[txn] = log_id;
  MaybeCrashAt(ProtocolStep::kCoordLogWritten);

  // Step 2: prepare messages to every participant site. With formation on,
  // the close-time primary-release hints go out first (they merge into the
  // prepare envelopes below) and the remote prepares are issued as split
  // calls — all requests leave in one flush window, so the prepare phase
  // costs one round trip instead of one per participant.
  FlushReleaseHints(p);
  std::vector<SiteId> prepared;
  Err failure = Err::kOk;
  if (system_->options().formation) {
    // Remote prepares first (they are non-blocking to issue), then the local
    // participant's prepare — its log force overlaps the replies in flight.
    std::vector<std::pair<SiteId, uint64_t>> in_flight;
    std::vector<SiteId> local_sites;
    for (SiteId s : participants) {
      if (record->abort_requested) {
        failure = Err::kAborted;
        break;
      }
      if (IsLocal(s)) {
        local_sites.push_back(s);  // Prepared after every remote request is out.
        continue;
      }
      uint64_t id =
          form().BeginCall(s, MakeMsg<kPrepareReq>(PrepareRequestFor(*record, site_, s)));
      if (id == 0) {
        failure = Err::kUnreachable;
        break;
      }
      in_flight.emplace_back(s, id);
    }
    for (SiteId s : local_sites) {
      if (failure != Err::kOk || record->abort_requested) {
        break;
      }
      Err err = Serve(PrepareRequestFor(*record, site_, s)).err;
      if (err == Err::kOk) {
        prepared.push_back(s);
      } else {
        failure = err;
      }
    }
    // Every begun call must be finished, failure or not, so the pending-call
    // records are reaped.
    for (const auto& [s, id] : in_flight) {
      RpcResult res = form().FinishCall(id);
      Err err = res.ok ? ReplyIn<kPrepareReq>(res.reply).err : Err::kUnreachable;
      if (err == Err::kOk) {
        prepared.push_back(s);
      } else if (failure == Err::kOk) {
        failure = err;
      }
    }
  } else {
    for (SiteId s : participants) {
      if (record->abort_requested) {
        failure = Err::kAborted;
        break;
      }
      std::optional<PrepareReply> reply =
          Call<kPrepareReq>(s, PrepareRequestFor(*record, site_, s));
      Err err = reply ? reply->err : Err::kUnreachable;
      if (err != Err::kOk) {
        failure = err;
        break;
      }
      prepared.push_back(s);
    }
  }
  if (failure != Err::kOk || record->abort_requested) {
    AbortDuringCommit(record, log_id, participants);
    return Err::kAborted;
  }

  // Step 3: the commit point — the status marker flips to committed. An
  // abort cascade landing during this disk write must not discard the
  // prepared intentions: the mark may still reach disk, and phase two would
  // then install shadow pages that were already freed and reused. The
  // commit_marking flag makes AbortTransactionLocal defer; once the mark is
  // durable the commit simply wins.
  MaybeCrashAt(ProtocolStep::kBeforeCommitMark);
  record->commit_marking = true;
  coord.status = TxnStatus::kCommitted;
  root->UpdateLog(log_id, std::move(coord), "commit_mark");
  record->commit_marking = false;
  MaybeCrashAt(ProtocolStep::kAfterCommitMark);
  if (system_->observers().enabled()) {
    net().StampLocalEvent(site_);
    std::vector<std::string> participant_names;
    for (SiteId s : participants) {
      participant_names.push_back(net().SiteName(s));
    }
    system_->observers().OnCommitPoint(net().SiteName(site_), txn, participant_names,
                                   record->active_members);
  }
  stats().Add(ids_.txn_committed);
  if (sim().trace_echo()) {
    Trace("%s committed (%zu participants)", ToString(txn).c_str(), participants.size());
  }

  // Step 4: phase two runs asynchronously in a kernel process; EndTrans
  // returns at the commit point (section 6.1's I/O accounting depends on
  // this split).
  txns_.Erase(txn);
  SpawnPhaseTwo(txn, participants, log_id);
  (void)p;
  return Err::kOk;
}

void Kernel::SpawnPhaseTwo(const TxnId& txn, std::vector<SiteId> participants,
                           uint64_t log_id) {
  if (!phase2_active_.insert(txn).second) {
    return;  // A driver for this transaction is already running here.
  }
  if (system_->observers().enabled()) {
    // Recovery and topology-change re-drives reach here without passing the
    // commit-mark hook (the mark is already durable); re-declare the
    // decision. Idempotent for the normal path.
    net().StampLocalEvent(site_);
    system_->observers().OnCommitPoint(net().SiteName(site_), txn, {}, 1);
  }
  SpawnKernelProcess("phase2", [this, txn, participants, log_id] {
    std::vector<SiteId> remaining = participants;
    int idle_rounds = 0;
    while (!remaining.empty() && idle_rounds < 200) {
      std::vector<SiteId> still;
      if (system_->options().formation) {
        // Split calls: all commit notices leave in one flush window instead
        // of one round trip per participant.
        std::vector<std::pair<SiteId, uint64_t>> in_flight;
        for (SiteId s : remaining) {
          MaybeCrashAt(ProtocolStep::kBeforeCommitSend);
          if (IsLocal(s)) {
            Serve(CommitTxnRequest{txn});  // Installs while the remote notices fly.
            continue;
          }
          uint64_t id = form().BeginCall(s, MakeMsg<kCommitTxnReq>(CommitTxnRequest{txn}));
          if (id == 0) {
            still.push_back(s);
            continue;
          }
          in_flight.emplace_back(s, id);
        }
        for (const auto& [s, id] : in_flight) {
          if (!form().FinishCall(id).ok) {
            still.push_back(s);
          }
        }
      } else {
        for (SiteId s : remaining) {
          MaybeCrashAt(ProtocolStep::kBeforeCommitSend);
          if (!Call<kCommitTxnReq>(s, CommitTxnRequest{txn})) {
            still.push_back(s);
          }
        }
      }
      remaining = std::move(still);
      if (!remaining.empty()) {
        idle_rounds++;
        sim().Sleep(Milliseconds(300));
      }
    }
    phase2_active_.erase(txn);
    if (remaining.empty()) {
      // All participants installed their intentions; the coordinator log has
      // served its purpose (section 4.4: retained until completion).
      volumes_[0]->EraseLog(log_id);
      coordinator_log_index_.erase(txn);
      stats().Add(ids_.txn_phase2_completed);
    }
    // Otherwise the log stays; recovery or a topology change re-drives it.
  });
}

void Kernel::AbortDuringCommit(TxnRecord* record, uint64_t coord_log_id,
                               const std::vector<SiteId>& participants) {
  const TxnId txn = record->id;
  if (system_->observers().enabled()) {
    system_->observers().OnAbortDecision(net().SiteName(site_), txn);
  }
  Volume* root = volumes_[0].get();
  // Presumed abort: the abort mark may stay unforced; a crash losing it
  // leaves no decision on disk, which is read as abort anyway.
  root->UpdateLog(coord_log_id, CoordinatorLogRecord{txn, TxnStatus::kAborted, record->files},
                  "abort_mark", Volume::LogForce::kLazy);
  for (SiteId s : participants) {
    Call<kAbortTxnAtSiteReq>(s, AbortTxnAtSiteRequest{txn});
  }
  root->EraseLog(coord_log_id);
  coordinator_log_index_.erase(txn);
  txns_.Erase(txn);
  stats().Add(ids_.txn_aborted_in_commit);
  if (sim().trace_echo()) {
    Trace("%s aborted during commit", ToString(txn).c_str());
  }
}

// ---------------------------------------------------------------------------
// Abort cascade (section 4.3)

void Kernel::AbortTransactionLocal(const TxnId& txn, const std::string& reason) {
  TxnRecord* record = txns_.Find(txn);
  if (record == nullptr || record->abort_requested) {
    return;
  }
  record->abort_requested = true;
  record->abort_reason = reason;
  stats().Add(ids_.txn_aborted);
  if (sim().trace_echo()) {
    Trace("%s abort requested: %s", ToString(txn).c_str(), reason.c_str());
  }

  if (record->commit_marking && !system_->options().test_disable_commit_marking_guard) {
    // The coordinator is blocked on the commit-mark log write. Tearing state
    // down from here would discard prepared intentions whose shadow pages the
    // still-landing commit mark legitimately installs in phase two — after
    // the pages were freed and reused. The transaction is past its last
    // abort_requested check, so the commit wins; leave all teardown to the
    // coordinator. (Members have already exited — the coordinator passed
    // WaitMembersDone before preparing.)
    txns_.WakeBarrier(txn);
    return;
  }
  if (system_->observers().enabled()) {
    system_->observers().OnAbortDecision(net().SiteName(site_), txn);
  }

  std::vector<UsedFile> files = record->files;
  OsProcess* top = procs_.Find(record->top_pid);
  if (top != nullptr) {
    top->txn_aborted = true;
    AddUniqueFiles(files, top->file_list);
  }
  txns_.WakeBarrier(txn);
  std::vector<std::pair<Pid, SiteId>> members = record->members;
  Pid top_pid = record->top_pid;
  record->members.clear();
  record->active_members = 1;
  auto done = std::make_shared<WaitQueue>(&sim());
  abort_done_[txn] = done;

  SpawnKernelProcess("abort-cascade", [this, txn, files, members, top_pid, done] {
    // Roll back file state and release locks at every involved site.
    std::vector<SiteId> sites{site_};
    for (const UsedFile& f : files) {
      if (std::find(sites.begin(), sites.end(), f.storage_site) == sites.end()) {
        sites.push_back(f.storage_site);
      }
    }
    for (const auto& [pid, msite] : members) {
      if (std::find(sites.begin(), sites.end(), msite) == sites.end()) {
        sites.push_back(msite);
      }
    }
    for (SiteId s : sites) {
      Call<kAbortTxnAtSiteReq>(s, AbortTxnAtSiteRequest{txn});
    }
    // The abort cascades down the process tree: members are terminated.
    for (const auto& [pid, msite] : members) {
      if (pid != top_pid) {
        Post<kKillProcessReq>(msite, KillProcessRequest{pid, txn});
      }
    }
    abort_done_.erase(txn);
    done->NotifyAll();
  });
}

Err Kernel::Serve(const KillProcessRequest& req) {
  const Pid pid = req.pid;
  const TxnId& txn = req.txn;
  OsProcess* p = procs_.Find(pid);
  if (p == nullptr) {
    SiteId forward = procs_.ForwardingFor(pid);
    if (forward != kNoSite && net().Reachable(site_, forward)) {
      Post<kKillProcessReq>(forward, req);
    }
    return Err::kOk;
  }
  if (!p->txn.valid() || p->txn != txn) {
    return Err::kOk;  // Stale kill; the process moved on.
  }
  sim().Kill(p->sim_process);
  for (SiteId s : p->lock_sites) {
    // Back-to-back control messages to one site: the formation queue turns
    // these into a single wire message when enabled.
    Post<kReleaseProcessReq>(s, ReleaseProcessRequest{pid});
    // The member may hold (or be queued for) transaction locks at sites the
    // abort cascade did not visit — its file-list never merged. Clear them.
    if (IsLocal(s)) {
      // In its own process: the rollback may block, and the kill must not.
      SpawnKernelProcess("abort-locks", [this, txn] { Serve(AbortTxnAtSiteRequest{txn}); });
    } else {
      Post<kAbortTxnAtSiteReq>(s, AbortTxnAtSiteRequest{txn});
    }
  }
  if (OsProcess* parent = system_->Locate(p->parent)) {
    std::erase(parent->children, pid);
    parent->children_exited->NotifyAll();
  }
  retired_.push_back(procs_.Take(pid));
  stats().Add(ids_.proc_killed);
  return Err::kOk;
}

// ---------------------------------------------------------------------------
// Control-plane routing (chases the migrating top-level process)

MemberJoinReply Kernel::Serve(const MemberJoinRequest& req) {
  TxnRecord* record = txns_.Find(req.txn);
  if (record == nullptr) {
    auto it = txn_forward_.find(req.txn);
    return MemberJoinReply{Err::kNoEnt, it == txn_forward_.end() ? kNoSite : it->second};
  }
  if (record->abort_requested) {
    return MemberJoinReply{Err::kAborted, kNoSite};
  }
  OsProcess* top = procs_.Find(record->top_pid);
  if (top != nullptr && top->in_transit) {
    return MemberJoinReply{Err::kBusy, kNoSite};
  }
  txns_.MemberJoined(req.txn);
  record->members.push_back({req.member, req.member_site});
  return MemberJoinReply{Err::kOk, kNoSite};
}

MergeFileListReply Kernel::Serve(const MergeFileListRequest& req) {
  TxnRecord* record = txns_.Find(req.txn);
  if (record == nullptr) {
    auto it = txn_forward_.find(req.txn);
    return MergeFileListReply{Err::kNoEnt, it == txn_forward_.end() ? kNoSite : it->second};
  }
  OsProcess* top = procs_.Find(record->top_pid);
  if (top == nullptr) {
    return MergeFileListReply{Err::kNoEnt, kNoSite};
  }
  if (top->in_transit) {
    // Section 4.1: the top-level process is migrating; the sender retries.
    stats().Add(ids_.txn_merge_retries);
    return MergeFileListReply{Err::kBusy, kNoSite};
  }
  // Latch the process against migration for the (short) apply duration.
  top->migration_locks++;
  BurnCpu(250);
  txns_.MemberExited(req.txn, req.files);
  std::erase_if(record->members,
                [&](const auto& m) { return m.first == req.exiting_member; });
  top->migration_locks--;
  stats().Add(ids_.txn_merges);
  return MergeFileListReply{Err::kOk, kNoSite};
}

AbortTxnRouteReply Kernel::Serve(const AbortTxnRouteRequest& req) {
  if (txns_.Find(req.txn) != nullptr) {
    AbortTransactionLocal(req.txn, req.reason);
    return AbortTxnRouteReply{Err::kOk, kNoSite};
  }
  auto it = txn_forward_.find(req.txn);
  return AbortTxnRouteReply{Err::kNoEnt, it == txn_forward_.end() ? kNoSite : it->second};
}

TxnStatusReply Kernel::Serve(const TxnStatusRequest& req) {
  // Presumed abort unless the STABLE coordinator log says otherwise (the
  // volatile index may not be rebuilt yet right after a reboot) or the
  // transaction is still active here / migrated elsewhere.
  TxnStatus status = TxnStatus::kAborted;
  for (const auto& [id, rec] : volumes_[0]->stable_log()) {
    if (const auto* coord = std::get_if<CoordinatorLogRecord>(&rec.payload)) {
      if (coord->txn == req.txn) {
        status = coord->status;
        break;
      }
    }
  }
  if (status == TxnStatus::kAborted &&
      (txns_.Find(req.txn) != nullptr || txn_forward_.count(req.txn) != 0)) {
    status = TxnStatus::kUnknown;  // Active or migrated: not yet decided.
  }
  return TxnStatusReply{static_cast<int>(status)};
}

template <MsgType kType>
std::optional<ReplyOf<kType>> Kernel::CallTopLevel(SiteId& target, const RequestOf<kType>& req) {
  for (int attempt = 0; attempt < kRouteAttempts; ++attempt) {
    std::optional<ReplyOf<kType>> reply = Call<kType>(target, req);
    if (!reply) {
      return std::nullopt;
    }
    if (reply->err == Err::kBusy) {
      sim().Sleep(Milliseconds(5));
      continue;
    }
    if (reply->err != Err::kOk && reply->forward != kNoSite) {
      target = reply->forward;
      continue;
    }
    return reply;
  }
  return std::nullopt;
}

Err Kernel::RegisterMember(OsProcess* p, Pid child, SiteId child_site) {
  SiteId target = p->txn_top_site_hint != kNoSite ? p->txn_top_site_hint : p->txn.site;
  std::optional<MemberJoinReply> reply =
      CallTopLevel<kMemberJoinReq>(target, MemberJoinRequest{p->txn, child, child_site});
  if (!reply) {
    return Err::kUnreachable;
  }
  if (reply->err != Err::kOk) {
    return Err::kAborted;  // Aborted, or the transaction is gone.
  }
  p->txn_top_site_hint = target;
  return Err::kOk;
}

void Kernel::SendFileListMerge(OsProcess* p) {
  // Unreachable: the topology protocol aborts the transaction; any other
  // failure means it resolved or aborted without this member.
  SiteId target = p->txn_top_site_hint != kNoSite ? p->txn_top_site_hint : p->txn.site;
  CallTopLevel<kMergeFileListReq>(target, MergeFileListRequest{p->txn, p->pid, p->file_list});
}

void Kernel::RouteAbort(const TxnId& txn, const std::string& reason, SiteId first_target) {
  SiteId target = first_target != kNoSite ? first_target : txn.site;
  CallTopLevel<kAbortTxnRouteReq>(target, AbortTxnRouteRequest{txn, reason});
}

// ---------------------------------------------------------------------------
// Stable log readers (sections 4.2, 4.4)

const PrepareLogRecord* Kernel::PrepareRecord(VolumeId volume, uint64_t record_id) {
  const std::map<uint64_t, LogRecord>& log = FindVolume(volume)->stable_log();
  auto it = log.find(record_id);
  return it == log.end() ? nullptr : std::get_if<PrepareLogRecord>(&it->second.payload);
}

std::vector<std::pair<TxnId, SiteId>> Kernel::PreparedElsewhere() {
  std::vector<std::pair<TxnId, SiteId>> out;
  for (const auto& [txn, records] : prepare_log_index_) {
    if (records.empty()) {
      continue;
    }
    const PrepareLogRecord* prep = PrepareRecord(records[0].first, records[0].second);
    if (prep != nullptr && prep->coordinator != site_) {
      out.push_back({txn, prep->coordinator});
    }
  }
  return out;
}

bool Kernel::AskOutcome(const TxnId& txn, SiteId coordinator) {
  std::optional<TxnStatusReply> reply = Call<kTxnStatusReq>(coordinator, TxnStatusRequest{txn});
  if (!reply) {
    return false;
  }
  auto status = static_cast<TxnStatus>(reply->status);
  if (status == TxnStatus::kCommitted) {
    Serve(CommitTxnRequest{txn});
  } else if (status == TxnStatus::kAborted) {
    Serve(AbortTxnAtSiteRequest{txn});
  }
  // kUnknown: still deciding; the coordinator will tell us.
  return true;
}

// ---------------------------------------------------------------------------
// Topology changes, crash, recovery (sections 4.3-4.4)

void Kernel::HandleTopologyChange() {
  if (!alive_) {
    return;
  }
  stats().Add("net.topology_changes_seen");
  // Abort transactions coordinated here that span now-unreachable sites.
  for (TxnRecord* record : txns_.ActiveTransactions()) {
    bool lost = false;
    for (const UsedFile& f : record->files) {
      if (!net().Reachable(site_, f.storage_site)) {
        lost = true;
      }
    }
    for (const auto& [pid, msite] : record->members) {
      if (!net().Reachable(site_, msite)) {
        lost = true;
      }
    }
    if (lost) {
      AbortTransactionLocal(record->id, "topology change");
    }
  }
  // Locally held locks and uncommitted state of foreign transactions whose
  // home is unreachable: abort unless already prepared (a prepared
  // participant must block for the coordinator — standard two-phase commit).
  for (const TxnId& txn : locks_.TransactionsWithLocks()) {
    if (txn.site == site_ || prepare_log_index_.count(txn) != 0) {
      continue;
    }
    if (!net().Reachable(site_, txn.site)) {
      SpawnKernelProcess("topo-abort", [this, txn] { Serve(AbortTxnAtSiteRequest{txn}); });
    }
  }
  // Resident members of transactions whose home is unreachable die; orphaned
  // waits on children at dead sites unblock.
  for (OsProcess* p : procs_.All()) {
    if (p->txn.valid() && !p->txn_top_level) {
      SiteId home = p->txn_top_site_hint != kNoSite ? p->txn_top_site_hint : p->txn.site;
      if (!net().Reachable(site_, home)) {
        Pid pid = p->pid;
        TxnId txn = p->txn;
        SpawnKernelProcess("topo-kill", [this, pid, txn] {
          Serve(AbortTxnAtSiteRequest{txn});
          Serve(KillProcessRequest{pid, txn});
        });
      }
    }
    std::vector<Pid> children = p->children;
    bool lost_child = false;
    for (Pid child : children) {
      if (system_->Locate(child) == nullptr) {
        std::erase(p->children, child);
        lost_child = true;
      }
    }
    if (lost_child) {
      p->children_exited->NotifyAll();
    }
  }
  // Re-drive phase two for committed transactions whose participants were
  // unreachable (the coordinator is responsible for completion).
  for (const auto& [txn, log_id] : coordinator_log_index_) {
    if (phase2_active_.count(txn) != 0) {
      continue;
    }
    auto log_it = volumes_[0]->stable_log().find(log_id);
    if (log_it == volumes_[0]->stable_log().end()) {
      continue;
    }
    const auto* coord = std::get_if<CoordinatorLogRecord>(&log_it->second.payload);
    if (coord != nullptr && coord->status == TxnStatus::kCommitted) {
      SpawnPhaseTwo(txn, ParticipantSites(coord->files), log_id);
    }
  }
  // Presumed-abort inquiry: a prepared participant whose coordinator rebooted
  // may never be told an outcome — the coordinator's begin record is written
  // lazily (its force rides the commit mark), so a crash before the mark
  // leaves the rebooted coordinator with no memory of the transaction and
  // nothing to re-drive. When the coordinator is reachable after a topology
  // change, ask; a coordinator with no stable record answers abort
  // (section 4.4), while one mid-commit answers unknown and we wait.
  for (const auto& [txn_ref, coordinator_ref] : PreparedElsewhere()) {
    if (!net().Reachable(site_, coordinator_ref)) {
      continue;
    }
    TxnId txn = txn_ref;
    SiteId coordinator = coordinator_ref;
    SpawnKernelProcess("txn-inquire", [this, txn, coordinator] {
      // The coordinator may still be mid-recovery (its handlers drop requests
      // until the volatile indexes are rebuilt), so retry for a while.
      for (int attempt = 0; attempt < 50; ++attempt) {
        if (prepare_log_index_.count(txn) == 0) {
          return;  // Resolved while this process was waiting.
        }
        if (!net().Reachable(site_, coordinator)) {
          return;  // Gone again; the next topology change restarts the inquiry.
        }
        if (AskOutcome(txn, coordinator)) {
          return;
        }
        sim().Sleep(Milliseconds(300));
      }
    });
  }
  // Partition heal / peer reboot: catch up any quarantined local replicas.
  if (recon_ != nullptr) {
    recon_->OnTopologyChange();
  }
}

void Kernel::OnCrash() {
  alive_ = false;
  for (OsProcess* p : procs_.All()) {
    sim().Kill(p->sim_process);
    // Retire rather than free: the dying threads may still be unwinding.
    retired_.push_back(procs_.Take(p->pid));
  }
  procs_.Clear();
  for (ProcessHandle kp : kernel_procs_) {
    sim().Kill(kp);
  }
  kernel_procs_.clear();
  if (system_->observers().enabled()) {
    std::vector<int32_t> volume_ids;
    for (const auto& v : volumes_) {
      volume_ids.push_back(v->id());
    }
    system_->observers().OnSiteCrash(net().SiteName(site_), volume_ids);
  }
  locks_.Clear();
  txns_.Clear();
  pool_.Clear();
  for (auto& v : volumes_) {
    v->OnCrash();
  }
  for (auto& [id, store] : stores_) {
    store->OnCrash();
  }
  if (form_ != nullptr) {
    form_->OnCrash();
  }
  coordinator_log_index_.clear();
  prepare_log_index_.clear();
  txn_forward_.clear();
  phase2_active_.clear();
  abort_done_.clear();
  txn_resolution_in_progress_.clear();
  locally_aborted_.clear();
  if (recon_ != nullptr) {
    recon_->OnCrash();
  }
  stats().Add("sys.crashes");
}

void Kernel::OnReboot() {
  // Message service stays down (handlers silently drop requests, so senders
  // retry) until local recovery has rebuilt the volatile indexes. Otherwise
  // a commit message could land before the prepare-log index exists and be
  // mistaken for a duplicate of an already-resolved transaction — the
  // coordinator would then erase its log and the committed intentions would
  // be orphaned.
  txns_.set_boot_epoch(net().BootEpoch(site_));
  stats().Add("sys.reboots");
  SpawnKernelProcess("recovery", [this] {
    // Per-volume recovery: rebuild allocation bitmaps from stable inodes plus
    // the shadow pages named by unresolved prepare records (section 4.4: the
    // log decides which pages are freed and which kept).
    for (auto& v : volumes_) {
      v->disk().Read(1, "recovery_scan");
      std::vector<PageId> live;
      for (const auto& [id, rec] : v->stable_log()) {
        if (const auto* prep = std::get_if<PrepareLogRecord>(&rec.payload)) {
          if (sim().trace_echo()) {
            Trace("recovery: prepare record %llu for %s",
                  static_cast<unsigned long long>(id), ToString(prep->txn).c_str());
          }
          prepare_log_index_[prep->txn].push_back({v->id(), id});
          for (const IntentionsList& il : prep->intentions) {
            for (PageId page : FileStore::PagesNamedBy(il)) {
              live.push_back(page);
            }
            // Re-acquire the transaction's locks from the logged lock-list
            // information (section 4.2: the prepare log stores "enough of
            // the intentions lists and lock lists ... to guarantee that the
            // files can be committed"). Without this, a new transaction
            // could read the pre-commit value of a committed record while
            // its redo install is still in flight — a lost update. The
            // locks release when the transaction resolves.
            LockOwner owner{kNoPid, prep->txn};
            for (const ByteRange& range : il.ranges) {
              locks_.Request(il.file, range, owner, LockMode::kExclusive,
                             /*non_transaction=*/false, /*wait=*/false,
                             [](bool granted, ByteRange) { (void)granted; });
            }
          }
        }
      }
      v->RecoverAllocation(live);
    }
    // Volatile indexes are rebuilt: service can resume.
    alive_ = true;
    // Coordinator-side recovery: every retained coordinator log is replayed —
    // committed transactions re-enter phase two, others are aborted.
    std::vector<std::pair<uint64_t, CoordinatorLogRecord>> coords;
    for (const auto& [id, rec] : volumes_[0]->stable_log()) {
      if (const auto* c = std::get_if<CoordinatorLogRecord>(&rec.payload)) {
        coords.push_back({id, *c});
      }
    }
    for (auto& [log_id, coord] : coords) {
      coordinator_log_index_[coord.txn] = log_id;
      std::vector<SiteId> participants = ParticipantSites(coord.files);
      if (coord.status == TxnStatus::kCommitted) {
        if (sim().trace_echo()) {
          Trace("recovery: re-driving commit of %s", ToString(coord.txn).c_str());
        }
        SpawnPhaseTwo(coord.txn, participants, log_id);
      } else {
        if (sim().trace_echo()) {
          Trace("recovery: aborting %s", ToString(coord.txn).c_str());
        }
        if (system_->observers().enabled()) {
          system_->observers().OnAbortDecision(net().SiteName(site_), coord.txn);
        }
        for (SiteId s : participants) {
          Call<kAbortTxnAtSiteReq>(s, AbortTxnAtSiteRequest{coord.txn});
        }
        volumes_[0]->EraseLog(log_id);
        coordinator_log_index_.erase(coord.txn);
      }
    }
    // Participant-side recovery for prepared transactions whose coordinator
    // is elsewhere: ask for the outcome (presumed abort when the coordinator
    // has no log).
    for (const auto& [txn, coordinator] : PreparedElsewhere()) {
      // An unreachable coordinator leaves the transaction blocked here until
      // it comes back (or a later message resolves it).
      if (net().Reachable(site_, coordinator)) {
        AskOutcome(txn, coordinator);
      }
    }
    // Replica reintegration: local replicas may have missed propagations
    // while this site was down; verify each against its peers and catch up
    // (section 5.2 extended — see src/recon).
    recon_->OnReboot();
    stats().Add("recovery.completed");
  });
}

}  // namespace locus
