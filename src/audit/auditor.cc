#include "src/audit/auditor.h"

#include <algorithm>

#include "src/sim/simulation.h"

namespace locus {

namespace {

constexpr size_t kTrailCapacity = 64;  // Events kept for violation context.
constexpr size_t kTrailAttached = 8;   // Events attached to each report.

// The auditor formats owners/modes itself: lock_list.cc is part of
// locus_lock, which links against locus_audit, and a reverse dependency
// would cycle.
std::string OwnerText(const LockOwner& o) {
  std::string out = "pid " + std::to_string(o.pid);
  if (o.txn.valid()) {
    out += " " + ToString(o.txn);
  }
  return out;
}

const char* ModeText(LockMode mode) {
  switch (mode) {
    case LockMode::kUnix:
      return "unix";
    case LockMode::kShared:
      return "shared";
    case LockMode::kExclusive:
      return "exclusive";
  }
  return "?";
}

uint64_t Fnv1a(const uint8_t* data, size_t len) {
  uint64_t hash = 14695981039346656037ull;
  for (size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

const char* AuditKindName(AuditKind kind) {
  switch (kind) {
    case AuditKind::kUnlockedWrite:
      return "unlocked-write";
    case AuditKind::kUnlockedRead:
      return "unlocked-read";
    case AuditKind::kAcquireAfterRelease:
      return "acquire-after-release";
    case AuditKind::kDirtyReadVisible:
      return "dirty-read-visible";
    case AuditKind::kPrematureInstall:
      return "premature-install";
    case AuditKind::kDiscardAfterCommit:
      return "discard-after-commit";
    case AuditKind::kAbortEffectAfterCommit:
      return "abort-effect-after-commit";
    case AuditKind::kSingleFileCommitInTxn:
      return "single-file-commit-in-txn";
    case AuditKind::kPrepareAfterCommit:
      return "prepare-after-commit";
    case AuditKind::kCommitBeforeDecision:
      return "commit-before-decision";
    case AuditKind::kCommitAfterAbort:
      return "commit-after-abort";
    case AuditKind::kAbortAfterCommit:
      return "abort-after-commit";
    case AuditKind::kCommitUnprepared:
      return "commit-unprepared-participant";
    case AuditKind::kCommitActiveMembers:
      return "commit-with-active-members";
    case AuditKind::kCachedPageMutated:
      return "cached-page-mutated";
  }
  return "?";
}

std::string AuditReport::ToString() const {
  std::string out = "AUDIT VIOLATION [";
  out += AuditKindName(kind);
  out += "] " + locus::ToString(txn);
  if (!site.empty()) {
    out += " at " + site;
  }
  if (file.valid()) {
    out += " " + locus::ToString(file);
  }
  if (!range.empty()) {
    out += " " + locus::ToString(range);
  }
  if (!detail.empty()) {
    out += ": " + detail;
  }
  for (const std::string& line : trail) {
    out += "\n    | " + line;
  }
  return out;
}

ProtocolAuditor::ProtocolAuditor(Simulation* sim, StatRegistry* stats, bool enabled)
    : ProtocolObserver(enabled),
      sim_(sim),
      stats_(stats),
      // Interned at construction so counters() reports them even at zero.
      ids_{stats->Intern("audit.checks"), stats->Intern("audit.violations")} {}

int ProtocolAuditor::CountKind(AuditKind kind) const {
  return static_cast<int>(std::count_if(violations_.begin(), violations_.end(),
                                        [&](const AuditReport& r) { return r.kind == kind; }));
}

std::string ProtocolAuditor::Summary() const {
  std::string out;
  for (const AuditReport& r : violations_) {
    out += r.ToString();
    out += "\n";
  }
  return out;
}

ProtocolAuditor::TxnState& ProtocolAuditor::StateOf(const TxnId& txn) { return txns_[txn]; }

void ProtocolAuditor::Event(const std::string& site, std::string text) {
  std::string line = "t=" + std::to_string(ToMilliseconds(sim_->Now())) + "ms " + site + ": " +
                     std::move(text);
  if (trail_.size() >= kTrailCapacity) {
    trail_.pop_front();
  }
  trail_.push_back(std::move(line));
}

void ProtocolAuditor::Violate(AuditKind kind, const TxnId& txn, const std::string& site,
                              const FileId& file, const ByteRange& range, std::string detail) {
  stats_->Add(ids_.violations);
  AuditReport report;
  report.kind = kind;
  report.txn = txn;
  report.site = site;
  report.file = file;
  report.range = range;
  report.detail = std::move(detail);
  size_t n = std::min(trail_.size(), kTrailAttached);
  report.trail.assign(trail_.end() - static_cast<long>(n), trail_.end());
  sim_->Trace("audit", "%s", report.ToString().c_str());
  violations_.push_back(std::move(report));
}

// ---------------------------------------------------------------------------
// Shadow lock model

void ProtocolAuditor::CarveShadow(const FileId& file, const ByteRange& range,
                                  const LockOwner& owner) {
  auto it = shadow_locks_.find(file);
  if (it == shadow_locks_.end()) {
    return;
  }
  std::vector<ShadowLock> next;
  next.reserve(it->second.size());
  for (const ShadowLock& e : it->second) {
    if (!LockOwner{e.pid, e.txn}.SameAs(owner) || !e.range.Overlaps(range)) {
      next.push_back(e);
      continue;
    }
    for (const ByteRange& rest : e.range.Subtract(range)) {
      ShadowLock piece = e;
      piece.range = rest;
      next.push_back(piece);
    }
  }
  it->second = std::move(next);
}

std::vector<ByteRange> ProtocolAuditor::Uncovered(const FileId& file, const ByteRange& range,
                                                  const LockOwner& owner,
                                                  LockMode mode) const {
  std::vector<ByteRange> uncovered{range};
  auto it = shadow_locks_.find(file);
  if (it == shadow_locks_.end()) {
    return uncovered;
  }
  for (const ShadowLock& e : it->second) {
    if (!LockOwner{e.pid, e.txn}.SameAs(owner)) {
      continue;
    }
    // Mirrors LockList::Holds: an exclusive entry satisfies either mode; a
    // shared entry satisfies only shared.
    bool strong_enough =
        e.mode == LockMode::kExclusive || (e.mode == mode && mode == LockMode::kShared);
    if (!strong_enough) {
      continue;
    }
    std::vector<ByteRange> next;
    for (const ByteRange& piece : uncovered) {
      for (const ByteRange& rest : piece.Subtract(e.range)) {
        next.push_back(rest);
      }
    }
    uncovered = std::move(next);
    if (uncovered.empty()) {
      break;
    }
  }
  return uncovered;
}

void ProtocolAuditor::OnLockGranted(const std::string& site, const FileId& file,
                                    const ByteRange& range, const LockOwner& owner,
                                    LockMode mode, bool non_transaction) {
  Check();
  CarveShadow(file, range, owner);
  shadow_locks_[file].push_back(
      ShadowLock{range, owner.pid, owner.txn, mode, non_transaction});
  Event(site, "grant " + ToString(range) + " " + ModeText(mode) + " to " + OwnerText(owner) +
                  " on " + ToString(file));
}

void ProtocolAuditor::OnUnlock(const FileId& file, const ByteRange& range,
                               const LockOwner& owner) {
  Check();
  // Transaction locks become retained, dirty-covered process locks stay
  // retained, plain locks drop — none satisfies coverage afterwards, so the
  // shadow model simply carves the range out.
  CarveShadow(file, range, owner);
  Event("-", "unlock " + ToString(range) + " by " + OwnerText(owner) + " on " +
                 ToString(file));
}

void ProtocolAuditor::OnTxnLocksReleased(const std::string& site, const TxnId& txn,
                                         const std::vector<FileId>& files) {
  Check();
  for (const FileId& file : files) {
    auto it = shadow_locks_.find(file);
    if (it == shadow_locks_.end()) {
      continue;
    }
    std::erase_if(it->second, [&](const ShadowLock& e) { return e.txn == txn; });
  }
  StateOf(txn).locks_released = true;
  Event(site, "released all locks of " + ToString(txn));
}

void ProtocolAuditor::OnProcessLocksReleased(Pid pid,
                                             const std::vector<FileId>& files) {
  Check();
  for (const FileId& file : files) {
    auto it = shadow_locks_.find(file);
    if (it == shadow_locks_.end()) {
      continue;
    }
    std::erase_if(it->second,
                  [&](const ShadowLock& e) { return e.pid == pid && !e.txn.valid(); });
  }
  Event("-", "released all locks of pid " + std::to_string(pid));
}

void ProtocolAuditor::OnSiteCrash(const std::string& site,
                                  const std::vector<int32_t>& volumes) {
  Check();
  // Lock tables at the crashed site are volatile: coverage of transactions
  // holding locks there can no longer be attested, so their coverage checks
  // are suppressed (the topology-change protocol is aborting them anyway).
  for (auto& [file, entries] : shadow_locks_) {
    if (std::find(volumes.begin(), volumes.end(), file.volume) == volumes.end()) {
      continue;
    }
    for (const ShadowLock& e : entries) {
      if (e.txn.valid()) {
        StateOf(e.txn).coverage_lost = true;
      }
    }
    entries.clear();
  }
  // Shadow pages flushed but whose prepare record never reached the log are
  // freed by recovery and may be reallocated; drop their registrations.
  std::erase_if(pending_pages_, [&](const auto& entry) {
    const auto& [key, txn] = entry;
    if (std::find(volumes.begin(), volumes.end(), key.first) == volumes.end()) {
      return false;
    }
    return StateOf(txn).prepared_sites.count(site) == 0;
  });
  Event(site, "site crashed; lock tables and pool dropped");
}

void ProtocolAuditor::OnLockAccepted(const std::string& site, const FileId& file,
                                     const ByteRange& range, const LockOwner& owner,
                                     LockMode mode) {
  Check();
  Event(site, "accepted " + ToString(range) + " " + ModeText(mode) + " for " +
                  OwnerText(owner) + " on " + ToString(file));
  if (!owner.txn.valid()) {
    return;
  }
  TxnState& s = StateOf(owner.txn);
  if (Resolved(s)) {
    Violate(AuditKind::kAcquireAfterRelease, owner.txn, site, file, range,
            std::string("lock accepted after the transaction ") +
                (s.decision == Decision::kCommitted ? "committed" : "aborted") +
                " (strict 2PL: no acquire after first release)");
  }
}

// ---------------------------------------------------------------------------
// Transaction lifecycle / 2PC state machine

void ProtocolAuditor::OnTxnBegin(const TxnId& txn) {
  Check();
  TxnState& s = StateOf(txn);
  s.began = true;
  s.active_members = 1;
  Event("-", "begin " + ToString(txn));
}

void ProtocolAuditor::OnMemberJoined(const TxnId& txn) {
  Check();
  StateOf(txn).active_members++;
}

void ProtocolAuditor::OnMemberExited(const TxnId& txn) {
  Check();
  StateOf(txn).active_members--;
}

void ProtocolAuditor::OnPrepareRequest(const std::string& site, const TxnId& txn) {
  Check();
  Event(site, "prepare request for " + ToString(txn));
  TxnState& s = StateOf(txn);
  if (s.decision == Decision::kCommitted) {
    Violate(AuditKind::kPrepareAfterCommit, txn, site, kNoFile, {},
            "prepare requested after the commit point");
  }
}

void ProtocolAuditor::OnPrepared(const std::string& site, const TxnId& txn) {
  Check();
  StateOf(txn).prepared_sites.insert(site);
  Event(site, "prepared " + ToString(txn));
}

void ProtocolAuditor::OnCommitPoint(const std::string& site, const TxnId& txn,
                                    const std::vector<std::string>& participants,
                                    int active_members) {
  Check();
  TxnState& s = StateOf(txn);
  if (s.decision == Decision::kCommitted) {
    return;  // Recovery re-declares the decision; idempotent.
  }
  Event(site, "commit point for " + ToString(txn) + " (" +
                  std::to_string(participants.size()) + " participants)");
  if (s.decision == Decision::kAborted) {
    Violate(AuditKind::kCommitAfterAbort, txn, site, kNoFile, {},
            "commit point declared after an abort decision");
  }
  for (const std::string& p : participants) {
    if (s.prepared_sites.count(p) == 0) {
      Violate(AuditKind::kCommitUnprepared, txn, site, kNoFile, {},
              "participant " + p + " never prepared");
    }
  }
  int members = std::max(active_members, s.active_members);
  if (members > 1) {
    Violate(AuditKind::kCommitActiveMembers, txn, site, kNoFile, {},
            std::to_string(members) + " members still active at the commit point");
  }
  s.decision = Decision::kCommitted;
}

void ProtocolAuditor::OnAbortDecision(const std::string& site, const TxnId& txn) {
  Check();
  Event(site, "abort decision for " + ToString(txn));
  TxnState& s = StateOf(txn);
  if (s.decision == Decision::kCommitted) {
    Violate(AuditKind::kAbortAfterCommit, txn, site, kNoFile, {},
            "abort decision declared after the commit point");
    return;
  }
  s.decision = Decision::kAborted;
}

void ProtocolAuditor::OnCommitMessage(const std::string& site, const TxnId& txn) {
  Check();
  Event(site, "commit message for " + ToString(txn));
  TxnState& s = StateOf(txn);
  if (s.decision != Decision::kCommitted) {
    Violate(AuditKind::kCommitBeforeDecision, txn, site, kNoFile, {},
            s.decision == Decision::kAborted
                ? "commit message served for an aborted transaction"
                : "commit message served before any commit decision existed");
  }
}

// ---------------------------------------------------------------------------
// Storage hooks

void ProtocolAuditor::OnStoreWrite(const std::string& site, const FileId& file,
                                   const ByteRange& range, const LockOwner& writer) {
  Check();
  if (!writer.txn.valid() || range.empty()) {
    return;  // Conventional Unix writes are governed by MayWrite alone.
  }
  Event(site, "txn write " + ToString(range) + " by " + OwnerText(writer) + " on " +
                  ToString(file));
  if (StateOf(writer.txn).coverage_lost) {
    return;
  }
  std::vector<ByteRange> missing = Uncovered(file, range, writer, LockMode::kExclusive);
  if (!missing.empty()) {
    Violate(AuditKind::kUnlockedWrite, writer.txn, site, file, missing.front(),
            "transactional write without an exclusive lock covering it");
  }
}

void ProtocolAuditor::OnServeRead(const std::string& site, const FileId& file,
                                  const ByteRange& range, const LockOwner& reader,
                                  const std::vector<std::pair<TxnId, ByteRange>>&
                                      dirty_of_others) {
  Check();
  if (range.empty()) {
    return;
  }
  if (reader.txn.valid()) {
    Event(site, "txn read " + ToString(range) + " by " + OwnerText(reader) + " on " +
                    ToString(file));
    if (!StateOf(reader.txn).coverage_lost) {
      std::vector<ByteRange> missing = Uncovered(file, range, reader, LockMode::kShared);
      if (!missing.empty()) {
        Violate(AuditKind::kUnlockedRead, reader.txn, site, file, missing.front(),
                "transactional read without a covering lock");
      }
    }
  }
  for (const auto& [writer_txn, dirty] : dirty_of_others) {
    ByteRange overlap = dirty.Intersect(range);
    if (overlap.empty() || StateOf(writer_txn).coverage_lost) {
      continue;
    }
    Violate(AuditKind::kDirtyReadVisible, writer_txn, site, file, overlap,
            "uncommitted bytes of " + ToString(writer_txn) + " visible to " +
                OwnerText(reader));
  }
}

void ProtocolAuditor::OnPrepareFlushed(const std::string& site, const TxnId& txn,
                                       const IntentionsList& intentions) {
  Check();
  for (const PageUpdate& u : intentions.updates) {
    pending_pages_[{intentions.file.volume, u.new_page}] = txn;
  }
  Event(site, "prepare flushed " + std::to_string(intentions.updates.size()) +
                  " shadow pages of " + ToString(txn) + " on " + ToString(intentions.file));
}

void ProtocolAuditor::OnInstall(const std::string& site, const IntentionsList& intentions) {
  Check();
  for (const PageUpdate& u : intentions.updates) {
    auto it = pending_pages_.find({intentions.file.volume, u.new_page});
    if (it == pending_pages_.end()) {
      continue;  // Not a prepared page (single-file commit path).
    }
    TxnId txn = it->second;
    pending_pages_.erase(it);
    Event(site, "install page " + std::to_string(u.new_page) + " of " + ToString(txn) +
                    " on " + ToString(intentions.file));
    if (StateOf(txn).decision != Decision::kCommitted) {
      Violate(AuditKind::kPrematureInstall, txn, site, intentions.file,
              PageSpanOf(intentions, u),
              "prepared shadow page installed before the intentions committed");
    }
  }
}

void ProtocolAuditor::OnDiscard(const std::string& site, const IntentionsList& intentions) {
  Check();
  for (const PageUpdate& u : intentions.updates) {
    auto it = pending_pages_.find({intentions.file.volume, u.new_page});
    if (it == pending_pages_.end()) {
      continue;
    }
    TxnId txn = it->second;
    pending_pages_.erase(it);
    Event(site, "discard page " + std::to_string(u.new_page) + " of " + ToString(txn));
    if (StateOf(txn).decision == Decision::kCommitted) {
      Violate(AuditKind::kDiscardAfterCommit, txn, site, intentions.file,
              PageSpanOf(intentions, u),
              "prepared shadow page discarded after the commit decision");
    }
  }
}

void ProtocolAuditor::OnAbortWriterEffect(const std::string& site, const FileId& file,
                                          const TxnId& txn) {
  Check();
  Event(site, "writer rollback of " + ToString(txn) + " on " + ToString(file));
  if (StateOf(txn).decision == Decision::kCommitted) {
    Violate(AuditKind::kAbortEffectAfterCommit, txn, site, file, {},
            "writer state rolled back for a committed transaction");
  }
  // Rolling back a writer that had already flushed its prepare frees the
  // flushed shadow pages (without a DiscardIntentions pass); their page
  // numbers may be reallocated to later transactions, so the registrations
  // must not outlive the writer.
  std::erase_if(pending_pages_, [&](const auto& entry) {
    return entry.second == txn && entry.first.first == file.volume;
  });
}

void ProtocolAuditor::OnSingleFileCommit(const std::string& site, const FileId& file,
                                         const LockOwner& writer) {
  Check();
  if (writer.txn.valid()) {
    Violate(AuditKind::kSingleFileCommitInTxn, writer.txn, site, file, {},
            "single-file CommitWriter used for a transactional writer "
            "(must go through two-phase commit)");
  }
}

// ---------------------------------------------------------------------------
// Buffer-pool immutability

void ProtocolAuditor::OnPoolInsert(const FileId& file, int32_t page_index,
                                   const PageData* data) {
  Check();
  if (data == nullptr) {
    return;
  }
  pool_sums_[{file, page_index}] = Fnv1a(data->data(), data->size());
}

void ProtocolAuditor::OnPoolLookup(const FileId& file, int32_t page_index,
                                   const PageData* data) {
  Check();
  if (data == nullptr) {
    return;
  }
  auto it = pool_sums_.find({file, page_index});
  if (it == pool_sums_.end()) {
    return;
  }
  if (it->second != Fnv1a(data->data(), data->size())) {
    Violate(AuditKind::kCachedPageMutated, kNoTxn, "-", file,
            ByteRange{static_cast<int64_t>(page_index), 0},
            "pooled page " + std::to_string(page_index) +
                " changed while cached (shared PageRef mutated in place)");
    it->second = Fnv1a(data->data(), data->size());
  }
}

void ProtocolAuditor::OnPoolForget(const FileId& file, int32_t page_index) {
  Check();
  pool_sums_.erase({file, page_index});
}

ByteRange ProtocolAuditor::PageSpanOf(const IntentionsList& intentions,
                                      const PageUpdate& update) {
  // Best-effort offending range: the writer's logged byte ranges are
  // file-wide; report the first one as the locus of the page.
  if (!intentions.ranges.empty()) {
    return intentions.ranges.front();
  }
  return ByteRange{static_cast<int64_t>(update.page_index), 0};
}

}  // namespace locus
