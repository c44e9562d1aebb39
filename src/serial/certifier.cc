#include "src/serial/certifier.h"

#include <algorithm>

#include "src/net/network.h"
#include "src/sim/simulation.h"

namespace locus {

namespace {

constexpr size_t kTrailCapacity = 64;  // Events kept for violation context.
constexpr size_t kTrailAttached = 8;   // Events attached to each report.

std::string ClockText(const std::vector<uint32_t>& clock) {
  std::string out = "[";
  for (size_t i = 0; i < clock.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    out += std::to_string(clock[i]);
  }
  return out + "]";
}

}  // namespace

const char* SerialKindName(SerialKind kind) {
  switch (kind) {
    case SerialKind::kCycle:
      return "serialization-cycle";
    case SerialKind::kRecoverability:
      return "unrecoverable-commit";
    case SerialKind::kExternalConsistency:
      return "external-consistency";
    case SerialKind::kRace:
      return "shared-state-race";
  }
  return "?";
}

std::string SerialReport::ToString() const {
  std::string out = "SERIAL VIOLATION [";
  out += SerialKindName(kind);
  out += "]";
  for (const TxnId& t : txns) {
    out += " " + locus::ToString(t);
  }
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

SerializabilityCertifier::SerializabilityCertifier(Simulation* sim, Network* net,
                                                   StatRegistry* stats, bool enabled)
    : ProtocolObserver(enabled),
      sim_(sim),
      net_(net),
      stats_(stats),
      // Interned at construction so counters() reports them even at zero.
      ids_{stats->Intern("serial.txns_certified"), stats->Intern("serial.edges"),
           stats->Intern("serial.cycles"), stats->Intern("serial.checks"),
           stats->Intern("serial.violations")} {}

int SerializabilityCertifier::CountKind(SerialKind kind) const {
  return static_cast<int>(std::count_if(
      violations_.begin(), violations_.end(),
      [&](const SerialReport& r) { return r.kind == kind; }));
}

std::string SerializabilityCertifier::Summary() const {
  std::string out;
  for (const SerialReport& r : violations_) {
    if (!out.empty()) {
      out += "\n";
    }
    out += r.ToString();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Graph plumbing

SerializabilityCertifier::Node& SerializabilityCertifier::NodeOf(const TxnId& txn) {
  return txns_[txn];
}

bool SerializabilityCertifier::ClockLeq(const std::vector<uint32_t>& a,
                                        const std::vector<uint32_t>& b) {
  if (a.empty() || b.empty()) {
    return false;  // No clock = no observable order; never claim one.
  }
  for (size_t i = 0; i < a.size(); ++i) {
    uint32_t bi = i < b.size() ? b[i] : 0;
    if (a[i] > bi) {
      return false;
    }
  }
  return true;
}

void SerializabilityCertifier::AddEdge(const TxnId& from, const TxnId& to,
                                       const char* conflict, const FileId& file,
                                       const ByteRange& range, const std::string& site) {
  if (!from.valid() || !to.valid() || from == to) {
    return;
  }
  Node& f = NodeOf(from);
  std::string label = std::string(conflict) + " " + locus::ToString(file) + " " +
                      locus::ToString(range);
  auto [it, inserted] = f.out.try_emplace(to, label);
  if (!inserted) {
    return;  // Edge already known; the first conflict named it.
  }
  ++edges_;
  stats_->Add(ids_.edges);
  Event(site, std::string(conflict) + " edge " + locus::ToString(from) + " -> " +
                  locus::ToString(to) + " on " + locus::ToString(file) + " " +
                  locus::ToString(range));
  Check();
  // External consistency: the edge orders `from` before `to` in the
  // equivalent serial order, but if `to`'s commit happened-before `from`'s
  // begin, `from` started after observing `to`'s outcome — serializing it
  // earlier reorders observed results.
  Node& t = txns_[to];
  if (t.committed && f.began && ClockLeq(t.commit_clock, f.begin_clock)) {
    Violate(SerialKind::kExternalConsistency, {from, to}, site, file, range,
            std::string(conflict) + " conflict serializes " + locus::ToString(from) +
                " before " + locus::ToString(to) + ", whose commit " +
                ClockText(t.commit_clock) + " happened-before its begin " +
                ClockText(f.begin_clock));
  }
}

bool SerializabilityCertifier::FindCycle(const TxnId& root, const TxnId& cur,
                                         std::set<TxnId>& visited,
                                         std::vector<TxnId>& path) {
  for (const auto& [to, label] : txns_[cur].out) {
    if (to == root) {
      path.push_back(to);
      return true;
    }
    auto node = txns_.find(to);
    if (node == txns_.end() || !node->second.committed || visited.contains(to)) {
      continue;
    }
    visited.insert(to);
    path.push_back(to);
    if (FindCycle(root, to, visited, path)) {
      return true;
    }
    path.pop_back();
  }
  return false;
}

void SerializabilityCertifier::CheckCycles(const TxnId& txn, const std::string& site) {
  Check();
  std::set<TxnId> visited{txn};
  std::vector<TxnId> path{txn};
  if (!FindCycle(txn, txn, visited, path)) {
    return;
  }
  std::set<TxnId> members(path.begin(), path.end());
  if (!reported_cycles_.insert(members).second) {
    return;  // This cycle was already reported at an earlier commit.
  }
  stats_->Add(ids_.cycles);
  std::string detail = "conflict cycle:";
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    detail += " " + locus::ToString(path[i]) + " -[" + txns_[path[i]].out[path[i + 1]] +
              "]->";
  }
  detail += " " + locus::ToString(path.back());
  Violate(SerialKind::kCycle, path, site, kNoFile, ByteRange{0, 0}, std::move(detail));
}

SiteId SerializabilityCertifier::SiteIdOf(const std::string& name) {
  auto it = site_ids_.find(name);
  if (it != site_ids_.end()) {
    return it->second;
  }
  if (net_ != nullptr) {
    for (SiteId s = 0; s < net_->site_count(); ++s) {
      site_ids_[net_->SiteName(s)] = s;
    }
    it = site_ids_.find(name);
    if (it != site_ids_.end()) {
      return it->second;
    }
  }
  return kNoSite;
}

std::vector<uint32_t> SerializabilityCertifier::ClockOf(SiteId site) const {
  if (net_ == nullptr || site == kNoSite || !net_->clocks_enabled()) {
    return {};
  }
  return net_->SiteClock(site);
}

// ---------------------------------------------------------------------------
// Transaction hooks

void SerializabilityCertifier::OnTxnBegin(const TxnId& txn) {
  Node& n = NodeOf(txn);
  n.began = true;
  SiteId origin = (net_ != nullptr && txn.site >= 0 && txn.site < net_->site_count())
                      ? txn.site
                      : kNoSite;
  n.begin_clock = ClockOf(origin);
  Event("site" + std::to_string(txn.site), "begin " + locus::ToString(txn));
}

void SerializabilityCertifier::OnStoreWrite(const std::string& site, const FileId& file,
                                            const ByteRange& range,
                                            const LockOwner& writer) {
  if (range.empty()) {
    return;
  }
  if (writer.txn.valid()) {
    NodeOf(writer.txn).pending[file].push_back(range);
  } else {
    anon_pending_[{file, writer.pid}].push_back(range);
  }
  (void)site;
}

void SerializabilityCertifier::OnServeRead(
    const std::string& site, const FileId& file, const ByteRange& range,
    const LockOwner& reader,
    const std::vector<std::pair<TxnId, ByteRange>>& dirty_of_others) {
  if (range.empty()) {
    return;
  }
  FileState& fs = files_[file];
  if (reader.txn.valid()) {
    // wr: the read depends on the committed bytes it overlaps.
    for (const Interval& w : fs.writers) {
      if (w.range.Overlaps(range)) {
        AddEdge(w.txn, reader.txn, "wr", file, w.range.Intersect(range), site);
      }
    }
    fs.readers.push_back({range, reader.txn});
    // Recoverability: the read overlapped uncommitted bytes of other
    // transactions — this reader must not commit before they do.
    for (const auto& [writer_txn, dirty_range] : dirty_of_others) {
      AddEdge(writer_txn, reader.txn, "wr-dirty", file, dirty_range, site);
      NodeOf(reader.txn).dirty_deps.insert(writer_txn);
      Event(site, "dirty read of " + locus::ToString(writer_txn) + " bytes by " +
                      locus::ToString(reader.txn) + " on " + locus::ToString(file) + " " +
                      locus::ToString(dirty_range));
    }
  }
  Check();
}

void SerializabilityCertifier::OnCommitPoint(const std::string& site, const TxnId& txn,
                                             const std::vector<std::string>& participants,
                                             int active_members) {
  (void)participants;
  (void)active_members;
  Node& n = NodeOf(txn);
  if (n.committed) {
    return;  // Recovery / phase-two re-declarations are idempotent.
  }
  n.committed = true;
  n.commit_clock = ClockOf(SiteIdOf(site));
  ++txns_certified_;
  stats_->Add(ids_.txns_certified);
  Event(site, "commit " + locus::ToString(txn));

  // Recoverability: every transaction whose uncommitted bytes we read must
  // have committed first.
  Check();
  for (const TxnId& dep : n.dirty_deps) {
    const Node& d = txns_[dep];
    if (!d.committed) {
      Violate(SerialKind::kRecoverability, {txn, dep}, site, kNoFile, ByteRange{0, 0},
              "committed after reading uncommitted bytes of " + locus::ToString(dep) +
                  (d.aborted ? " (aborted)" : " (still unresolved)"));
    }
  }

  // Install the write set: ww edges over prior last-writers, rw edges from
  // recorded readers of the overwritten bytes, then take ownership of the
  // byte ranges.
  for (auto& [file, ranges] : n.pending) {
    FileState& fs = files_[file];
    for (const ByteRange& r : ranges) {
      for (const Interval& w : fs.writers) {
        if (w.range.Overlaps(r)) {
          AddEdge(w.txn, txn, "ww", file, w.range.Intersect(r), site);
        }
      }
      for (const Interval& rd : fs.readers) {
        if (rd.range.Overlaps(r)) {
          AddEdge(rd.txn, txn, "rw", file, rd.range.Intersect(r), site);
        }
      }
    }
    for (const ByteRange& r : ranges) {
      std::vector<Interval> kept;
      for (const Interval& w : fs.writers) {
        for (const ByteRange& piece : w.range.Subtract(r)) {
          kept.push_back({piece, w.txn});
        }
      }
      fs.writers = std::move(kept);
      fs.writers.push_back({r, txn});
      std::vector<Interval> readers_kept;
      for (const Interval& rd : fs.readers) {
        for (const ByteRange& piece : rd.range.Subtract(r)) {
          readers_kept.push_back({piece, rd.txn});
        }
      }
      fs.readers = std::move(readers_kept);
    }
  }
  n.pending.clear();

  CheckCycles(txn, site);
}

void SerializabilityCertifier::OnAbortDecision(const std::string& site, const TxnId& txn) {
  Node& n = NodeOf(txn);
  if (n.committed) {
    return;  // Abort-after-commit is the step auditor's violation to report.
  }
  n.aborted = true;
  n.pending.clear();
  Event(site, "abort " + locus::ToString(txn));
}

void SerializabilityCertifier::OnSingleFileCommit(const std::string& site,
                                                  const FileId& file,
                                                  const LockOwner& writer) {
  // A non-transactional commit installs bytes without entering the
  // serialization order: prior attributions over those bytes are simply
  // retired (no edges — single-file writers are outside the certified set).
  auto it = anon_pending_.find({file, writer.pid});
  if (it == anon_pending_.end()) {
    return;
  }
  FileState& fs = files_[file];
  for (const ByteRange& r : it->second) {
    std::vector<Interval> kept;
    for (const Interval& w : fs.writers) {
      for (const ByteRange& piece : w.range.Subtract(r)) {
        kept.push_back({piece, w.txn});
      }
    }
    fs.writers = std::move(kept);
    std::vector<Interval> readers_kept;
    for (const Interval& rd : fs.readers) {
      for (const ByteRange& piece : rd.range.Subtract(r)) {
        readers_kept.push_back({piece, rd.txn});
      }
    }
    fs.readers = std::move(readers_kept);
  }
  anon_pending_.erase(it);
  Check();
  (void)site;
}

void SerializabilityCertifier::OnSiteCrash(const std::string& site,
                                           const std::vector<int32_t>& volumes) {
  // Non-transaction writers' working bytes died with the site; transactional
  // pending writes stay (prepared intentions are durable and may still
  // install if the transaction recovers committed).
  for (auto it = anon_pending_.begin(); it != anon_pending_.end();) {
    int32_t volume = it->first.first.volume;
    if (std::find(volumes.begin(), volumes.end(), volume) != volumes.end()) {
      it = anon_pending_.erase(it);
    } else {
      ++it;
    }
  }
  Event(site, "site crash");
}

// ---------------------------------------------------------------------------
// Happens-before race detection over non-transactional shared state

bool SerializabilityCertifier::OrderedBefore(const Access& earlier, const Access& later,
                                             SiteId earlier_site) {
  if (earlier_site == kNoSite) {
    return true;  // Unresolvable site: cannot attest order either way.
  }
  uint32_t own = earlier_site < static_cast<SiteId>(earlier.clock.size())
                     ? earlier.clock[earlier_site]
                     : 0;
  if (own == 0) {
    return true;  // Before the site's first clocked event: ordered trivially.
  }
  uint32_t seen = earlier_site < static_cast<SiteId>(later.clock.size())
                      ? later.clock[earlier_site]
                      : 0;
  return own <= seen;
}

void SerializabilityCertifier::OnSharedAccess(const std::string& site,
                                              const std::string& key, bool is_write) {
  SiteId id = SiteIdOf(site);
  Access access{site, is_write, ClockOf(id), true};
  KeyState& ks = shared_keys_[key];
  Check();
  auto flag = [&](const Access& prior) {
    Violate(SerialKind::kRace, {}, site, kNoFile, ByteRange{0, 0},
            std::string(is_write ? "write" : "read") + " of " + key + " at " + site +
                " races " + (prior.write ? "write" : "read") + " at " + prior.site +
                ": no message chain orders " + ClockText(prior.clock) + " before " +
                ClockText(access.clock));
  };
  if (ks.last_write.valid && ks.last_write.site != site &&
      !OrderedBefore(ks.last_write, access, SiteIdOf(ks.last_write.site))) {
    flag(ks.last_write);
  }
  if (is_write) {
    for (const Access& rd : ks.reads) {
      if (rd.site != site && !OrderedBefore(rd, access, SiteIdOf(rd.site))) {
        flag(rd);
      }
    }
    ks.last_write = access;
    ks.reads.clear();
  } else {
    ks.reads.push_back(access);
  }
  Event(site, std::string(is_write ? "write " : "read ") + key);
}

// ---------------------------------------------------------------------------
// Terminal sweep

int64_t SerializabilityCertifier::Certify() {
  for (const auto& [txn, node] : txns_) {
    if (node.committed) {
      CheckCycles(txn, "");
    }
  }
  return violation_count();
}

// ---------------------------------------------------------------------------
// Reporting

void SerializabilityCertifier::Event(const std::string& site, std::string text) {
  std::string line = "t=" + std::to_string(sim_ != nullptr ? sim_->Now() : 0) +
                     (site.empty() ? "" : " " + site) + ": " + text;
  trail_.push_back(std::move(line));
  if (trail_.size() > kTrailCapacity) {
    trail_.pop_front();
  }
}

void SerializabilityCertifier::Violate(SerialKind kind, std::vector<TxnId> txns,
                                       const std::string& site, const FileId& file,
                                       const ByteRange& range, std::string detail) {
  SerialReport report;
  report.kind = kind;
  report.txns = std::move(txns);
  report.site = site;
  report.file = file;
  report.range = range;
  report.detail = std::move(detail);
  size_t attach = std::min(trail_.size(), kTrailAttached);
  report.trail.assign(trail_.end() - attach, trail_.end());
  stats_->Add(ids_.violations);
  if (sim_ != nullptr) {
    sim_->Trace("serial", "%s", report.ToString().c_str());
  }
  violations_.push_back(std::move(report));
}

}  // namespace locus
