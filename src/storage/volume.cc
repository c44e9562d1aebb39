#include "src/storage/volume.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace locus {

namespace {
// Metadata page layout: the inode table and the log each occupy a reserved
// page used as the I/O target for accounting; structured contents are held
// beside the disk (see header comment).
constexpr PageId kInodeTablePage = 0;
constexpr PageId kLogPage = 1;
constexpr int32_t kReservedPages = 2;
}  // namespace

Volume::Volume(VolumeId id, std::string name, std::unique_ptr<Disk> disk)
    : id_(id), name_(std::move(name)), disk_(std::move(disk)), first_free_hint_(kReservedPages) {
  allocated_.assign(disk_->num_pages(), false);
  for (PageId p = 0; p < kReservedPages; ++p) {
    allocated_[p] = true;
  }
}

PageId Volume::AllocPage() {
  for (PageId p = first_free_hint_; p < disk_->num_pages(); ++p) {
    if (!allocated_[p]) {
      allocated_[p] = true;
      first_free_hint_ = p + 1;
      return p;
    }
  }
  // No caller can place a write without a page, and handing out kNoPage
  // would corrupt whatever used it, so a full volume stops the run in every
  // build.
  fprintf(stderr, "volume %s: out of pages (all %d allocated)\n", name_.c_str(),
          disk_->num_pages());
  abort();
}

void Volume::FreePage(PageId page) {
  assert(page >= kReservedPages && page < disk_->num_pages());
  if (!allocated_[page]) {
    // Double-free would silently hand one page to two files; refuse and make
    // it visible (tests assert this stays zero).
    double_frees_++;
    assert(false && "double free of volume page");
    return;
  }
  allocated_[page] = false;
  first_free_hint_ = std::min(first_free_hint_, page);
}

int32_t Volume::free_page_count() const {
  int32_t n = 0;
  for (bool a : allocated_) {
    if (!a) {
      ++n;
    }
  }
  return n;
}

Ino Volume::AllocInode() { return next_ino_++; }

std::optional<DiskInode> Volume::ReadInode(Ino ino) {
  disk_->Read(kInodeTablePage, "inode");
  auto it = inodes_.find(ino);
  if (it == inodes_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void Volume::WriteInode(const DiskInode& inode) {
  // The stable map is mutated only after the write completes: a crash during
  // the write leaves the old descriptor block, which is exactly the atomic
  // single-file commit guarantee the transaction mechanism builds on.
  disk_->Write(kInodeTablePage, ZeroPage(), "inode");
  inodes_[inode.ino] = inode;
}

void Volume::FreeInode(Ino ino) {
  disk_->Write(kInodeTablePage, ZeroPage(), "inode");
  inodes_.erase(ino);
}

const DiskInode* Volume::PeekInode(Ino ino) const {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : &it->second;
}

void Volume::BindStats(StatRegistry* stats) {
  stats_ = stats;
  log_forces_id_ = stats->Intern("form.log_forces");
  group_records_id_ = stats->Intern("form.group_commit_records");
}

void Volume::EnableGroupCommit(Simulation* sim) {
  sim_ = sim;
  force_wait_ = std::make_unique<WaitQueue>(sim);
}

uint64_t Volume::AppendLog(LogPayload payload, const char* category, LogForce force) {
  if (sim_ != nullptr) {
    uint64_t id = next_log_id_++;
    uint64_t stamp = ++staged_stamp_;
    staged_.push_back(StagedRecord{false, id, std::move(payload), stamp});
    if (force == LogForce::kForce) {
      ForceCovering(stamp, category);
    }
    return id;
  }
  ForceLogPage(category, /*grows_log=*/true);
  uint64_t id = next_log_id_++;
  log_.insert_or_assign(id, LogRecord{id, std::move(payload)});
  return id;
}

void Volume::UpdateLog(uint64_t record_id, LogPayload payload, const char* category,
                       LogForce force) {
  if (sim_ != nullptr) {
    // The target is either published (its append forced) or still staged (a
    // lazy append, e.g. an abort mark overwriting an unforced begin record).
    assert(log_.count(record_id) == 1 || StagedContains(record_id));
    uint64_t stamp = ++staged_stamp_;
    staged_.push_back(StagedRecord{true, record_id, std::move(payload), stamp});
    if (force == LogForce::kForce) {
      ForceCovering(stamp, category);
    }
    return;
  }
  assert(log_.count(record_id) == 1);
  ForceLogPage(category, /*grows_log=*/false);
  log_[record_id].payload = std::move(payload);
}

void Volume::ForceLogPage(const char* category, bool grows_log) {
  disk_->Write(kLogPage, ZeroPage(), category);
  if (grows_log && log_append_mode_ == LogAppendMode::kDoubleWrite) {
    // Footnote 9: the 1985 implementation also rewrote the log file's inode
    // on every append.
    disk_->Write(kInodeTablePage, ZeroPage(), "log_inode");
  }
  if (stats_ != nullptr) {
    stats_->Add(log_forces_id_);
  }
}

void Volume::ForceCovering(uint64_t stamp, const char* category) {
  while (durable_stamp_ < stamp) {
    if (force_in_progress_) {
      // A force is in flight; it may or may not cover our stamp. Wait for it
      // and re-check — if it fell short, one waiter becomes the next leader.
      force_wait_->Wait();
      continue;
    }
    force_in_progress_ = true;
    const uint64_t covered = staged_stamp_;
    const uint64_t batch = covered - durable_stamp_;
    if (batch > 1 && stats_ != nullptr) {
      // These records share one force instead of paying one each.
      stats_->Add(group_records_id_, static_cast<int64_t>(batch));
    }
    ForceLogPage(category, /*grows_log=*/true);
    // The write completed: every record staged at capture time is durable.
    // Publication happens here, atomically with the write's completion from
    // the simulation's point of view (no blocking between) — a crash during
    // the write killed this process before reaching this line, leaving the
    // covered records unpublished, exactly as a torn force should.
    PublishThrough(covered);
    durable_stamp_ = covered;
    force_in_progress_ = false;
    force_wait_->NotifyAll();
  }
}

void Volume::PublishThrough(uint64_t covered) {
  size_t n = 0;
  while (n < staged_.size() && staged_[n].stamp <= covered) {
    StagedRecord& rec = staged_[n];
    if (rec.is_update) {
      log_[rec.id].payload = std::move(rec.payload);
    } else {
      log_.insert_or_assign(rec.id, LogRecord{rec.id, std::move(rec.payload)});
    }
    ++n;
  }
  staged_.erase(staged_.begin(), staged_.begin() + n);
}

bool Volume::StagedContains(uint64_t record_id) const {
  for (const StagedRecord& rec : staged_) {
    if (rec.id == record_id) {
      return true;
    }
  }
  return false;
}

void Volume::EraseLog(uint64_t record_id) {
  log_.erase(record_id);
  // Purge staged mutations of the erased record too, or a later force would
  // resurrect it (e.g. an abort path that appends lazily and erases at once).
  std::erase_if(staged_, [record_id](const StagedRecord& rec) {
    return rec.id == record_id;
  });
}

void Volume::OnCrash() {
  disk_->DropPendingRequests();
  // Staged-but-unforced log records die with the buffer cache; any force that
  // was in flight died with the process driving it.
  staged_.clear();
  staged_stamp_ = 0;
  durable_stamp_ = 0;
  force_in_progress_ = false;
  // Volatile counters are lost; recompute from stable structures.
  next_ino_ = 1;
  for (const auto& [ino, inode] : inodes_) {
    next_ino_ = std::max(next_ino_, ino + 1);
  }
  next_log_id_ = 1;
  for (const auto& [id, rec] : log_) {
    next_log_id_ = std::max(next_log_id_, id + 1);
  }
}

void Volume::RecoverAllocation(const std::vector<PageId>& extra_live_pages) {
  first_free_hint_ = kReservedPages;
  allocated_.assign(disk_->num_pages(), false);
  for (PageId p = 0; p < kReservedPages; ++p) {
    allocated_[p] = true;
  }
  for (const auto& [ino, inode] : inodes_) {
    for (PageId p : inode.pages) {
      if (p != kNoPage) {
        allocated_[p] = true;
      }
    }
  }
  for (PageId p : extra_live_pages) {
    if (p != kNoPage) {
      allocated_[p] = true;
    }
  }
}

}  // namespace locus
