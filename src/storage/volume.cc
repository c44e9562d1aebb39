#include "src/storage/volume.h"

#include <algorithm>
#include <bit>
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
  ResetAllocation();
}

void Volume::MarkAllocated(PageId page, bool allocated) {
  const uint64_t bit = uint64_t{1} << (page & 63);
  if (allocated) {
    allocated_[page >> 6] |= bit;
  } else {
    allocated_[page >> 6] &= ~bit;
  }
}

void Volume::ResetAllocation() {
  allocated_.assign((static_cast<size_t>(disk_->num_pages()) + 63) / 64, 0);
  for (PageId p = 0; p < kReservedPages; ++p) {
    MarkAllocated(p, true);
  }
}

PageId Volume::AllocPage() {
  // First fit from the hint, a word at a time: the first clear bit at or
  // past the hint is the lowest free page there.
  const size_t words = allocated_.size();
  for (size_t w = static_cast<size_t>(first_free_hint_) >> 6; w < words; ++w) {
    uint64_t word = allocated_[w];
    if (w == static_cast<size_t>(first_free_hint_) >> 6) {
      word |= (uint64_t{1} << (first_free_hint_ & 63)) - 1;  // Pages below the hint.
    }
    if (word == ~uint64_t{0}) {
      continue;
    }
    const PageId p = static_cast<PageId>(w * 64 + std::countr_one(word));
    if (p >= disk_->num_pages()) {
      break;
    }
    MarkAllocated(p, true);
    first_free_hint_ = p + 1;
    return p;
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
  if (!IsAllocated(page)) {
    // Double-free would silently hand one page to two files; refuse and make
    // it visible (tests assert this stays zero).
    double_frees_++;
    assert(false && "double free of volume page");
    return;
  }
  MarkAllocated(page, false);
  first_free_hint_ = std::min(first_free_hint_, page);
}

int32_t Volume::free_page_count() const {
  int32_t allocated = 0;
  for (uint64_t word : allocated_) {
    allocated += std::popcount(word);
  }
  return disk_->num_pages() - allocated;
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
  // The block written is the descriptor as of this call; a caller that
  // changes its copy during the write changes the next block, not this one.
  DiskInode snapshot = inode;
  // The stable map is mutated only after the write completes: a crash during
  // the write leaves the old descriptor block, which is exactly the atomic
  // single-file commit guarantee the transaction mechanism builds on.
  disk_->Write(kInodeTablePage, ZeroPage(), "inode");
  inodes_[snapshot.ino] = std::move(snapshot);
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
    staged_.push_back(StagedRecord{id, std::move(payload), stamp, std::nullopt});
    if (force == LogForce::kForce) {
      ForceCovering(stamp, category);
    }
    return id;
  }
  ForceLogPage(category, /*grows_log=*/true, RecordBytes(payload, page_size()));
  uint64_t id = next_log_id_++;
  PutLog(id, std::move(payload));
  return id;
}

void Volume::MarkLog(uint64_t record_id, TxnStatus status, const char* category,
                     LogForce force) {
  if (sim_ != nullptr) {
    // The target is either published (its append forced) or still staged (a
    // lazy append, e.g. an abort mark on an unforced begin record).
    assert(log_.count(record_id) == 1 || StagedContains(record_id));
    uint64_t stamp = ++staged_stamp_;
    staged_.push_back(StagedRecord{record_id, LogPayload{}, stamp, status});
    if (force == LogForce::kForce) {
      ForceCovering(stamp, category);
    }
    return;
  }
  ForceLogPage(category, /*grows_log=*/false, 0);
  PutMark(record_id, status);
}

void Volume::PutLog(uint64_t id, LogPayload payload) {
  std::unique_ptr<LogRecord>& box = log_[id];
  if (box == nullptr) {
    if (spare_log_records_.empty()) {
      box = std::make_unique<LogRecord>();
    } else {
      box = std::move(spare_log_records_.back());
      spare_log_records_.pop_back();
    }
    box->record_id = id;
  }
  box->payload = std::move(payload);
}

void Volume::PutMark(uint64_t id, TxnStatus status) {
  std::get<CoordinatorLogRecord>(log_.at(id)->payload).status = status;
}

void Volume::ForceLogPage(const char* category, bool grows_log, int64_t record_bytes) {
  const int64_t pages = std::max<int64_t>(1, (record_bytes + page_size() - 1) / page_size());
  for (int64_t p = 0; p < pages; ++p) {
    disk_->Write(kLogPage, ZeroPage(), category);
  }
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
    int64_t record_bytes = 0;
    for (const StagedRecord& rec : staged_) {
      if (rec.stamp <= covered && !rec.mark.has_value()) {
        record_bytes += RecordBytes(rec.payload, page_size());
      }
    }
    ForceLogPage(category, /*grows_log=*/true, record_bytes);
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
    if (rec.mark.has_value()) {
      PutMark(rec.id, *rec.mark);  // Its append was published first.
    } else {
      PutLog(rec.id, std::move(rec.payload));
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
  auto it = log_.find(record_id);
  if (it != log_.end()) {
    it->second->payload = LogPayload{};
    spare_log_records_.push_back(std::move(it->second));
    log_.erase(it);
  }
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
  ResetAllocation();
  for (const auto& [ino, inode] : inodes_) {
    for (PageId p : inode.pages) {
      if (p != kNoPage) {
        MarkAllocated(p, true);
      }
    }
  }
  for (PageId p : extra_live_pages) {
    if (p != kNoPage) {
      MarkAllocated(p, true);
    }
  }
}

}  // namespace locus
