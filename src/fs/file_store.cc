#include "src/fs/file_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace locus {

FileStore::FileStore(Simulation* sim, Volume* volume, BufferPool* pool, StatRegistry* stats,
                     std::string site_name)
    : sim_(sim),
      volume_(volume),
      pool_(pool),
      stats_(stats),
      site_name_(std::move(site_name)) {
  ids_.cpu = stats_->Intern("cpu." + site_name_);
  ids_.bytes_written = stats_->Intern("fs.bytes_written");
  ids_.shadow_pages_allocated = stats_->Intern("fs.shadow_pages_allocated");
  ids_.shadow_pages_discarded = stats_->Intern("fs.shadow_pages_discarded");
  ids_.commit_diffed_pages = stats_->Intern("fs.commit.diffed_pages");
  ids_.commit_direct_pages = stats_->Intern("fs.commit.direct_pages");
  ids_.commit_remerged_pages = stats_->Intern("fs.commit.remerged_pages");
  ids_.commits_installed = stats_->Intern("fs.commits_installed");
  ids_.install_working_page_patches = stats_->Intern("fs.install.working_page_patches");
  ids_.truncates = stats_->Intern("fs.truncates");
  ids_.aborts = stats_->Intern("fs.aborts");
  ids_.rule2_adoptions = stats_->Intern("fs.rule2_adoptions");
  ids_.prefetches = stats_->Intern("fs.prefetches");
}

void FileStore::Cpu(int64_t instructions) {
  stats_->Add(ids_.cpu, instructions);
  sim_->BurnInstructions(instructions);
}

ByteRange FileStore::PageSpan(int32_t slot) const {
  return ByteRange{static_cast<int64_t>(slot) * page_size(), page_size()};
}

FileId FileStore::CreateFile() {
  Ino ino = volume_->AllocInode();
  DiskInode inode;
  inode.ino = ino;
  volume_->WriteInode(inode);
  FileId id{volume_->id(), ino};
  FileState state;
  state.inode = inode;
  state.working_size = 0;
  // hook-ok a fresh empty inode no transaction can reach until SysCreat
  // publishes the catalog entry naming it (reported as catalog.entry).
  files_[id] = std::move(state);
  return id;
}

void FileStore::RemoveFile(const FileId& file) {
  FileState& state = LoadState(file);
  for (const Writer& w : state.writers) {
    for (const auto& [slot, shadow] : w.shadow_pages) {
      volume_->FreePage(shadow);
    }
  }
  for (PageId p : state.inode.pages) {
    if (p != kNoPage) {
      volume_->FreePage(p);
    }
  }
  volume_->FreeInode(file.ino);
  pool_->InvalidateFile(file);
  // hook-ok the catalog entry is already gone (SysUnlink reports it as
  // catalog.entry) or was never published (a create-race loser's replica).
  files_.erase(file);
}

bool FileStore::Exists(const FileId& file) const {
  if (files_.count(file)) {
    return true;
  }
  return volume_->PeekInode(file.ino) != nullptr;
}

int64_t FileStore::WorkingSize(const FileId& file) const {
  const FileState* state = FindState(file);
  if (state != nullptr) {
    return state->working_size;
  }
  const DiskInode* inode = volume_->PeekInode(file.ino);
  return inode == nullptr ? 0 : inode->size;
}

int64_t FileStore::CommittedSize(const FileId& file) const {
  const FileState* state = FindState(file);
  if (state != nullptr) {
    return state->inode.size;
  }
  const DiskInode* inode = volume_->PeekInode(file.ino);
  return inode == nullptr ? 0 : inode->size;
}

uint64_t FileStore::CommitVersion(const FileId& file) const {
  const FileState* state = FindState(file);
  if (state != nullptr) {
    return state->inode.commit_version;
  }
  const DiskInode* inode = volume_->PeekInode(file.ino);
  return inode == nullptr ? 0 : inode->commit_version;
}

void FileStore::StampCommitVersion(const FileId& file, uint64_t version) {
  FileState& state = LoadState(file);
  if (version <= state.inode.commit_version) {
    return;
  }
  state.inode.commit_version = version;
  volume_->WriteInode(state.inode);
}

FileStore::FileState* FileStore::FindState(const FileId& file) {
  auto it = files_.find(file);
  return it == files_.end() ? nullptr : &it->second;
}

const FileStore::FileState* FileStore::FindState(const FileId& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? nullptr : &it->second;
}

FileStore::FileState& FileStore::LoadState(const FileId& file) {
  auto it = files_.find(file);
  if (it != files_.end()) {
    return it->second;
  }
  // First touch since boot: bring the descriptor block into kernel memory
  // (section 5.1).
  std::optional<DiskInode> inode = volume_->ReadInode(file.ino);
  assert(inode.has_value() && "LoadState on nonexistent file");
  FileState state;
  state.inode = *inode;
  state.working_size = inode->size;
  // hook-ok deterministic first-touch cache fill from the on-disk inode, not
  // a protocol event; subsequent reads/writes are hooked at their call sites.
  auto [pos, unused] = files_.emplace(file, std::move(state));
  return pos->second;
}

FileStore::Writer& FileStore::WriterFor(FileState& state, const LockOwner& owner) {
  for (Writer& w : state.writers) {
    if (w.owner.SameWriterAs(owner)) {
      return w;
    }
  }
  Writer w;
  w.owner = owner;
  state.writers.push_back(std::move(w));
  return state.writers.back();
}

FileStore::Writer* FileStore::FindWriter(FileState& state, const LockOwner& owner) {
  for (Writer& w : state.writers) {
    if (w.owner.SameWriterAs(owner)) {
      return &w;
    }
  }
  return nullptr;
}

PageRef FileStore::CommittedPage(const FileId& file, const FileState& state, int32_t slot) {
  if (slot >= static_cast<int32_t>(state.inode.pages.size()) ||
      state.inode.pages[slot] == kNoPage) {
    return MakePage(PageData(page_size(), 0));
  }
  BufferPool::Key key{file, slot};
  if (PageRef cached = pool_->Lookup(key)) {
    return cached;
  }
  // The disk read blocks; a commit install may replace the page pointer
  // meanwhile. Cache the image only if it is still current — a stale insert
  // would outlive the install's invalidation.
  uint64_t version_before = state.inode.version;
  PageRef data = volume_->disk().Read(state.inode.pages[slot], "data");
  if (state.inode.version == version_before) {
    pool_->Insert(key, data);
  }
  return data;
}

PageRef FileStore::StableCommittedPage(const FileId& file, const FileState& state,
                                       int32_t slot, uint64_t* version_out) {
  // Version-stable snapshot: retry until no install slipped in during the
  // blocking read, so callers never persist an image that was already
  // superseded when the read completed.
  for (;;) {
    uint64_t version = state.inode.version;
    PageRef data = CommittedPage(file, state, slot);
    if (state.inode.version == version) {
      if (version_out != nullptr) {
        *version_out = version;
      }
      return data;
    }
  }
}

bool FileStore::OtherWriterOnPage(const FileState& state, const LockOwner& owner,
                                  int32_t slot) const {
  ByteRange span = PageSpan(slot);
  for (const Writer& w : state.writers) {
    if (!w.owner.SameWriterAs(owner) && w.dirty.Intersects(span)) {
      return true;
    }
  }
  return false;
}

std::vector<uint8_t> FileStore::Read(const FileId& file, const ByteRange& range) {
  FileState& state = LoadState(file);
  ByteRange clamped = range.Intersect(ByteRange{0, state.working_size});
  std::vector<uint8_t> out(clamped.length, 0);
  if (clamped.empty()) {
    return out;
  }
  int32_t first = static_cast<int32_t>(clamped.start / page_size());
  int32_t last = static_cast<int32_t>((clamped.end() - 1) / page_size());
  for (int32_t slot = first; slot <= last; ++slot) {
    Cpu(kReadPerPageInstructions);
    ByteRange piece = PageSpan(slot).Intersect(clamped);
    const uint8_t* src = nullptr;
    PageRef committed;
    auto wp = state.working_pages.find(slot);
    if (wp != state.working_pages.end()) {
      src = wp->second->data();
    } else {
      committed = CommittedPage(file, state, slot);
      src = committed->data();
    }
    int64_t in_page = piece.start - PageSpan(slot).start;
    std::memcpy(out.data() + (piece.start - clamped.start), src + in_page, piece.length);
  }
  return out;
}

void FileStore::Write(const FileId& file, const LockOwner& writer, int64_t offset,
                      const std::vector<uint8_t>& bytes) {
  if (bytes.empty()) {
    return;
  }
  FileState& state = LoadState(file);
  Writer& w = WriterFor(state, writer);
  ByteRange range{offset, static_cast<int64_t>(bytes.size())};
  if (Audited()) {
    audit_->OnStoreWrite(site_name_, file, range, writer);
  }
  int32_t first = static_cast<int32_t>(range.start / page_size());
  int32_t last = static_cast<int32_t>((range.end() - 1) / page_size());
  for (int32_t slot = first; slot <= last; ++slot) {
    Cpu(kWritePerPageInstructions);
    auto wp = state.working_pages.find(slot);
    if (wp == state.working_pages.end()) {
      // Copy-on-write: the working page starts as the committed image
      // (version-stable: a racing install must not be frozen out). The ref is
      // shared with the pool/disk; MutablePage below clones before the write.
      PageRef image = StableCommittedPage(file, state, slot, nullptr);
      wp = state.working_pages.find(slot);  // The fetch yielded; re-check.
      if (wp == state.working_pages.end()) {
        wp = state.working_pages.emplace(slot, std::move(image)).first;
      }
    }
    if (!w.shadow_pages.count(slot)) {
      w.shadow_pages[slot] = volume_->AllocPage();
      stats_->Add(ids_.shadow_pages_allocated);
    }
    ByteRange piece = PageSpan(slot).Intersect(range);
    int64_t in_page = piece.start - PageSpan(slot).start;
    std::memcpy(MutablePage(wp->second).data() + in_page,
                bytes.data() + (piece.start - range.start), piece.length);
  }
  w.dirty.Add(range);
  w.max_extent = std::max(w.max_extent, range.end());
  state.working_size = std::max(state.working_size, range.end());
  stats_->Add(ids_.bytes_written, range.length);
}

IntentionsList FileStore::FlushWriter(const FileId& file, FileState& state, Writer& writer) {
  Cpu(kCommitBaseInstructions);
  IntentionsList intentions;
  intentions.file = file;
  intentions.base_version = state.inode.version;
  intentions.commit_version = state.inode.commit_version + 1;
  intentions.new_size = std::max(state.inode.size, writer.max_extent);
  intentions.ranges = writer.dirty.ranges();

  for (const auto& [slot, shadow] : writer.shadow_pages) {
    Cpu(kCommitPerPageInstructions);
    PageRef to_flush;
    if (OtherWriterOnPage(state, writer.owner, slot)) {
      // Figure 4(b): records from other writers share this physical page, so
      // merge only this writer's byte ranges onto the previous version.
      stats_->Add(ids_.commit_diffed_pages);
      uint64_t base_version = 0;
      to_flush = StableCommittedPage(file, state, slot, &base_version);
      // The install-time re-merge check compares against the OLDEST base any
      // page was merged on.
      intentions.base_version = std::min(intentions.base_version, base_version);
      auto wp = state.working_pages.find(slot);
      assert(wp != state.working_pages.end());
      int64_t copied = 0;
      PageData& flush_buf = MutablePage(to_flush);
      for (const ByteRange& r : writer.dirty.IntersectionsWith(PageSpan(slot))) {
        int64_t in_page = r.start - PageSpan(slot).start;
        std::memcpy(flush_buf.data() + in_page, wp->second->data() + in_page, r.length);
        copied += r.length;
      }
      Cpu(kDiffPerPageInstructions +
                             static_cast<int64_t>(kDiffInstructionsPerByte *
                                                  static_cast<double>(copied)));
    } else {
      // Figure 4(a): this writer is alone on the page; share the working
      // image as the flush snapshot. A writer arriving during the disk write
      // cannot leak uncommitted bytes into it: its modification clones the
      // page (copy-on-write) because the ref is now shared.
      stats_->Add(ids_.commit_direct_pages);
      auto wp = state.working_pages.find(slot);
      assert(wp != state.working_pages.end());
      to_flush = wp->second;
    }
    volume_->disk().Write(shadow, std::move(to_flush), "data");
    intentions.updates.push_back(PageUpdate{slot, shadow});
  }
  return intentions;
}

void FileStore::InstallIntentions(const IntentionsList& intentions) {
  if (Audited()) {
    audit_->OnInstall(site_name_, intentions);
  }
  FileState& state = LoadState(intentions.file);
  const uint64_t version_at_entry = state.inode.version;
  // Bump the version FIRST: concurrent version-validated page fetches must
  // notice this install the moment any pointer could have changed.
  state.inode.version++;
  // Advance the replication ordinal. max() keeps redo of an already-installed
  // intentions list from double-counting, and lets a replica applying an
  // out-of-band catch-up land exactly on the primary's ordinal.
  state.inode.commit_version =
      std::max(state.inode.commit_version + 1, intentions.commit_version);
  for (const PageUpdate& u : intentions.updates) {
    if (u.page_index < static_cast<int32_t>(state.inode.pages.size()) &&
        state.inode.pages[u.page_index] == u.new_page) {
      continue;  // Duplicate commit message / redo after crash (section 4.4).
    }
    PageRef installed_image;
    if (version_at_entry != intentions.base_version) {
      // Another writer committed this file between our flush and now; the
      // shadow page was merged against a stale base, so re-difference it
      // against the current committed image using the logged lock ranges
      // (the prepare log "stor[es] enough of the intentions lists and lock
      // lists ... to guarantee that the files can be committed").
      stats_->Add(ids_.commit_remerged_pages);
      PageRef base = StableCommittedPage(intentions.file, state, u.page_index, nullptr);
      PageRef shadow = volume_->disk().Read(u.new_page, "reread");
      PageData& base_buf = MutablePage(base);
      for (const ByteRange& r : intentions.ranges) {
        ByteRange piece = r.Intersect(PageSpan(u.page_index));
        if (piece.empty()) {
          continue;
        }
        int64_t in_page = piece.start - PageSpan(u.page_index).start;
        std::memcpy(base_buf.data() + in_page, shadow->data() + in_page, piece.length);
      }
      installed_image = base;
      volume_->disk().Write(u.new_page, std::move(base), "data");
    }
    PageId old = kNoPage;
    if (u.page_index < static_cast<int32_t>(state.inode.pages.size())) {
      old = state.inode.pages[u.page_index];
    } else {
      state.inode.pages.resize(u.page_index + 1, kNoPage);
    }
    state.inode.pages[u.page_index] = u.new_page;
    if (old != kNoPage && old != u.new_page) {
      volume_->FreePage(old);
    }
    pool_->Erase(BufferPool::Key{intentions.file, u.page_index});
    // A working page may have been created from the PREVIOUS committed image
    // while this install was in flight (a writer of a different record on
    // the page). Normally the installing writer's bytes are already in the
    // working page (it wrote through it); but in crash-recovery redo there
    // is no writer state, so the working page would freeze the pre-commit
    // image. Patch the installed ranges into the working page wherever no
    // live writer owns them.
    auto wp = state.working_pages.find(u.page_index);
    if (wp != state.working_pages.end()) {
      ByteRange span = PageSpan(u.page_index);
      RangeSet to_patch;
      for (const ByteRange& r : intentions.ranges) {
        ByteRange piece = r.Intersect(span);
        if (!piece.empty()) {
          to_patch.Add(piece);
        }
      }
      for (const Writer& w : state.writers) {
        for (const ByteRange& owned : w.dirty.ranges()) {
          to_patch.Remove(owned);
        }
      }
      if (!to_patch.empty()) {
        if (installed_image == nullptr) {
          installed_image = volume_->disk().Read(u.new_page, "reread");
        }
        // Re-find: the read above may yield; the map node is stable but the
        // entry could have been erased by a concurrent resolution.
        wp = state.working_pages.find(u.page_index);
        if (wp != state.working_pages.end()) {
          PageData& working_buf = MutablePage(wp->second);
          for (const ByteRange& piece : to_patch.ranges()) {
            int64_t in_page = piece.start - span.start;
            std::memcpy(working_buf.data() + in_page, installed_image->data() + in_page,
                        piece.length);
          }
          stats_->Add(ids_.install_working_page_patches);
        }
      }
    }
  }
  state.inode.size = std::max(state.inode.size, intentions.new_size);
  state.working_size = std::max(state.working_size, state.inode.size);
  // The atomic switch: one write replaces the descriptor block (section 4).
  volume_->WriteInode(state.inode);
  stats_->Add(ids_.commits_installed);
}

void FileStore::FinishCommit(const FileId& file, FileState& state, const LockOwner& owner) {
  Writer* w = FindWriter(state, owner);
  if (w == nullptr) {
    return;
  }
  std::vector<int32_t> slots;
  for (const auto& [slot, shadow] : w->shadow_pages) {
    slots.push_back(slot);
  }
  // Remove the writer before deciding which working pages can retire.
  std::erase_if(state.writers, [&](const Writer& x) { return x.owner.SameWriterAs(owner); });
  for (int32_t slot : slots) {
    bool still_written = false;
    for (const Writer& other : state.writers) {
      if (other.dirty.Intersects(PageSpan(slot))) {
        still_written = true;
        break;
      }
    }
    auto wp = state.working_pages.find(slot);
    if (!still_written && wp != state.working_pages.end()) {
      // The working image is now exactly the committed image; keep it as the
      // clean buffered copy (the LRU behaviour section 6.3 relies on).
      pool_->Insert(BufferPool::Key{file, slot}, std::move(wp->second));
      state.working_pages.erase(wp);
    }
  }
}

std::optional<int64_t> FileStore::OpenFile(const FileId& file) {
  if (!Exists(file)) {
    return std::nullopt;
  }
  FileState& state = LoadState(file);
  return state.working_size;
}

bool FileStore::Truncate(const FileId& file, int64_t size) {
  FileState& state = LoadState(file);
  if (!state.writers.empty() || size < 0 || size > state.inode.size) {
    return false;
  }
  int32_t keep_pages =
      size == 0 ? 0 : static_cast<int32_t>((size + page_size() - 1) / page_size());
  while (static_cast<int32_t>(state.inode.pages.size()) > keep_pages) {
    PageId page = state.inode.pages.back();
    state.inode.pages.pop_back();
    if (page != kNoPage) {
      volume_->FreePage(page);
    }
    pool_->Erase(BufferPool::Key{file, static_cast<int32_t>(state.inode.pages.size())});
  }
  state.inode.size = size;
  state.inode.version++;
  state.working_size = size;
  volume_->WriteInode(state.inode);
  stats_->Add(ids_.truncates);
  return true;
}

IntentionsList FileStore::CommitWriter(const FileId& file, const LockOwner& writer) {
  FileState& state = LoadState(file);
  Writer* w = FindWriter(state, writer);
  if (w == nullptr || w->resolving) {
    IntentionsList empty;
    empty.file = file;
    return empty;
  }
  w->resolving = true;
  if (Audited()) {
    audit_->OnSingleFileCommit(site_name_, file, writer);
  }
  IntentionsList intentions = FlushWriter(file, state, *w);
  InstallIntentions(intentions);
  FinishCommit(file, state, writer);
  return intentions;
}

void FileStore::FinishWriterCommit(const FileId& file, const LockOwner& writer) {
  FileState* state = FindState(file);
  if (state != nullptr) {
    FinishCommit(file, *state, writer);
  }
}

std::optional<IntentionsList> FileStore::PrepareWriter(const FileId& file,
                                                       const LockOwner& writer) {
  FileState& state = LoadState(file);
  Writer* w = FindWriter(state, writer);
  if (w == nullptr || w->resolving) {
    return std::nullopt;
  }
  w->resolving = true;
  IntentionsList intentions = FlushWriter(file, state, *w);
  // The writer survives until phase two installs or discards the
  // intentions; later resolution calls may proceed.
  w->resolving = false;
  if (Audited() && writer.txn.valid()) {
    audit_->OnPrepareFlushed(site_name_, writer.txn, intentions);
  }
  return intentions;
}

bool FileStore::AbortWriter(const FileId& file, const LockOwner& writer) {
  FileState* state = FindState(file);
  if (state == nullptr) {
    return true;
  }
  Writer* w = FindWriter(*state, writer);
  if (w == nullptr) {
    return true;
  }
  if (w->resolving) {
    return false;  // A resolution (e.g. a prepare flush) is in flight; retry.
  }
  w->resolving = true;
  if (Audited() && writer.txn.valid()) {
    audit_->OnAbortWriterEffect(site_name_, file, writer.txn);
  }
  Cpu(kCommitBaseInstructions / 2);
  for (const auto& [slot, shadow] : w->shadow_pages) {
    auto wp = state->working_pages.find(slot);
    if (OtherWriterOnPage(*state, writer, slot)) {
      // Conflicting modifications exist: re-fetch the old version and
      // overwrite just this writer's records with their original contents
      // (section 5.2's abort path).
      PageRef previous = StableCommittedPage(file, *state, slot, nullptr);
      assert(wp != state->working_pages.end());
      int64_t copied = 0;
      PageData& working_buf = MutablePage(wp->second);
      for (const ByteRange& r : w->dirty.IntersectionsWith(PageSpan(slot))) {
        int64_t in_page = r.start - PageSpan(slot).start;
        std::memcpy(working_buf.data() + in_page, previous->data() + in_page, r.length);
        copied += r.length;
      }
      Cpu(kDiffPerPageInstructions +
                             static_cast<int64_t>(kDiffInstructionsPerByte *
                                                  static_cast<double>(copied)));
    } else if (wp != state->working_pages.end()) {
      // Nobody else on the page: discard the working image outright.
      state->working_pages.erase(wp);
    }
    volume_->FreePage(shadow);
    stats_->Add(ids_.shadow_pages_discarded);
  }
  std::erase_if(state->writers, [&](const Writer& x) { return x.owner.SameWriterAs(writer); });
  int64_t size = state->inode.size;
  for (const Writer& other : state->writers) {
    size = std::max(size, other.max_extent);
  }
  state->working_size = size;
  stats_->Add(ids_.aborts);
  return true;
}

void FileStore::DiscardIntentions(const IntentionsList& intentions) {
  if (Audited()) {
    audit_->OnDiscard(site_name_, intentions);
  }
  if (sim_->trace_echo()) {
    sim_->Trace(site_name_, "discard %s: %zu updates", ToString(intentions.file).c_str(),
                intentions.updates.size());
  }
  for (const PageUpdate& u : intentions.updates) {
    if (volume_->IsAllocated(u.new_page)) {
      volume_->FreePage(u.new_page);
    }
  }
}

std::vector<std::pair<TxnId, ByteRange>> FileStore::TransactionalDirtyOfOthers(
    const FileId& file, const ByteRange& range, const LockOwner& owner) const {
  std::vector<std::pair<TxnId, ByteRange>> out;
  const FileState* state = FindState(file);
  if (state == nullptr) {
    return out;
  }
  for (const Writer& w : state->writers) {
    if (!w.owner.txn.valid() || w.owner.SameAs(owner)) {
      continue;
    }
    for (const ByteRange& r : w.dirty.IntersectionsWith(range)) {
      out.emplace_back(w.owner.txn, r);
    }
  }
  return out;
}

std::vector<ByteRange> FileStore::AdoptDirtyRanges(const FileId& file, const ByteRange& range,
                                                   const LockOwner& adopter) {
  FileState* state = FindState(file);
  if (state == nullptr) {
    return {};
  }
  std::vector<ByteRange> adopted;
  for (Writer& w : state->writers) {
    if (w.owner.SameWriterAs(adopter) || w.resolving || w.owner.txn.valid()) {
      // Rule 2 adopts only CONVENTIONAL (non-transaction) uncommitted data.
      // A transaction's dirty records are guarded by its own retained locks
      // and resolve with its commit or abort — never by adoption.
      continue;
    }
    std::vector<ByteRange> pieces = w.dirty.IntersectionsWith(range);
    if (pieces.empty()) {
      continue;
    }
    for (const ByteRange& piece : pieces) {
      w.dirty.Remove(piece);
      adopted.push_back(piece);
    }
    // Release the donor's shadow claims on pages it no longer writes.
    for (auto it = w.shadow_pages.begin(); it != w.shadow_pages.end();) {
      if (!w.dirty.Intersects(PageSpan(it->first))) {
        volume_->FreePage(it->second);
        it = w.shadow_pages.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (adopted.empty()) {
    return adopted;
  }
  Writer& a = WriterFor(*state, adopter);
  for (const ByteRange& piece : adopted) {
    a.dirty.Add(piece);
    a.max_extent = std::max(a.max_extent, piece.end());
    int32_t first = static_cast<int32_t>(piece.start / page_size());
    int32_t last = static_cast<int32_t>((piece.end() - 1) / page_size());
    for (int32_t slot = first; slot <= last; ++slot) {
      if (!a.shadow_pages.count(slot)) {
        a.shadow_pages[slot] = volume_->AllocPage();
      }
    }
  }
  // Donors left with nothing drop out of the writer list.
  std::erase_if(state->writers, [](const Writer& w) {
    return w.dirty.empty() && w.shadow_pages.empty();
  });
  stats_->Add(ids_.rule2_adoptions);
  return adopted;
}

bool FileStore::HasUncommitted(const FileId& file, const LockOwner& writer) const {
  const FileState* state = FindState(file);
  if (state == nullptr) {
    return false;
  }
  for (const Writer& w : state->writers) {
    if (w.owner.SameWriterAs(writer) && !w.dirty.empty()) {
      return true;
    }
  }
  return false;
}

bool FileStore::HasAnyWriters(const FileId& file) const {
  const FileState* state = FindState(file);
  return state != nullptr && !state->writers.empty();
}

void FileStore::PrefetchRange(const FileId& file, const ByteRange& range) {
  const FileState* state = FindState(file);
  if (state == nullptr || range.empty()) {
    return;
  }
  int32_t first = static_cast<int32_t>(range.start / page_size());
  int32_t last = static_cast<int32_t>((range.end() - 1) / page_size());
  for (int32_t slot = first; slot <= last; ++slot) {
    if (slot >= static_cast<int32_t>(state->inode.pages.size()) ||
        state->inode.pages[slot] == kNoPage) {
      continue;
    }
    if (state->working_pages.count(slot) != 0) {
      continue;  // Already resident with uncommitted content.
    }
    BufferPool::Key key{file, slot};
    if (pool_->Lookup(key) != nullptr) {
      continue;
    }
    stats_->Add(ids_.prefetches);
    volume_->disk().SubmitRead(state->inode.pages[slot], "prefetch",
                               [this, key](PageRef data) {
                                 pool_->Insert(key, std::move(data));
                               });
  }
}

PageRef FileStore::CommittedPageImage(const FileId& file, int32_t slot) {
  FileState& state = LoadState(file);
  return StableCommittedPage(file, state, slot, nullptr);
}

std::vector<FileId> FileStore::FilesWithUncommitted(const LockOwner& writer) const {
  std::vector<FileId> out;
  for (const auto& [file, state] : files_) {
    for (const Writer& w : state.writers) {
      if (w.owner.SameWriterAs(writer) && !w.dirty.empty()) {
        out.push_back(file);
        break;
      }
    }
  }
  return out;
}

void FileStore::OnCrash() {
  // hook-ok volatile teardown; Kernel::OnCrash reports the crash through
  // OnSiteCrash before it tears the stores down.
  files_.clear();
}

std::vector<PageId> FileStore::PagesNamedBy(const IntentionsList& intentions) {
  std::vector<PageId> out;
  for (const PageUpdate& u : intentions.updates) {
    out.push_back(u.new_page);
  }
  return out;
}

}  // namespace locus
