#include "src/fs/file_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <iterator>
#include <ranges>
#include <span>

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
  ids_.install_groups = stats_->Intern("fs.install.groups");
  ids_.install_grouped = stats_->Intern("fs.install.grouped");
  ids_.truncates = stats_->Intern("fs.truncates");
  ids_.aborts = stats_->Intern("fs.aborts");
  ids_.rule2_adoptions = stats_->Intern("fs.rule2_adoptions");
  ids_.prefetches = stats_->Intern("fs.prefetches");
}

void FileStore::Cpu(int64_t instructions) {
  stats_->Add(ids_.cpu, instructions);
  sim_->BurnInstructions(instructions);
}

PageRef FileStore::FlushedImage(const FileState& state, const PageUpdate& u) const {
  for (const Writer& w : state.writers) {
    auto shadow = w.shadow_pages.find(u.page_index);
    if (shadow != w.shadow_pages.end() && shadow->second == u.new_page) {
      auto image = w.flushed.find(u.page_index);
      return image == w.flushed.end() ? nullptr : image->second;
    }
  }
  return nullptr;
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
  FileState state(sim_);
  state.inode = inode;
  state.working_size = 0;
  // hook-ok a fresh empty inode no transaction can reach until SysCreat
  // publishes the catalog entry naming it (reported as catalog.entry).
  files_.insert_or_assign(id, std::move(state));
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

uint64_t FileStore::InstalledCommitVersion(const FileId& file) {
  return LoadInstalled(file).inode.commit_version;
}

uint64_t FileStore::DurableCommitVersion(const FileId& file) const {
  const FileState* state = FindState(file);
  if (state != nullptr) {
    return state->durable_commit_version;
  }
  const DiskInode* inode = volume_->PeekInode(file.ino);
  return inode == nullptr ? 0 : inode->commit_version;
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
  FileState state(sim_);
  state.inode = *inode;
  state.durable_commit_version = inode->commit_version;
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
  if (spare_writers_.empty()) {
    state.writers.emplace_back();
  } else {
    state.writers.splice(state.writers.end(), spare_writers_, spare_writers_.begin());
  }
  state.writers.back().Reuse(owner);
  return state.writers.back();
}

void FileStore::RetireWriters(FileState& state, const LockOwner& owner) {
  for (auto it = state.writers.begin(); it != state.writers.end();) {
    auto next = std::next(it);
    if (it->owner.SameWriterAs(owner)) {
      it->flushed.clear();  // Resolved: its flush snapshots go.
      spare_writers_.splice(spare_writers_.end(), state.writers, it);
    }
    it = next;
  }
}

FileStore::Writer* FileStore::FindWriter(FileState& state, const LockOwner& owner) {
  for (Writer& w : state.writers) {
    if (w.owner.SameWriterAs(owner)) {
      return &w;
    }
  }
  return nullptr;
}

PageId FileStore::PageAt(const FileState& state, int32_t slot) {
  return slot < static_cast<int32_t>(state.inode.pages.size()) ? state.inode.pages[slot]
                                                                : kNoPage;
}

PageRef FileStore::CommittedPage(const FileId& file, const FileState& state, int32_t slot) {
  const PageId page = PageAt(state, slot);
  if (page == kNoPage) {
    return MakePage(PageData(page_size(), 0));
  }
  BufferPool::Key key{file, slot};
  if (PageRef cached = pool_->Lookup(key)) {
    return cached;
  }
  // The disk read blocks; a commit install may replace the page pointer
  // meanwhile. Cache the image only if it is still current — a stale insert
  // would replace the page the install buffered. A group raises the version
  // when it starts and replaces each slot's pointer later, so a read that
  // starts inside a group checks the pointer as well.
  uint64_t version_before = state.inode.version;
  PageRef data = volume_->disk().Read(page, "data");
  if (state.inode.version == version_before && PageAt(state, slot) == page) {
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
    PageId page = PageAt(state, slot);
    PageRef data = CommittedPage(file, state, slot);
    if (state.inode.version == version && PageAt(state, slot) == page) {
      if (version_out != nullptr) {
        *version_out = ImageVersion(state, slot);
      }
      return data;
    }
  }
}

uint64_t FileStore::ImageVersion(const FileState& state, int32_t slot) const {
  if (state.installing &&
      std::ranges::binary_search(std::span(state.slot_table).subspan(state.install_cursor), slot,
                                 {}, &SlotUpdate::slot)) {
    return state.group_base_version;
  }
  return state.inode.version;
}

bool FileStore::OwnedByLiveWriter(const FileState& state, const std::vector<ByteRange>& ranges,
                                  const ByteRange& span) const {
  for (const ByteRange& r : ranges) {
    ByteRange piece = r.Intersect(span);
    if (piece.empty()) {
      continue;
    }
    bool owned = false;
    for (const Writer& w : state.writers) {
      for (const ByteRange& mine : w.dirty.ranges()) {
        owned = owned || mine.Contains(piece);
      }
    }
    if (!owned) {
      return false;
    }
  }
  return true;
}

std::vector<uint8_t> FileStore::WorkingBytes(const FileState& state,
                                             const ByteRange& range) const {
  std::vector<uint8_t> out(range.length);
  int32_t first = static_cast<int32_t>(range.start / page_size());
  int32_t last = static_cast<int32_t>((range.end() - 1) / page_size());
  for (int32_t slot = first; slot <= last; ++slot) {
    ByteRange piece = PageSpan(slot).Intersect(range);
    auto wp = state.working_pages.find(slot);
    assert(wp != state.working_pages.end());
    std::memcpy(out.data() + (piece.start - range.start),
                wp->second->data() + (piece.start - PageSpan(slot).start), piece.length);
  }
  return out;
}

void FileStore::DropAdoptionsFrom(FileState& state, const LockOwner& donor) {
  for (Writer& w : state.writers) {
    std::erase_if(w.adopted,
                  [&](const AdoptedRecord& rec) { return rec.donor.SameWriterAs(donor); });
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

FileStore::FileState& FileStore::LoadInstalled(const FileId& file) {
  FileState* state = &LoadState(file);
  const uint64_t received = state->replica_installs_queued;
  while (state->replica_installs_done < received) {
    state->install_done.Wait();
    state = &LoadState(file);
  }
  return *state;
}

std::vector<uint8_t> FileStore::Read(const FileId& file, const ByteRange& range) {
  FileState& state = LoadInstalled(file);
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
      // shared with the pool/disk; MutableImage below clones before the write.
      PageRef image = StableCommittedPage(file, state, slot, nullptr);
      wp = state.working_pages.find(slot);  // The fetch yielded; re-check.
      if (wp == state.working_pages.end()) {
        wp = state.working_pages.try_emplace(slot, std::move(image)).first;
      }
    }
    if (auto [shadow, fresh] = w.shadow_pages.try_emplace(slot, kNoPage); fresh) {
      shadow->second = volume_->AllocPage();
      stats_->Add(ids_.shadow_pages_allocated);
    }
    ByteRange piece = PageSpan(slot).Intersect(range);
    int64_t in_page = piece.start - PageSpan(slot).start;
    std::memcpy(volume_->disk().MutableImage(wp->second).data() + in_page,
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

  // By index, reading each element afresh: the loop yields (disk I/O).
  for (size_t k = 0; k < writer.shadow_pages.size(); ++k) {
    const auto [slot, shadow] = *(writer.shadow_pages.begin() + k);
    Cpu(kCommitPerPageInstructions);
    auto wp = state.working_pages.find(slot);
    assert(wp != state.working_pages.end());
    if (OtherWriterOnPage(state, writer.owner, slot)) {
      // Figure 4(b): records from other writers share this physical page.
      // The install copies only this writer's byte ranges onto the version
      // current then; until then the intentions carry them, in the working
      // image (shared copy-on-write: a later write to the page clones it),
      // and the shadow page stays unwritten.
      stats_->Add(ids_.commit_diffed_pages);
      intentions.updates.push_back(PageUpdate{slot, shadow, wp->second});
      int64_t copied = 0;
      writer.dirty.ForEachIntersection(PageSpan(slot),
                                       [&](const ByteRange& r) { copied += r.length; });
      Cpu(kDiffPerPageInstructions +
          static_cast<int64_t>(kDiffInstructionsPerByte * static_cast<double>(copied)));
      continue;
    }
    // Figure 4(a): this writer is alone on the page; share the working image
    // as the flush snapshot. A writer arriving during the disk write cannot
    // leak uncommitted bytes into it: its modification clones the page
    // (copy-on-write) because the ref is now shared. The install-time
    // re-merge check compares against the OLDEST base any page was taken on.
    stats_->Add(ids_.commit_direct_pages);
    intentions.base_version = std::min(intentions.base_version, ImageVersion(state, slot));
    // The writer keeps the image it flushes: the install publishes it into
    // the buffer pool and re-merges from it, so neither re-reads the shadow.
    writer.flushed.try_emplace(slot).first->second = wp->second;
    volume_->disk().Write(shadow, wp->second, "data");
    intentions.updates.push_back(PageUpdate{slot, shadow, nullptr});
  }
  return intentions;
}

void FileStore::InstallIntentions(const IntentionsList& intentions,
                                  std::vector<PageUpdate>* group_pages) {
  Install(intentions, InstallSource::kPrepareRecord, group_pages);
}

void FileStore::Install(const IntentionsList& intentions, InstallSource source,
                        std::vector<PageUpdate>* group_pages) {
  if (Audited()) {
    audit_->OnInstall(site_name_, intentions);
  }
  FileState& state = LoadState(intentions.file);
  PendingInstall self{&intentions, source};
  state.install_queue.push_back(&self);
  state.replica_installs_queued += source == InstallSource::kReplica ? 1 : 0;
  // Group commit for installs, as Volume::ForceCovering does for log forces:
  // whoever finds no group in flight leads every install queued so far.
  // Only a site crash kills a process in here, and it drops the FileState
  // with its queue.
  bool led = false;
  while (!self.done) {
    if (state.installing) {
      state.install_done.Wait();
      continue;
    }
    state.installing = true;
    state.group.swap(state.install_queue);
    InstallGroup(intentions.file, state);
    for (PendingInstall* member : state.group) {
      member->done = true;
      state.replica_installs_done += member->source == InstallSource::kReplica ? 1 : 0;
    }
    state.group.clear();
    state.installing = false;
    state.install_done.NotifyAll();
    led = true;
  }
  if (group_pages == nullptr) {
    return;
  }
  group_pages->clear();
  if (!led) {
    return;
  }
  // The leader reports every slot its group named (the table stays until
  // the next group starts): one propagation carries the group's one
  // replication ordinal.
  for (const SlotUpdate& e : state.slot_table) {
    if (group_pages->empty() || group_pages->back().page_index != e.slot) {
      group_pages->push_back(PageUpdate{e.slot, state.inode.pages[e.slot], nullptr});
    }
  }
}

void FileStore::InstallGroup(const FileId& file, FileState& state) {
  const uint64_t version_at_entry = state.inode.version;
  state.group_base_version = version_at_entry;
  // Bump the version FIRST: concurrent version-validated page fetches must
  // notice this install the moment any pointer could have changed.
  state.inode.version++;
  // Advance the replication ordinal once for the group: its leader sends
  // replicas the group's pages as one propagation. max() keeps redo of an
  // already-installed intentions list from double-counting, and lets a
  // replica applying an out-of-band catch-up land exactly on the primary's
  // ordinal.
  uint64_t commit_version = state.inode.commit_version + 1;
  int64_t new_size = state.inode.size;
  state.slot_table.clear();
  for (size_t m = 0; m < state.group.size(); ++m) {
    const IntentionsList& il = *state.group[m]->intentions;
    commit_version = std::max(commit_version, il.commit_version);
    new_size = std::max(new_size, il.new_size);
    for (const PageUpdate& u : il.updates) {
      if (state.group[m]->source == InstallSource::kPrepareRecord) {
        held_pages_.try_emplace(u.new_page, false);
      }
      state.slot_table.push_back(SlotUpdate{u.page_index, m, &il, &u});
    }
  }
  // By slot, and within a slot in queue order (a member names a slot once).
  std::ranges::sort(state.slot_table, {}, [](const SlotUpdate& e) {
    return std::pair{e.slot, e.member};
  });
  state.inode.commit_version = commit_version;
  // By index: the table keeps its storage, and the loop yields (disk I/O).
  const std::vector<SlotUpdate>& table = state.slot_table;
  for (size_t k = 0; k < table.size();) {
    size_t end = k + 1;
    while (end < table.size() && table[end].slot == table[k].slot) {
      ++end;
    }
    state.install_cursor = k;
    InstallSlot(file, state, k, end, version_at_entry);
    k = end;
  }
  state.install_cursor = table.size();
  state.inode.size = std::max(state.inode.size, new_size);
  state.working_size = std::max(state.working_size, state.inode.size);
  // The atomic switch: one write replaces the descriptor block (section 4).
  volume_->WriteInode(state.inode);
  state.durable_commit_version = commit_version;
  // Only now may another writer take a replaced page: a crash before this
  // write completed leaves a descriptor that still names the old pages.
  for (PageId page : state.replaced) {
    FreeReplacedPage(page);
  }
  state.replaced.clear();
  const auto members = static_cast<int64_t>(state.group.size());
  stats_->Add(ids_.commits_installed, members);
  if (members > 1) {
    stats_->Add(ids_.install_groups);
    stats_->Add(ids_.install_grouped, members);
  }
}

void FileStore::InstallSlot(const FileId& file, FileState& state, size_t begin, size_t end,
                            uint64_t version_at_entry) {
  const int32_t slot = state.slot_table[begin].slot;
  const ByteRange span = PageSpan(slot);
  const PageId current = PageAt(state, slot);
  // The members with this slot to install, in queue order. A page the slot
  // already names is a duplicate commit message or redo (section 4.4).
  auto installs = [&] {
    return std::span(state.slot_table).subspan(begin, end - begin) |
           std::views::filter([current](const SlotUpdate& e) {
             return e.update->new_page != current;
           });
  };
  if (installs().empty()) {
    return;
  }
  const SlotUpdate& first = installs().front();
  PageId target = kNoPage;  // The last member's shadow page receives the slot.
  for (const SlotUpdate& e : installs()) {
    target = e.update->new_page;
  }
  // The image to publish. If the first member flushed its shadow page
  // against the current image (Figure 4a), its flush image already is that
  // image and its shadow page holds it; otherwise every member's records are
  // copied onto the current committed image (Figure 4b; the prepare log
  // "stor[es] enough of the intentions lists and lock lists ... to guarantee
  // that the files can be committed"). A member's records are the bytes its
  // intentions carry, else its flush image; redo after a crash has no writer,
  // so it reads a flushed shadow page back.
  const bool first_current = first.update->records == nullptr &&
                             first.intentions->base_version == version_at_entry;
  PageRef image = first_current ? FlushedImage(state, *first.update) : nullptr;
  for (const SlotUpdate& e : installs()) {
    if (first_current && &e == &first) {
      continue;
    }
    if (image == nullptr) {
      image = first_current ? volume_->disk().Read(first.update->new_page, "reread")
                            : StableCommittedPage(file, state, slot, nullptr);
    }
    PageRef mine = e.update->records;
    if (mine == nullptr) {
      mine = FlushedImage(state, *e.update);
    }
    if (mine == nullptr) {
      mine = volume_->disk().Read(e.update->new_page, "reread");
    }
    PageData& buf = volume_->disk().MutableImage(image);
    for (const ByteRange& r : e.intentions->ranges) {
      ByteRange piece = r.Intersect(span);
      if (!piece.empty()) {
        int64_t in_page = piece.start - span.start;
        std::memcpy(buf.data() + in_page, mine->data() + in_page, piece.length);
      }
    }
  }
  if (!first_current || target != first.update->new_page) {
    stats_->Add(ids_.commit_remerged_pages);
    volume_->disk().Write(target, image, "data");
  }
  if (slot >= static_cast<int32_t>(state.inode.pages.size())) {
    state.inode.pages.resize(slot + 1, kNoPage);
  }
  const PageId old = state.inode.pages[slot];
  state.inode.pages[slot] = target;
  if (auto held = held_pages_.find(target); held != held_pages_.end()) {
    held->second = false;  // Published again by redo.
  }
  if (old != kNoPage && old != target) {
    state.replaced.push_back(old);
  }
  // The other members' shadow pages for the slot are superseded.
  for (const SlotUpdate& e : installs()) {
    if (e.update->new_page != target) {
      state.replaced.push_back(e.update->new_page);
    }
  }
  // The published image is the slot's clean buffered copy from here on
  // (section 6.3's common case). Redo without one drops the stale copy.
  if (image != nullptr) {
    pool_->Insert(BufferPool::Key{file, slot}, image);
  } else {
    pool_->Erase(BufferPool::Key{file, slot});
  }
  // A working page may have been created from the PREVIOUS committed image
  // while this install was in flight (a writer of a different record on
  // the page). Normally the installing writers' bytes are already in the
  // working page (they wrote through it); but in crash-recovery redo there
  // is no writer state, so the working page would freeze the pre-commit
  // image. Patch the installed ranges into the working page wherever no
  // live writer owns them.
  if (state.working_pages.find(slot) == state.working_pages.end()) {
    return;
  }
  RangeSet to_patch;
  for (const SlotUpdate& e : installs()) {
    if (OwnedByLiveWriter(state, e.intentions->ranges, span)) {
      continue;
    }
    for (const ByteRange& r : e.intentions->ranges) {
      ByteRange piece = r.Intersect(span);
      if (!piece.empty()) {
        to_patch.Add(piece);
      }
    }
  }
  if (to_patch.empty()) {
    return;
  }
  for (const Writer& w : state.writers) {
    for (const ByteRange& owned : w.dirty.ranges()) {
      to_patch.Remove(owned);
    }
  }
  if (to_patch.empty()) {
    return;
  }
  if (image == nullptr) {
    image = volume_->disk().Read(target, "reread");
  }
  // Re-find: the read above may yield; the map node is stable but the
  // entry could have been erased by a concurrent resolution.
  auto wp = state.working_pages.find(slot);
  if (wp != state.working_pages.end()) {
    PageData& working_buf = volume_->disk().MutableImage(wp->second);
    for (const ByteRange& piece : to_patch.ranges()) {
      int64_t in_page = piece.start - span.start;
      std::memcpy(working_buf.data() + in_page, image->data() + in_page, piece.length);
    }
    stats_->Add(ids_.install_working_page_patches);
  }
}

FileStore::ReplicaInstall FileStore::InstallReplicaPages(
    const FileId& file, uint64_t commit_version, int64_t committed_size,
    std::span<const std::pair<int32_t, PageRef>> pages, bool catchup) {
  FileState& state = LoadState(file);
  if (commit_version != 0 || catchup) {
    // The ordinal of the last install applied or queued: the group in
    // flight has already raised the descriptor's.
    uint64_t latest = state.inode.commit_version;
    for (const PendingInstall* queued : state.install_queue) {
      latest = std::max(latest, queued->intentions->commit_version);
    }
    if (commit_version <= latest) {
      return ReplicaInstall::kDuplicate;
    }
    if (!catchup && commit_version > latest + 1) {
      return ReplicaInstall::kGap;
    }
  }
  // Whole committed pages, merged like any member's records; each goes to a
  // fresh page. Queued before this process next yields, so the ordinal
  // check above stays true.
  IntentionsList intentions;
  intentions.file = file;
  intentions.commit_version = commit_version;
  intentions.new_size = committed_size;
  for (const auto& [slot, image] : pages) {
    ByteRange piece = PageSpan(slot).Intersect(ByteRange{0, committed_size});
    if (piece.empty()) {
      continue;
    }
    intentions.ranges.push_back(piece);
    intentions.updates.push_back(PageUpdate{slot, volume_->AllocPage(), image});
    stats_->Add(ids_.shadow_pages_allocated);
  }
  Install(intentions, InstallSource::kReplica, nullptr);
  return ReplicaInstall::kInstalled;
}

void FileStore::HoldIntentions(const IntentionsList& intentions) {
  for (const PageUpdate& u : intentions.updates) {
    held_pages_.try_emplace(u.new_page, false);
  }
}

void FileStore::FreeReplacedPage(PageId page) {
  if (auto held = held_pages_.find(page); held != held_pages_.end()) {
    held->second = true;
  } else {
    volume_->FreePage(page);
  }
}

void FileStore::ReleaseIntentions(const IntentionsList& intentions) {
  for (const PageUpdate& u : intentions.updates) {
    auto held = held_pages_.find(u.new_page);
    if (held == held_pages_.end()) {
      continue;
    }
    if (held->second) {
      volume_->FreePage(u.new_page);
    }
    // hook-ok page-allocation bookkeeping; the install that held the page
    // was reported through OnInstall.
    held_pages_.erase(held);
  }
}

void FileStore::FinishCommit(const FileId& file, FileState& state, const LockOwner& owner) {
  Writer* w = FindWriter(state, owner);
  if (w == nullptr) {
    return;
  }
  // Remove the writer before deciding which working pages can retire; its
  // retired record still lists the slots.
  RetireWriters(state, owner);
  for (const auto& [slot, shadow] : w->shadow_pages) {
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
  return LoadInstalled(file).working_size;
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
  if (!writer.txn.valid()) {
    DropAdoptionsFrom(state, writer);
  }
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
  // The group reads `intentions` only until it ends, before the leader
  // writes its pages into them.
  Install(intentions, InstallSource::kCommit, &intentions.updates);
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
  if (!writer.txn.valid()) {
    DropAdoptionsFrom(*state, writer);
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
  // By index, reading each element afresh: the loop yields (disk I/O).
  for (size_t k = 0; k < w->shadow_pages.size(); ++k) {
    const auto [slot, shadow] = *(w->shadow_pages.begin() + k);
    auto wp = state->working_pages.find(slot);
    if (OtherWriterOnPage(*state, writer, slot)) {
      // Conflicting modifications exist: re-fetch the old version and
      // overwrite just this writer's records with their original contents
      // (section 5.2's abort path).
      PageRef previous = StableCommittedPage(file, *state, slot, nullptr);
      wp = state->working_pages.find(slot);  // The fetch yielded; re-find.
      assert(wp != state->working_pages.end());
      int64_t copied = 0;
      PageData& working_buf = volume_->disk().MutableImage(wp->second);
      w->dirty.ForEachIntersection(PageSpan(slot), [&](const ByteRange& r) {
        int64_t in_page = r.start - PageSpan(slot).start;
        std::memcpy(working_buf.data() + in_page, previous->data() + in_page, r.length);
        copied += r.length;
      });
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
  std::vector<AdoptedRecord> adopted = std::move(w->adopted);
  RetireWriters(*state, writer);
  int64_t size = state->inode.size;
  for (const Writer& other : state->writers) {
    size = std::max(size, other.max_extent);
  }
  state->working_size = size;
  stats_->Add(ids_.aborts);
  // Rule-2 adoptions return to their writers as they were when adopted.
  for (const AdoptedRecord& rec : adopted) {
    Write(file, rec.donor, rec.offset, rec.bytes);
  }
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
  ReleaseIntentions(intentions);  // Never installed, so nothing was replaced.
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
  std::vector<AdoptedRecord> records;
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
      records.push_back({w.owner, piece.start, WorkingBytes(*state, piece)});
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
  std::move(records.begin(), records.end(), std::back_inserter(a.adopted));
  for (const ByteRange& piece : adopted) {
    a.dirty.Add(piece);
    a.max_extent = std::max(a.max_extent, piece.end());
    int32_t first = static_cast<int32_t>(piece.start / page_size());
    int32_t last = static_cast<int32_t>((piece.end() - 1) / page_size());
    for (int32_t slot = first; slot <= last; ++slot) {
      if (auto [shadow, fresh] = a.shadow_pages.try_emplace(slot, kNoPage); fresh) {
        shadow->second = volume_->AllocPage();
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

uint64_t FileStore::CommittedImage(const FileId& file, int64_t* size,
                                   std::vector<std::pair<int32_t, PageRef>>* pages) {
  for (;;) {
    FileState& state = LoadState(file);
    if (state.installing) {
      state.install_done.Wait();
      continue;
    }
    // The page fetches may block; retry if an install started meanwhile.
    const uint64_t version = state.inode.version;
    *size = state.inode.size;
    pages->clear();
    const auto slots = static_cast<int32_t>((*size + page_size() - 1) / page_size());
    for (int32_t slot = 0; slot < slots; ++slot) {
      pages->push_back({slot, CommittedPage(file, state, slot)});
    }
    if (state.inode.version == version) {
      return state.inode.commit_version;
    }
  }
}

std::vector<FileId> FileStore::FilesWithUncommitted(const LockOwner& writer) const {
  std::vector<FileId> out;
  for (const auto& [file, state] : files_) {
    for (const Writer& w : state.writers) {
      if ((w.owner.SameWriterAs(writer) && !w.dirty.empty()) ||
          std::ranges::any_of(w.adopted, [&](const AdoptedRecord& rec) {
            return rec.donor.SameWriterAs(writer);
          })) {
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
  // Recovery rebuilds allocation from the inodes and the prepare log.
  held_pages_.clear();
}

std::vector<PageId> FileStore::PagesNamedBy(const IntentionsList& intentions) {
  std::vector<PageId> out;
  for (const PageUpdate& u : intentions.updates) {
    out.push_back(u.new_page);
  }
  return out;
}

}  // namespace locus
