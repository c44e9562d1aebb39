#include "src/fs/buffer_pool.h"

#include <bit>

namespace locus {

BufferPool::BufferPool(int32_t capacity_pages)
    : capacity_(capacity_pages > 0 ? capacity_pages : 0),
      // At most half the index is in use, so probe runs stay short.
      index_(std::bit_ceil(static_cast<size_t>(capacity_) * 2 + 2), kNone),
      mask_(index_.size() - 1) {}

size_t BufferPool::Home(const Key& key) const {
  uint64_t h = (static_cast<uint64_t>(static_cast<uint32_t>(key.file.volume)) << 32) |
               static_cast<uint32_t>(key.file.ino);
  h = (h ^ (static_cast<uint64_t>(static_cast<uint32_t>(key.page_index)) << 17)) *
      0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(h >> 32) & mask_;
}

size_t BufferPool::Probe(const Key& key) const {
  size_t pos = Home(key);
  while (index_[pos] != kNone && slots_[index_[pos]].key != key) {
    pos = (pos + 1) & mask_;
  }
  return pos;
}

void BufferPool::Unindex(size_t pos) {
  // Backward-shift deletion: pull later members of the probe run into the
  // hole so every key stays reachable from its home without tombstones.
  size_t hole = pos;
  for (size_t next = (pos + 1) & mask_; index_[next] != kNone; next = (next + 1) & mask_) {
    size_t home = Home(slots_[index_[next]].key);
    // `next` may fill the hole only if its home is not in (hole, next].
    if (((next - home) & mask_) >= ((next - hole) & mask_)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = kNone;
}

bool BufferPool::Live(int32_t slot) const {
  return index_[Probe(slots_[slot].key)] == slot;
}

void BufferPool::LinkFront(int32_t slot) {
  slots_[slot].prev = kNone;
  slots_[slot].next = head_;
  if (head_ != kNone) {
    slots_[head_].prev = slot;
  } else {
    tail_ = slot;
  }
  head_ = slot;
}

void BufferPool::Unlink(int32_t slot) {
  Slot& s = slots_[slot];
  (s.prev != kNone ? slots_[s.prev].next : head_) = s.next;
  (s.next != kNone ? slots_[s.next].prev : tail_) = s.prev;
}

void BufferPool::Release(int32_t slot) {
  Unindex(Probe(slots_[slot].key));
  Unlink(slot);
  slots_[slot].data = nullptr;
  slots_[slot].next = free_;
  free_ = slot;
  --size_;
}

PageRef BufferPool::Lookup(const Key& key) {
  int32_t slot = index_[Probe(key)];
  if (slot == kNone) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  if (slot != head_) {
    Unlink(slot);
    LinkFront(slot);
  }
  if (Audited()) {
    audit_->OnPoolLookup(key.file, key.page_index, slots_[slot].data.get());
  }
  return slots_[slot].data;
}

void BufferPool::Insert(const Key& key, PageRef data) {
  if (capacity_ == 0) {
    return;
  }
  size_t pos = Probe(key);
  int32_t slot = index_[pos];
  if (slot != kNone) {
    slots_[slot].data = std::move(data);
    if (slot != head_) {
      Unlink(slot);
      LinkFront(slot);
    }
    if (Audited()) {
      audit_->OnPoolInsert(key.file, key.page_index, slots_[slot].data.get());
    }
    return;
  }
  if (size_ == capacity_) {
    if (Audited()) {
      audit_->OnPoolForget(slots_[tail_].key.file, slots_[tail_].key.page_index);
    }
    Release(tail_);
    pos = Probe(key);  // The erase may have shifted the run this key probes.
  }
  if (free_ != kNone) {
    slot = free_;
    free_ = slots_[slot].next;
  } else {
    slot = static_cast<int32_t>(slots_.size());  // The array grows to capacity.
    slots_.emplace_back();
  }
  slots_[slot].key = key;
  slots_[slot].data = std::move(data);
  LinkFront(slot);
  index_[pos] = slot;
  ++size_;
  if (Audited()) {
    audit_->OnPoolInsert(key.file, key.page_index, slots_[slot].data.get());
  }
}

void BufferPool::Erase(const Key& key) {
  int32_t slot = index_[Probe(key)];
  if (slot == kNone) {
    return;
  }
  if (Audited()) {
    audit_->OnPoolForget(key.file, key.page_index);
  }
  Release(slot);
}

void BufferPool::InvalidateFile(const FileId& file) {
  for (int32_t s = 0; s < static_cast<int32_t>(slots_.size()); ++s) {
    if (slots_[s].key.file == file && Live(s)) {
      if (Audited()) {
        audit_->OnPoolForget(slots_[s].key.file, slots_[s].key.page_index);
      }
      Release(s);
    }
  }
}

void BufferPool::Clear() {
  for (int32_t s = 0; s < static_cast<int32_t>(slots_.size()); ++s) {
    if (Live(s)) {
      if (Audited()) {
        audit_->OnPoolForget(slots_[s].key.file, slots_[s].key.page_index);
      }
      Release(s);
    }
  }
}

}  // namespace locus
