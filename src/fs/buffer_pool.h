// Per-site LRU buffer pool for clean copies of committed pages.
//
// Section 6.3: the page-differencing commit re-reads the previous version of
// a page unless a clean copy is still buffered; the paper's measurements had
// all pages in buffers thanks to LRU. The pool capacity is a knob in the
// Figure 6 / footnote 11 benches.
//
// Lookup/Insert/Erase are O(1): entries live in one array of at most
// `capacity` slots on a recency list linked by slot index (most recent
// first), and an open-addressing index (linear probing, backward-shift
// erase), built with the pool, maps keys to slots. A touch relinks a slot,
// an eviction or erase frees one for the next insert, and the array grows
// only until it holds `capacity` pages, so a warm pool allocates nothing.
// Pages are held by ref (PageRef): hits never copy page bytes.

#ifndef SRC_FS_BUFFER_POOL_H_
#define SRC_FS_BUFFER_POOL_H_

#include <cstdint>
#include <vector>

#include "src/audit/observer.h"
#include "src/base/ids.h"
#include "src/storage/disk.h"

namespace locus {

class BufferPool {
 public:
  struct Key {
    FileId file;
    int32_t page_index = 0;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  explicit BufferPool(int32_t capacity_pages);

  // Returns the cached clean copy (nullptr on miss) and refreshes its LRU
  // position.
  PageRef Lookup(const Key& key);
  // Inserts/replaces a clean copy, evicting the least recently used entry if
  // the pool is full.
  void Insert(const Key& key, PageRef data);
  void Erase(const Key& key);
  // Drops every page of `file` (file deleted or service migrated away).
  void InvalidateFile(const FileId& file);
  // Site crash: all buffers are volatile.
  void Clear();

  int32_t size() const { return size_; }
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

  // Protocol auditor checksumming cached pages (may be null).
  void set_auditor(ProtocolObserver* audit) { audit_ = audit; }

 private:
  static constexpr int32_t kNone = -1;

  struct Slot {
    Key key;
    PageRef data;
    int32_t prev = kNone;  // Toward the most recent.
    int32_t next = kNone;  // Toward the least recent; the free list's link.
  };

  bool Audited() const { return audit_ != nullptr && audit_->enabled(); }

  size_t Home(const Key& key) const;
  // Index position holding `key`'s slot, or the empty position that ends
  // its probe run.
  size_t Probe(const Key& key) const;
  // Removes the slot at index position `pos` from the index.
  void Unindex(size_t pos);
  // True if `slot` holds an entry (a freed slot keeps its old key, but the
  // index no longer leads to it).
  bool Live(int32_t slot) const;
  void LinkFront(int32_t slot);
  void Unlink(int32_t slot);
  // Drops the slot's page and index entry and returns it to the free list.
  void Release(int32_t slot);

  ProtocolObserver* audit_ = nullptr;
  int32_t capacity_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  std::vector<Slot> slots_;
  std::vector<int32_t> index_;  // Slot numbers; kNone marks an empty position.
  size_t mask_ = 0;
  int32_t head_ = kNone;  // Most recent.
  int32_t tail_ = kNone;  // Least recent.
  int32_t free_ = kNone;  // Released slots, linked through `next`.
  int32_t size_ = 0;
};

}  // namespace locus

#endif  // SRC_FS_BUFFER_POOL_H_
