// BufferPool (LRU clean-page cache, section 6.3) and Catalog (transparent
// namespace + replication metadata, sections 3.4 and 5.2) tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <utility>
#include <vector>

#include "src/audit/observer.h"

#include "src/fs/buffer_pool.h"
#include "src/fs/catalog.h"
#include "src/sim/random.h"

namespace locus {
namespace {

const FileId kF1{0, 1};
const FileId kF2{0, 2};

BufferPool::Key Key(const FileId& f, int32_t slot) { return BufferPool::Key{f, slot}; }
PageRef Page(uint8_t fill) { return MakePage(PageData(16, fill)); }

TEST(BufferPool, InsertLookupHitAndMiss) {
  BufferPool pool(4);
  EXPECT_EQ(pool.Lookup(Key(kF1, 0)), nullptr);
  pool.Insert(Key(kF1, 0), Page(1));
  PageRef hit = pool.Lookup(Key(kF1, 0));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[0], 1);
  EXPECT_EQ(pool.hits(), 1);
  EXPECT_EQ(pool.misses(), 1);
}

TEST(BufferPool, LruEvictionOrder) {
  BufferPool pool(2);
  pool.Insert(Key(kF1, 0), Page(1));
  pool.Insert(Key(kF1, 1), Page(2));
  pool.Lookup(Key(kF1, 0));            // Touch slot 0: slot 1 becomes LRU.
  pool.Insert(Key(kF1, 2), Page(3));   // Evicts slot 1.
  EXPECT_NE(pool.Lookup(Key(kF1, 0)), nullptr);
  EXPECT_EQ(pool.Lookup(Key(kF1, 1)), nullptr);
  EXPECT_NE(pool.Lookup(Key(kF1, 2)), nullptr);
  EXPECT_EQ(pool.size(), 2);
}

TEST(BufferPool, ReinsertReplacesContent) {
  BufferPool pool(2);
  pool.Insert(Key(kF1, 0), Page(1));
  pool.Insert(Key(kF1, 0), Page(9));
  EXPECT_EQ((*pool.Lookup(Key(kF1, 0)))[0], 9);
  EXPECT_EQ(pool.size(), 1);
}

TEST(BufferPool, InvalidateFileDropsOnlyThatFile) {
  BufferPool pool(8);
  pool.Insert(Key(kF1, 0), Page(1));
  pool.Insert(Key(kF1, 1), Page(2));
  pool.Insert(Key(kF2, 0), Page(3));
  pool.InvalidateFile(kF1);
  EXPECT_EQ(pool.Lookup(Key(kF1, 0)), nullptr);
  EXPECT_NE(pool.Lookup(Key(kF2, 0)), nullptr);
}

TEST(BufferPool, ZeroCapacityNeverCaches) {
  BufferPool pool(0);
  pool.Insert(Key(kF1, 0), Page(1));
  EXPECT_EQ(pool.Lookup(Key(kF1, 0)), nullptr);
}

TEST(BufferPool, ClearOnCrash) {
  BufferPool pool(4);
  pool.Insert(Key(kF1, 0), Page(1));
  pool.Clear();
  EXPECT_EQ(pool.size(), 0);
}

// Records the pool's forget hooks (evictions, erases, invalidations).
class ForgetRecorder : public ProtocolObserver {
 public:
  ForgetRecorder() : ProtocolObserver(true) {}
  void OnPoolForget(const FileId& file, int32_t page_index) override {
    forgotten.push_back(BufferPool::Key{file, page_index});
  }
  std::vector<BufferPool::Key> forgotten;
};

// The reference LRU the slot table must match: a recency list (front = most
// recent) and a map from key to list position.
class ReferenceLru {
 public:
  explicit ReferenceLru(int32_t capacity) : capacity_(capacity) {}

  PageRef Lookup(const BufferPool::Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses;
      return nullptr;
    }
    ++hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  void Insert(const BufferPool::Key& key, PageRef data, std::vector<BufferPool::Key>* forgotten) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(data);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (capacity_ <= 0) {
      return;
    }
    if (static_cast<int32_t>(index_.size()) == capacity_) {
      forgotten->push_back(lru_.back().first);
      index_.erase(lru_.back().first);
      lru_.pop_back();
    }
    lru_.emplace_front(key, std::move(data));
    index_[key] = lru_.begin();
  }
  void Erase(const BufferPool::Key& key, std::vector<BufferPool::Key>* forgotten) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      forgotten->push_back(key);
      lru_.erase(it->second);
      index_.erase(it);
    }
  }
  // `file` = nullptr clears everything.
  void Drop(const FileId* file, std::vector<BufferPool::Key>* forgotten) {
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (file == nullptr || it->first.file == *file) {
        forgotten->push_back(it->first);
        index_.erase(it->first);
        it = lru_.erase(it);
      } else {
        ++it;
      }
    }
  }
  int32_t size() const { return static_cast<int32_t>(index_.size()); }

  int64_t hits = 0;
  int64_t misses = 0;

 private:
  int32_t capacity_;
  std::list<std::pair<BufferPool::Key, PageRef>> lru_;
  std::map<BufferPool::Key, std::list<std::pair<BufferPool::Key, PageRef>>::iterator> index_;
};

// Random Lookup/Insert/Erase/InvalidateFile/Clear sequences over a few
// files and slots: every returned ref, the hit and miss counts, the size and
// every eviction match the reference LRU. InvalidateFile and Clear report
// their forgets in no promised order, so those are compared as sets.
TEST(BufferPool, MatchesAReferenceLruUnderRandomOperations) {
  for (int32_t capacity : {0, 1, 7}) {
    SCOPED_TRACE(capacity);
    BufferPool pool(capacity);
    ForgetRecorder recorder;
    pool.set_auditor(&recorder);
    ReferenceLru ref(capacity);
    Rng rng(static_cast<uint64_t>(capacity) + 1);
    auto sorted = [](std::vector<BufferPool::Key> keys) {
      std::sort(keys.begin(), keys.end());
      return keys;
    };
    for (int step = 0; step < 20000; ++step) {
      SCOPED_TRACE(step);
      BufferPool::Key key{FileId{0, static_cast<int32_t>(1 + rng.Below(3))},
                          static_cast<int32_t>(rng.Below(6))};
      std::vector<BufferPool::Key> expected;
      recorder.forgotten.clear();
      uint64_t op = rng.Below(100);
      if (op < 45) {
        ASSERT_EQ(pool.Lookup(key), ref.Lookup(key));
      } else if (op < 85) {
        PageRef page = Page(static_cast<uint8_t>(step));
        ref.Insert(key, page, &expected);
        pool.Insert(key, page);
      } else if (op < 95) {
        ref.Erase(key, &expected);
        pool.Erase(key);
      } else if (op < 99) {
        ref.Drop(&key.file, &expected);
        pool.InvalidateFile(key.file);
        expected = sorted(expected);
        recorder.forgotten = sorted(recorder.forgotten);
      } else {
        ref.Drop(nullptr, &expected);
        pool.Clear();
        expected = sorted(expected);
        recorder.forgotten = sorted(recorder.forgotten);
      }
      ASSERT_EQ(recorder.forgotten, expected);
      ASSERT_EQ(pool.size(), ref.size());
      ASSERT_EQ(pool.hits(), ref.hits);
      ASSERT_EQ(pool.misses(), ref.misses);
    }
  }
}

// --- Catalog ---

TEST(Catalog, HierarchyAndLookup) {
  Catalog cat;
  EXPECT_TRUE(cat.MakeDir("/usr"));
  EXPECT_TRUE(cat.MakeDir("/usr/data"));
  EXPECT_FALSE(cat.MakeDir("/nope/deep"));  // Parent missing.
  EXPECT_TRUE(cat.CreateFileEntry("/usr/data/f", {Replica{0, kF1}}));
  EXPECT_FALSE(cat.CreateFileEntry("/usr/data/f", {Replica{1, kF2}}));  // Conflict.
  EXPECT_FALSE(cat.CreateFileEntry("/usr/data/f/x", {}));  // Parent is a file.
  ASSERT_NE(cat.Lookup("/usr/data/f"), nullptr);
  EXPECT_EQ(cat.List("/usr/data").size(), 1u);
  EXPECT_EQ(cat.List("/usr").size(), 1u);  // Only the subdirectory's entry? No:
  // List returns direct children; /usr has one child directory entry path.
}

TEST(Catalog, RemoveOnlyFiles) {
  Catalog cat;
  cat.MakeDir("/d");
  cat.CreateFileEntry("/d/f", {Replica{0, kF1}});
  EXPECT_FALSE(cat.Remove("/d"));  // Directories are not Remove-able.
  EXPECT_TRUE(cat.Remove("/d/f"));
  EXPECT_FALSE(cat.Remove("/d/f"));
}

TEST(Catalog, ServingReplicaPrefersLocalSite) {
  Catalog cat;
  cat.CreateFileEntry("/r", {Replica{0, kF1}, Replica{2, kF2}});
  EXPECT_EQ(cat.ServingReplica("/r", 2)->site, 2);
  EXPECT_EQ(cat.ServingReplica("/r", 1)->site, 0);  // No local replica: first.
}

TEST(Catalog, OpenForUpdateDesignatesPrimaryAndPinsService) {
  Catalog cat;
  cat.CreateFileEntry("/r", {Replica{0, kF1}, Replica{2, kF2}});
  // First update open from site 2 designates site 2 as the primary.
  const Replica* primary = cat.OpenForUpdate("/r", 2);
  ASSERT_NE(primary, nullptr);
  EXPECT_EQ(primary->site, 2);
  // While open for update, even readers at site 0 are served by the primary
  // (storage-site service migration, section 5.2 footnote 8).
  EXPECT_EQ(cat.ServingReplica("/r", 0)->site, 2);
  // A second update open lands on the same primary.
  EXPECT_EQ(cat.OpenForUpdate("/r", 0)->site, 2);
  cat.CloseForUpdate("/r");
  EXPECT_EQ(cat.ServingReplica("/r", 0)->site, 2);  // Still one update open.
  cat.CloseForUpdate("/r");
  // The designation persists past the last close (retained locks may pin
  // it); the primary site's kernel releases it once idle.
  EXPECT_EQ(cat.ServingReplica("/r", 0)->site, 2);
  cat.ReleasePrimaryIfIdle("/r");
  EXPECT_EQ(cat.ServingReplica("/r", 0)->site, 0);  // Released: local again.
  // ReleasePrimaryIfIdle is a no-op while update opens remain.
  cat.OpenForUpdate("/r", 2);
  cat.ReleasePrimaryIfIdle("/r");
  EXPECT_EQ(cat.ServingReplica("/r", 0)->site, 2);
  cat.CloseForUpdate("/r");
  cat.ReleasePrimaryIfIdle("/r");
}

TEST(Catalog, PathOfFindsReplicas) {
  Catalog cat;
  cat.CreateFileEntry("/x", {Replica{0, kF1}, Replica{1, kF2}});
  EXPECT_EQ(*cat.PathOf(kF1), "/x");
  EXPECT_EQ(*cat.PathOf(kF2), "/x");
  EXPECT_FALSE(cat.PathOf(FileId{9, 9}).has_value());
}

TEST(Catalog, Helpers) {
  EXPECT_EQ(Catalog::ParentOf("/a/b/c"), "/a/b");
  EXPECT_EQ(Catalog::ParentOf("/a"), "/");
  EXPECT_EQ(Catalog::ComponentCount("/a/b/c"), 3);
  EXPECT_EQ(Catalog::ComponentCount("/"), 1);
}

}  // namespace
}  // namespace locus
