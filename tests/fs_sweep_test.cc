// Parameterized property sweeps over the shadow-page commit mechanism:
// page sizes, write patterns, and writer interleavings. Each combination
// must preserve the fundamental invariant — committed state contains exactly
// the committed writers' bytes — and the I/O accounting identities of
// section 6.1.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <tuple>

#include "src/fs/file_store.h"
#include "src/sim/random.h"

namespace locus {
namespace {

class PageSizeSweep : public ::testing::TestWithParam<int32_t> {
 protected:
  PageSizeSweep() {
    page_size_ = GetParam();
    auto disk = std::make_unique<Disk>(&sim_, &stats_, "d0", 1024, page_size_,
                                       Milliseconds(10));
    volume_ = std::make_unique<Volume>(0, "v0", std::move(disk));
    pool_ = std::make_unique<BufferPool>(128);
    store_ = std::make_unique<FileStore>(&sim_, volume_.get(), pool_.get(), &stats_, "site0");
  }

  void Run(std::function<void()> body) {
    sim_.Spawn("test", std::move(body));
    sim_.Run();
    ASSERT_EQ(sim_.blocked_process_count(), 0);
  }

  LockOwner Owner(uint64_t serial) { return LockOwner{kNoPid, TxnId{0, 0, serial}}; }

  int32_t page_size_ = 0;
  Simulation sim_;
  StatRegistry stats_;
  std::unique_ptr<Volume> volume_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<FileStore> store_;
};

TEST_P(PageSizeSweep, CrossBoundaryWritesRoundTrip) {
  Run([&] {
    FileId f = store_->CreateFile();
    // A write straddling three pages.
    std::vector<uint8_t> data(page_size_ * 2 + 7, 0);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(i * 31 + 1);
    }
    int64_t offset = page_size_ - 3;
    store_->Write(f, Owner(1), offset, data);
    store_->CommitWriter(f, Owner(1));
    auto back = store_->Read(f, {offset, static_cast<int64_t>(data.size())});
    EXPECT_EQ(back, data);
    EXPECT_EQ(store_->CommittedSize(f), offset + static_cast<int64_t>(data.size()));
  });
}

TEST_P(PageSizeSweep, DifferencingAcrossPageBoundary) {
  Run([&] {
    FileId f = store_->CreateFile();
    store_->Write(f, Owner(1), 0, std::vector<uint8_t>(page_size_ * 2, '.'));
    store_->CommitWriter(f, Owner(1));
    // Writer A straddles the boundary; writer B sits on each page too.
    std::vector<uint8_t> a_bytes(10, 'A');
    store_->Write(f, Owner(2), page_size_ - 5, a_bytes);
    store_->Write(f, Owner(3), 0, std::vector<uint8_t>(3, 'B'));
    store_->Write(f, Owner(3), page_size_ * 2 - 3, std::vector<uint8_t>(3, 'B'));
    store_->CommitWriter(f, Owner(2));
    // Committed: dots + A's straddle; B's bytes absent.
    const DiskInode* inode = volume_->PeekInode(f.ino);
    const PageData& p0 = volume_->disk().PeekStable(inode->pages[0]);
    const PageData& p1 = volume_->disk().PeekStable(inode->pages[1]);
    EXPECT_EQ(p0[0], '.');
    EXPECT_EQ(p0[page_size_ - 5], 'A');
    EXPECT_EQ(p1[4], 'A');
    EXPECT_EQ(p1[page_size_ - 1], '.');
    // Working view still shows B's uncommitted bytes.
    EXPECT_EQ(store_->Read(f, {0, 1})[0], 'B');
  });
}

TEST_P(PageSizeSweep, IoCountIndependentOfPageSizeForOnePage) {
  Run([&] {
    FileId f = store_->CreateFile();
    stats_.Reset();
    store_->Write(f, Owner(1), 0, std::vector<uint8_t>(page_size_ / 2, 'x'));
    store_->CommitWriter(f, Owner(1));
    // One data flush + one inode write regardless of the page size.
    EXPECT_EQ(stats_.Get("io.writes.data"), 1);
    EXPECT_EQ(stats_.Get("io.writes.inode"), 1);
  });
}

INSTANTIATE_TEST_SUITE_P(PageSizes, PageSizeSweep,
                         ::testing::Values(32, 64, 128, 256, 1024),
                         [](const ::testing::TestParamInfo<int32_t>& param) {
                           return "p" + std::to_string(param.param);
                         });

// --- Pages-per-commit sweep: section 6.1's "no additional overhead for
// additional records in one file" identity ---

class PagesPerCommitSweep : public ::testing::TestWithParam<int> {};

TEST_P(PagesPerCommitSweep, DataWritesScaleInodeWritesDoNot) {
  const int pages = GetParam();
  Simulation sim;
  StatRegistry stats;
  auto disk = std::make_unique<Disk>(&sim, &stats, "d0", 4096, 64, Milliseconds(5));
  Volume volume(0, "v0", std::move(disk));
  BufferPool pool(64);
  FileStore store(&sim, &volume, &pool, &stats, "site0");
  sim.Spawn("test", [&] {
    FileId f = store.CreateFile();
    stats.Reset();
    LockOwner owner{kNoPid, TxnId{0, 0, 1}};
    for (int p = 0; p < pages; ++p) {
      store.Write(f, owner, p * 64, std::vector<uint8_t>(32, 'x'));
    }
    store.CommitWriter(f, owner);
    EXPECT_EQ(stats.Get("io.writes.data"), pages);
    EXPECT_EQ(stats.Get("io.writes.inode"), 1);  // One atomic switch.
  });
  sim.Run();
}

INSTANTIATE_TEST_SUITE_P(Pages, PagesPerCommitSweep, ::testing::Values(1, 2, 4, 8, 16, 32));

// --- Random interleaving sweep over (writer count, rounds) ---

class InterleavingSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(InterleavingSweep, CommittedStateMatchesModel) {
  auto [writers, rounds] = GetParam();
  constexpr int32_t kPageSize = 128;
  constexpr int kFileBytes = 512;
  Simulation sim(writers * 1000 + rounds);
  StatRegistry stats;
  auto disk = std::make_unique<Disk>(&sim, &stats, "d0", 4096, kPageSize, Milliseconds(2));
  Volume volume(0, "v0", std::move(disk));
  BufferPool pool(64);
  FileStore store(&sim, &volume, &pool, &stats, "site0");

  sim.Spawn("test", [&] {
    Rng rng(7 * writers + rounds);
    FileId f = store.CreateFile();
    std::vector<uint8_t> committed(kFileBytes, 0);
    store.Write(f, LockOwner{1000, kNoTxn}, 0, committed);
    store.CommitWriter(f, LockOwner{1000, kNoTxn});

    // Each writer owns a disjoint byte stripe (as the lock manager would
    // enforce); stripes interleave within shared pages.
    const int stripe = kFileBytes / writers;
    for (int round = 0; round < rounds; ++round) {
      struct Pending {
        LockOwner owner;
        std::vector<std::pair<int64_t, uint8_t>> bytes;
      };
      std::vector<Pending> pending;
      for (int w = 0; w < writers; ++w) {
        Pending p{LockOwner{static_cast<Pid>(w + 1), kNoTxn}, {}};
        int n = static_cast<int>(rng.Range(1, 3));
        for (int k = 0; k < n; ++k) {
          int64_t off = w * stripe + rng.Range(0, stripe - 6);
          uint8_t value = static_cast<uint8_t>(rng.Range(1, 255));
          std::vector<uint8_t> data(static_cast<size_t>(rng.Range(1, 6)), value);
          store.Write(f, p.owner, off, data);
          for (size_t i = 0; i < data.size(); ++i) {
            p.bytes.push_back({off + static_cast<int64_t>(i), value});
          }
        }
        pending.push_back(std::move(p));
      }
      // Resolve in random order, randomly committing or aborting.
      while (!pending.empty()) {
        size_t pick = rng.Below(pending.size());
        Pending p = pending[pick];
        pending.erase(pending.begin() + pick);
        if (rng.Chance(0.6)) {
          store.CommitWriter(f, p.owner);
          for (auto& [off, value] : p.bytes) {
            committed[off] = value;
          }
        } else {
          store.AbortWriter(f, p.owner);
        }
      }
      auto view = store.Read(f, {0, kFileBytes});
      ASSERT_EQ(view, committed) << "writers=" << writers << " round=" << round;
      // Stable state matches too (read through a fresh store would see it).
      ASSERT_EQ(store.CommittedSize(f), kFileBytes);
    }
  });
  sim.Run();
  EXPECT_EQ(volume.double_frees(), 0);
}

INSTANTIATE_TEST_SUITE_P(Mix, InterleavingSweep,
                         ::testing::Combine(::testing::Values(2, 3, 4),
                                            ::testing::Values(5, 15)));

// --- Concurrent installs of one file ---
//
// One process per writer: each writes its own records of a four-page file,
// prepares and installs, all started within a few milliseconds of each
// other, so the installs of the file overlap at every disk wait and queue
// into groups of two or more. One more writer prepares only once the first
// group has installed, while the next is writing its merged pages: its
// prepare fetches pages that group has yet to publish. After each round
// both the working view (Read) and the committed image (the inode's pages
// read through Disk::PeekStable) must equal a byte-array model.

class ConcurrentInstallSweep : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(ConcurrentInstallSweep, CommittedImageMatchesModel) {
  auto [writers, seed] = GetParam();
  constexpr int32_t kPageSize = 128;
  constexpr int64_t kFileBytes = 4 * kPageSize;
  constexpr int64_t kRecordBytes = 8;
  constexpr int kRounds = 6;
  Simulation sim(seed);
  StatRegistry stats;
  Rng rng(seed);
  // A disk slower than the commit path's CPU work: each install's page and
  // descriptor writes queue behind the other writers' flushes.
  const SimTime latency = Milliseconds(rng.Range(40, 80));
  auto disk = std::make_unique<Disk>(&sim, &stats, "d0", 4096, kPageSize, latency);
  Volume volume(0, "v0", std::move(disk));
  BufferPool pool(64);
  FileStore store(&sim, &volume, &pool, &stats, "site0");
  std::vector<uint8_t> model(kFileBytes, '.');
  FileId f;
  sim.Spawn("setup", [&] {
    f = store.CreateFile();
    store.Write(f, LockOwner{1000, kNoTxn}, 0, model);
    store.CommitWriter(f, LockOwner{1000, kNoTxn});
  });
  sim.Run();

  uint64_t serial = 0;
  int late_overlaps = 0;  // Rounds whose late prepare ran inside a group.
  for (int round = 0; round < kRounds; ++round) {
    const int64_t groups_before = stats.Get("fs.install.groups");
    const int64_t installs_before = stats.Get("fs.commits_installed");
    int prepared = 0;
    int installed = 0;
    WaitQueue all_prepared(&sim);
    struct Spec {
      std::vector<std::pair<int64_t, uint8_t>> records;
      SimTime start = 0;
      SimTime install_at = 0;
      LockOwner owner;
    };
    std::vector<Spec> specs(writers + 1);
    // Writer `writers` is the late one.
    for (int w = 0; w <= writers; ++w) {
      Spec& spec = specs[w];
      // Record r belongs to writer r % (writers + 1), as disjoint locks
      // would give.
      for (int64_t k = rng.Range(1, 3); k > 0; --k) {
        int64_t record =
            rng.Range(0, kFileBytes / kRecordBytes / (writers + 1) - 1) * (writers + 1) + w;
        uint8_t value = static_cast<uint8_t>(rng.Range('A', 'Z'));
        spec.records.push_back({record * kRecordBytes, value});
        std::fill_n(model.begin() + record * kRecordBytes, kRecordBytes, value);
      }
      spec.start = Microseconds(rng.Range(0, 3000));
      spec.install_at = rng.Range(0, latency / 2);
      spec.owner = LockOwner{kNoPid, TxnId{0, 0, ++serial}};
    }
    for (int w = 0; w <= writers; ++w) {
      sim.Spawn("writer", [&, w] {
        const auto& [records, start, install_at, owner] = specs[w];
        const bool late = w == writers;
        sim.Sleep(start);
        for (auto [offset, value] : records) {
          store.Write(f, owner, offset, std::vector<uint8_t>(kRecordBytes, value));
        }
        if (late) {
          // Prepare once the first group has installed and while the rest
          // of the writers' installs are still in flight.
          int64_t done = 0;
          while ((done = stats.Get("fs.commits_installed") - installs_before) == 0) {
            sim.Sleep(Milliseconds(1));
          }
          late_overlaps += done < writers;
          std::optional<IntentionsList> intentions = store.PrepareWriter(f, owner);
          ASSERT_TRUE(intentions.has_value());
          store.InstallIntentions(*intentions);
          store.FinishWriterCommit(f, owner);
          ++installed;
          return;
        }
        std::optional<IntentionsList> intentions = store.PrepareWriter(f, owner);
        ASSERT_TRUE(intentions.has_value());
        // Every writer prepares before any installs, as 2PC participants
        // whose commit messages arrive together; then each installs within
        // half a disk access, while the first install's writes are queued.
        if (++prepared < writers) {
          while (prepared < writers) {
            all_prepared.Wait();
          }
        } else {
          all_prepared.NotifyAll();
        }
        sim.Sleep(install_at);
        store.InstallIntentions(*intentions);
        store.FinishWriterCommit(f, owner);
        ++installed;
      });
    }
    sim.Run();
    ASSERT_EQ(installed, writers + 1);
    EXPECT_GT(stats.Get("fs.install.groups"), groups_before) << "round " << round;

    std::vector<uint8_t> view;
    sim.Spawn("reader", [&] { view = store.Read(f, {0, kFileBytes}); });
    sim.Run();
    ASSERT_EQ(view, model) << "working view, round " << round;
    const DiskInode* inode = volume.PeekInode(f.ino);
    std::vector<uint8_t> committed;
    for (PageId page : inode->pages) {
      const PageData& image = volume.disk().PeekStable(page);
      committed.insert(committed.end(), image.begin(), image.end());
    }
    ASSERT_EQ(committed, model) << "committed image, round " << round;
  }
  EXPECT_GT(late_overlaps, 0);
  EXPECT_EQ(volume.double_frees(), 0);
  EXPECT_EQ(sim.blocked_process_count(), 0);
}

INSTANTIATE_TEST_SUITE_P(Writers, ConcurrentInstallSweep,
                         ::testing::Combine(::testing::Values(3, 4, 6),
                                            ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace locus
