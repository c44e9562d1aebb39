// Simulated disk: a page-addressed non-volatile store with a FIFO request
// queue and a fixed access latency.
//
// Latency is calibrated against Figure 6 of the paper: a local non-overlap
// record commit costs 21 ms of CPU plus two disk accesses for a total latency
// of 73 ms, i.e. about 26 ms per access — consistent with mid-1980s drives.
//
// Crash semantics are real: only pages whose Write completed before the crash
// survive; requests still queued or in flight at crash time are dropped. The
// recovery experiments depend on this.
//
// A new disk is sparse: every page shares one zero image until its first
// write, so a large volume costs memory only for the pages it has written.
// An unwritten page holds no reference to that image, so building and
// tearing down a disk touches no reference counts.

#ifndef SRC_STORAGE_DISK_H_
#define SRC_STORAGE_DISK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/simulation.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace locus {

using PageId = int32_t;
inline constexpr PageId kNoPage = -1;

using PageData = std::vector<uint8_t>;

// Shared page image. Page-sized payloads flow through the disk, the buffer
// pool, the file store and replica-propagation messages by reference; a page
// is treated as immutable while shared and cloned on modification
// (Disk::MutableImage), so handing a ref to another layer never copies 4 KB.
using PageRef = std::shared_ptr<PageData>;

inline PageRef MakePage(PageData data) {
  return std::make_shared<PageData>(std::move(data));
}

class Disk {
 public:
  static constexpr SimTime kDefaultAccessLatency = Milliseconds(26);

  Disk(Simulation* sim, StatRegistry* stats, std::string name, int32_t num_pages,
       int32_t page_size, SimTime access_latency = kDefaultAccessLatency);

  int32_t page_size() const { return page_size_; }
  int32_t num_pages() const { return num_pages_; }
  const std::string& name() const { return name_; }

  // Blocking page I/O; must run in process context. `category` labels the
  // access in the I/O accounting (e.g. "data", "inode", "prepare_log") so the
  // Figure 5 experiment can report per-step operation counts. Reads return a
  // shared ref to the stable image (no copy); writes take ownership of the
  // caller's ref.
  PageRef Read(PageId page, const char* category);
  void Write(PageId page, PageRef data, const char* category);

  // Sequential variants: the head is already positioned (log appends,
  // contiguous scans), so only rotation/transfer is paid. Used by the
  // write-ahead-log baseline and the shadow-vs-log analysis (section 6).
  PageRef ReadSequential(PageId page, const char* category);
  void WriteSequential(PageId page, PageRef data, const char* category);
  SimTime access_latency() const { return access_latency_; }

  // Async read usable from event context (read-ahead).
  void SubmitRead(PageId page, const char* category, std::function<void(PageRef)> done);

  // Site crash: drops queued/in-flight requests (their completions never
  // fire) without touching already-written stable pages.
  void DropPendingRequests();

  // Direct access to stable state for tests and recovery assertions; does not
  // model latency or count I/O.
  const PageData& PeekStable(PageId page) const { return *StableRef(page); }

  // The all-zero image every never-written page shares. Like any shared
  // page it is cloned before modification (MutableImage).
  const PageRef& zero_page() const { return zero_page_; }

  // Copy-on-write access to an image of one of this disk's pages: returns
  // it mutable, cloning it first if it is shared with another holder (the
  // simulation is single-threaded, so use_count() is exact). The clone goes
  // into a recycled image when there is one: a write that replaces a page's
  // stable image nobody else holds keeps that image (up to kSpareImages of
  // them), so a steady stream of page updates stops allocating. Recycled
  // images are overwritten whole before reuse.
  PageData& MutableImage(PageRef& ref);
  static constexpr size_t kSpareImages = 4;

  int64_t reads() const { return stats_->Get("disk." + name_ + ".reads"); }
  int64_t writes() const { return stats_->Get("disk." + name_ + ".writes"); }

  static constexpr SimTime kDefaultSequentialLatency = Milliseconds(5);

 private:
  struct KindStats;

  // Returns the completion time for a newly queued request.
  SimTime QueueRequest(SimTime latency);
  // The page's stable image: zero_page_ until its first write.
  const PageRef& StableRef(PageId page) const {
    return stable_[page] != nullptr ? stable_[page] : zero_page_;
  }
  // Stores `data` as the page's stable image, keeping the replaced image
  // for MutableImage if nothing else holds it.
  void ReplaceStable(PageId page, PageRef data);
  void CountAccess(KindStats& ks, const char* kind, const char* category);

  Simulation* sim_;
  StatRegistry* stats_;
  std::string name_;
  int32_t num_pages_;
  int32_t page_size_;
  SimTime access_latency_;
  SimTime sequential_latency_ = kDefaultSequentialLatency;
  SimTime busy_until_ = 0;
  uint64_t crash_epoch_ = 0;
  PageRef zero_page_;
  // Starts out sparse: a page is null, read as zero_page_, until written.
  std::vector<PageRef> stable_;
  // Replaced page images no one holds, for MutableImage.
  std::vector<PageRef> spare_images_;
  // Interned hot counters: "disk.<name>.<kind>" and "io.<kind>" per access
  // kind, so CountAccess builds no strings on the common path. Per-category
  // ids are interned lazily and cached by literal address (the category set
  // is a handful of string literals).
  struct KindStats {
    StatRegistry::StatId disk_id = 0;
    StatRegistry::StatId io_id = 0;
    std::unordered_map<const char*, StatRegistry::StatId> per_category;
  };
  KindStats reads_, writes_, reads_seq_, writes_seq_;
};

}  // namespace locus

#endif  // SRC_STORAGE_DISK_H_
