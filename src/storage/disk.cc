#include "src/storage/disk.h"

#include <cassert>

namespace locus {

Disk::Disk(Simulation* sim, StatRegistry* stats, std::string name, int32_t num_pages,
           int32_t page_size, SimTime access_latency)
    : sim_(sim),
      stats_(stats),
      name_(std::move(name)),
      num_pages_(num_pages),
      page_size_(page_size),
      access_latency_(access_latency),
      zero_page_(MakePage(PageData(page_size, 0))),
      stable_(num_pages, zero_page_) {
  auto init = [&](KindStats& ks, const char* kind) {
    ks.disk_id = stats_->Intern("disk." + name_ + "." + kind);
    ks.io_id = stats_->Intern(std::string("io.") + kind);
  };
  init(reads_, "reads");
  init(writes_, "writes");
  init(reads_seq_, "reads_seq");
  init(writes_seq_, "writes_seq");
}

SimTime Disk::QueueRequest(SimTime latency) {
  SimTime start = std::max(busy_until_, sim_->Now());
  busy_until_ = start + latency;
  return busy_until_;
}

void Disk::CountAccess(KindStats& ks, const char* kind, const char* category) {
  stats_->Add(ks.disk_id);
  stats_->Add(ks.io_id);
  auto [it, inserted] = ks.per_category.try_emplace(category, 0);
  if (inserted) {
    it->second = stats_->Intern(std::string("io.") + kind + "." + category);
  }
  stats_->Add(it->second);
}

PageRef Disk::Read(PageId page, const char* category) {
  assert(page >= 0 && page < num_pages_);
  CountAccess(reads_, "reads", category);
  SimTime done_at = QueueRequest(access_latency_);
  [[maybe_unused]] uint64_t epoch = crash_epoch_;
  sim_->Sleep(done_at - sim_->Now());
  // If the site crashed while we slept the process was killed, so reaching
  // here in the same epoch means the request completed.
  assert(epoch == crash_epoch_);
  return stable_[page];
}

void Disk::Write(PageId page, PageRef data, const char* category) {
  assert(page >= 0 && page < num_pages_);
  assert(data != nullptr && static_cast<int32_t>(data->size()) == page_size_);
  CountAccess(writes_, "writes", category);
  SimTime done_at = QueueRequest(access_latency_);
  uint64_t epoch = crash_epoch_;
  sim_->Sleep(done_at - sim_->Now());
  if (epoch != crash_epoch_) {
    return;  // Crash raced the write; the page never reached stable storage.
  }
  stable_[page] = std::move(data);
}

void Disk::SubmitRead(PageId page, const char* category, std::function<void(PageRef)> done) {
  assert(page >= 0 && page < num_pages_);
  CountAccess(reads_, "reads", category);
  SimTime done_at = QueueRequest(access_latency_);
  uint64_t epoch = crash_epoch_;
  sim_->ScheduleAt(done_at, [this, page, epoch, done = std::move(done)] {
    if (epoch != crash_epoch_) {
      return;
    }
    done(stable_[page]);
  });
}

void Disk::SubmitWrite(PageId page, PageRef data, const char* category,
                       std::function<void()> done) {
  assert(page >= 0 && page < num_pages_);
  assert(data != nullptr && static_cast<int32_t>(data->size()) == page_size_);
  CountAccess(writes_, "writes", category);
  SimTime done_at = QueueRequest(access_latency_);
  uint64_t epoch = crash_epoch_;
  sim_->ScheduleAt(done_at, [this, page, epoch, data = std::move(data), done = std::move(done)] {
    if (epoch != crash_epoch_) {
      return;
    }
    stable_[page] = data;
    done();
  });
}

void Disk::DropPendingRequests() {
  crash_epoch_++;
  busy_until_ = sim_->Now();
}

PageRef Disk::ReadSequential(PageId page, const char* category) {
  assert(page >= 0 && page < num_pages_);
  CountAccess(reads_seq_, "reads_seq", category);
  SimTime done_at = QueueRequest(sequential_latency_);
  [[maybe_unused]] uint64_t epoch = crash_epoch_;
  sim_->Sleep(done_at - sim_->Now());
  assert(epoch == crash_epoch_);
  return stable_[page];
}

void Disk::WriteSequential(PageId page, PageRef data, const char* category) {
  assert(page >= 0 && page < num_pages_);
  assert(data != nullptr && static_cast<int32_t>(data->size()) == page_size_);
  CountAccess(writes_seq_, "writes_seq", category);
  SimTime done_at = QueueRequest(sequential_latency_);
  uint64_t epoch = crash_epoch_;
  sim_->Sleep(done_at - sim_->Now());
  if (epoch != crash_epoch_) {
    return;
  }
  stable_[page] = std::move(data);
}

}  // namespace locus
