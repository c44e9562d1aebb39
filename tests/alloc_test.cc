// Steady-state allocation bounds for the two transfer paths, once their
// per-transaction and per-site state is reused:
//   - the local storage-site path: a one-site debit/credit run, where every
//     transfer locks, writes and commits at its own site (section 3 record
//     locks, section 4 shadow-page commit, no wire and no two-phase
//     fan-out);
//   - the cross-site path: a four-site run with formation on and no local
//     transfers, where a transfer locks and writes remote records and its
//     commit sends prepares and commits to the storage sites (section 4.2).
//
// The test replaces the global operator new/delete with counting wrappers
// and counts from just before a System is built to just after its run
// ends, for a run of N transfers and one of 10N. Their difference over the
// difference in commits is the per-transfer cost, free of setup, warm-up
// and the audit. Under AddressSanitizer, whose allocator the wrappers would
// fight, they are compiled out and the test is skipped.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/locus/system.h"
#include "src/workload/debit_credit.h"

#if defined(__SANITIZE_ADDRESS__)
#define LOCUS_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LOCUS_ALLOC_COUNTING 0
#endif
#endif
#ifndef LOCUS_ALLOC_COUNTING
#define LOCUS_ALLOC_COUNTING 1
#endif

namespace {

bool counting = false;
int64_t allocations = 0;

}  // namespace

#if LOCUS_ALLOC_COUNTING

namespace {

void* CountedAlloc(std::size_t size) {
  if (counting) {
    ++allocations;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (counting) {
    ++allocations;
  }
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  if (counting) {
    ++allocations;
  }
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // LOCUS_ALLOC_COUNTING

namespace locus {
namespace {

struct CountedRun {
  int64_t allocations = 0;
  int commits = 0;
};

CountedRun CountRun(int sites, const SystemOptions& options, const DebitCreditConfig& config) {
  allocations = 0;
  counting = true;
  DebitCreditResults results;
  {
    System system(sites, options);
    DebitCreditWorkload workload(&system, config);
    results = workload.Execute();
  }
  counting = false;
  EXPECT_TRUE(results.conserved()) << results.audited_total << " != " << results.expected_total;
  return CountedRun{allocations, results.committed};
}

// Allocations per committed transfer: the runs with `config` at N and 10N
// transfers per teller, their difference over the difference in commits.
double AllocationsPerTransfer(int sites, const SystemOptions& options, DebitCreditConfig config) {
  const int transfers_per_teller = config.transfers_per_teller;
  CountedRun short_run = CountRun(sites, options, config);
  config.transfers_per_teller = 10 * transfers_per_teller;
  CountedRun long_run = CountRun(sites, options, config);
  EXPECT_GT(long_run.commits, short_run.commits);
  if (long_run.commits <= short_run.commits) {
    return 0;
  }
  const double per_transfer = static_cast<double>(long_run.allocations - short_run.allocations) /
                              (long_run.commits - short_run.commits);
  std::printf("%d sites, %d and %d commits: %lld and %lld allocations, %.2f per transfer\n",
              sites, short_run.commits, long_run.commits,
              static_cast<long long>(short_run.allocations),
              static_cast<long long>(long_run.allocations), per_transfer);
  return per_transfer;
}

// One site, two one-page branch files (64 accounts each), so every transfer
// takes the local storage-site path.
TEST(Allocation, LocalTransfersAllocateAFewTimesEach) {
  if (!LOCUS_ALLOC_COUNTING) {
    GTEST_SKIP() << "AddressSanitizer owns the allocator; nothing is counted";
  }
  DebitCreditConfig config;
  config.branches = 2;
  config.accounts_per_branch = 64;
  config.tellers = 4;
  config.transfers_per_teller = 25;
  config.seed = 11;
  // 99.4 before per-transaction state was reused, 28.6 after.
  EXPECT_LE(AllocationsPerTransfer(1, SystemOptions{.seed = 11}, config), 36.0);
}

// Four sites, a one-page branch file (64 accounts) at each, formation on and
// no local transfers: nearly every transfer's records and commit span sites,
// so the count covers the wire, the formation queues, the pending-call table
// and the two-phase commit's fan-out at the coordinator and the
// participants.
TEST(Allocation, CrossSiteTransfersAllocateAFewTimesEach) {
  if (!LOCUS_ALLOC_COUNTING) {
    GTEST_SKIP() << "AddressSanitizer owns the allocator; nothing is counted";
  }
  DebitCreditConfig config;
  config.branches = 4;
  config.accounts_per_branch = 64;
  config.tellers = 8;
  config.transfers_per_teller = 25;
  config.seed = 11;
  config.local_fraction = 0.0;
  // 39.6 before the call table, the batch buffers and the commit path's
  // storage were reused (32.6 with formation off).
  EXPECT_LE(AllocationsPerTransfer(4, SystemOptions{.seed = 11, .formation = true}, config),
            25.0);
}

}  // namespace
}  // namespace locus
