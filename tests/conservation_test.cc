// Conservation sweep: the debit/credit workload on multi-page branch files,
// where concurrent transactions write different pages of one file and their
// installs overlap. Every seed must conserve money with a complete audit,
// both through the buffer pools (the workload's own audit) and in the
// committed images on disk.
//
// This is a regression sweep, not a proof that concurrent installs of one
// file are safe: installs of one file run one group at a time, and the
// store-level test that forces them to overlap is fs_sweep_test's
// ConcurrentInstallSweep.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/workload/debit_credit.h"

namespace locus {
namespace {

// The sum of every account of every branch file as the committed images on
// disk hold it: each branch's durable descriptor and the stable pages it
// names, with no buffer pool in between.
int64_t OnDiskTotal(System& system, const DebitCreditConfig& config) {
  constexpr int kRecordBytes = DebitCreditWorkload::kRecordBytes;
  int64_t total = 0;
  for (int b = 0; b < config.branches; ++b) {
    const Replica& r =
        system.catalog().Lookup(DebitCreditWorkload::BranchPath(b))->replicas.front();
    Volume* volume = system.kernel(r.site).FindVolume(r.file.volume);
    const DiskInode* inode = volume->PeekInode(r.file.ino);
    const int64_t page_size = volume->page_size();
    for (int a = 0; a < config.accounts_per_branch; ++a) {
      const int64_t offset = static_cast<int64_t>(a) * kRecordBytes;
      const PageData& page = volume->disk().PeekStable(inode->pages[offset / page_size]);
      auto record = page.begin() + offset % page_size;
      total += DebitCreditWorkload::ParseBalance({record, record + kRecordBytes});
    }
  }
  return total;
}

// (sites, formation, accounts per branch, seed).
class ConservationSweep
    : public ::testing::TestWithParam<std::tuple<int, bool, int, int>> {};

TEST_P(ConservationSweep, ConservesMoney) {
  const auto [sites, formation, accounts, seed] = GetParam();
  SystemOptions options;
  options.seed = static_cast<uint64_t>(seed);
  options.formation = formation;
  System system(sites, options);
  DebitCreditConfig config;
  config.branches = sites;
  config.tellers = 3 * sites;
  config.accounts_per_branch = accounts;  // Four or eight pages per branch file.
  config.transfers_per_teller = 20;
  config.seed = static_cast<uint64_t>(seed);
  DebitCreditResults results = DebitCreditWorkload(&system, config).Execute();
  EXPECT_TRUE(results.audit_complete);
  EXPECT_EQ(results.audited_total, results.expected_total);
  EXPECT_EQ(system.sim().blocked_process_count(), 0);
  EXPECT_EQ(OnDiskTotal(system, config), results.expected_total);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConservationSweep,
    ::testing::Combine(::testing::Values(6, 16), ::testing::Bool(), ::testing::Values(256, 512),
                       ::testing::Range(1, 13)),
    [](const ::testing::TestParamInfo<ConservationSweep::ParamType>& run) {
      return std::to_string(std::get<0>(run.param)) + "sites_formation" +
             (std::get<1>(run.param) ? "On" : "Off") + "_" +
             std::to_string(std::get<2>(run.param)) + "accounts_seed" +
             std::to_string(std::get<3>(run.param));
    });

}  // namespace
}  // namespace locus
