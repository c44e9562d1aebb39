// Conservation sweep: the debit/credit workload on multi-page branch files,
// where concurrent transactions write different pages of one file and their
// installs overlap. Every seed must conserve money with a complete audit.
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

// (sites, formation, seed).
class ConservationSweep : public ::testing::TestWithParam<std::tuple<int, bool, int>> {};

TEST_P(ConservationSweep, ConservesMoney) {
  const auto [sites, formation, seed] = GetParam();
  SystemOptions options;
  options.seed = static_cast<uint64_t>(seed);
  options.formation = formation;
  System system(sites, options);
  DebitCreditConfig config;
  config.branches = sites;
  config.tellers = 3 * sites;
  config.accounts_per_branch = 256;  // Four pages per branch file.
  config.transfers_per_teller = 20;
  config.seed = static_cast<uint64_t>(seed);
  DebitCreditResults results = DebitCreditWorkload(&system, config).Execute();
  EXPECT_TRUE(results.audit_complete);
  EXPECT_EQ(results.audited_total, results.expected_total);
  EXPECT_EQ(system.sim().blocked_process_count(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConservationSweep,
    ::testing::Combine(::testing::Values(6, 16), ::testing::Bool(), ::testing::Range(1, 13)),
    [](const ::testing::TestParamInfo<ConservationSweep::ParamType>& run) {
      return std::to_string(std::get<0>(run.param)) + "sites_formation" +
             (std::get<1>(run.param) ? "On" : "Off") + "_seed" +
             std::to_string(std::get<2>(run.param));
    });

}  // namespace
}  // namespace locus
