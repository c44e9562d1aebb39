// Extension analysis: transaction throughput scaling.
//
// Not a table from the paper, but the question its introduction poses: can a
// network of "relatively small machines" with fine-grain synchronization
// compete "in comparison to large centralized systems ... achieving
// considerable concurrency of data access"? This bench runs the debit/credit
// workload while scaling the cluster, and separately sweeps the fraction of
// transactions that stay branch-local (locality is what the paper's design
// banks on: local locks cost ~2 ms, remote ones ~18 ms).
//
// With --json=<path> the per-config results (simulated txn/s plus host
// wall-clock per run) are written for the benchmark-regression harness.

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "bench/bench_common.h"
#include "src/workload/debit_credit.h"

namespace locus {
namespace bench {
namespace {

DebitCreditResults RunWorkload(int sites, int tellers, double local_fraction, bool formation) {
  SystemOptions opts{.seed = 42};
  opts.formation = formation;
  System system(sites, opts);
  DebitCreditConfig config;
  config.branches = sites;
  config.accounts_per_branch = 16;
  config.tellers = tellers;
  config.transfers_per_teller = 8;
  config.local_fraction = local_fraction;
  config.seed = 42;
  return DebitCreditWorkload(&system, config).Execute();
}

void RunTables(JsonReport* report) {
  PrintHeader("Transaction throughput scaling (extension analysis)",
              "the section 1 workload: database operations on many small machines");

  printf("cluster scaling, 3 tellers/site, uniform branch choice, formation on\n");
  printf("%-8s %-8s %10s %10s %12s %12s %10s %8s %8s\n", "sites", "tellers", "commits",
         "retries", "makespan s", "txn/s", "wall ms", "msg/txn", "frc/txn");
  printf("------------------------------------------------------------------\n");
  for (int sites : {1, 2, 3, 4, 6, 8, 12, 16}) {
    auto t0 = std::chrono::steady_clock::now();
    DebitCreditResults r = RunWorkload(sites, sites * 3, 0.0, /*formation=*/true);
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    printf("%-8d %-8d %10d %10d %12.1f %12.1f %10.1f %8.1f %8.2f\n", sites, sites * 3,
           r.committed, r.aborted_attempts, ToMilliseconds(r.makespan) / 1000.0,
           r.throughput_tps(), wall_ms, r.messages_per_txn(), r.log_forces_per_txn());
    if (!r.conserved()) {
      printf("  !! CONSERVATION VIOLATED: %lld != %lld\n",
             static_cast<long long>(r.audited_total),
             static_cast<long long>(r.expected_total));
    }
    report->Add("scale_throughput",
                "sites=" + std::to_string(sites) + ",tellers=" + std::to_string(sites * 3) +
                    ",local=0.0",
                r.throughput_tps(), wall_ms,
                {{"form_messages_per_txn", r.messages_per_txn()},
                 {"form_log_forces_per_txn", r.log_forces_per_txn()}});
  }

  printf("\nformation ablation, 16 sites, 48 tellers\n");
  printf("%-12s %10s %12s %12s %8s %8s\n", "formation", "commits", "makespan s", "txn/s",
         "msg/txn", "frc/txn");
  printf("------------------------------------------------------------------\n");
  for (bool formation : {false, true}) {
    auto t0 = std::chrono::steady_clock::now();
    DebitCreditResults r = RunWorkload(16, 48, 0.0, formation);
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    printf("%-12s %10d %12.1f %12.1f %8.1f %8.2f\n", formation ? "on" : "off", r.committed,
           ToMilliseconds(r.makespan) / 1000.0, r.throughput_tps(), r.messages_per_txn(),
           r.log_forces_per_txn());
    report->Add("scale_throughput_formation",
                std::string("sites=16,tellers=48,form=") + (formation ? "on" : "off"),
                r.throughput_tps(), wall_ms,
                {{"form_messages_per_txn", r.messages_per_txn()},
                 {"form_log_forces_per_txn", r.log_forces_per_txn()}});
  }

  printf("\nlocality sweep, 3 sites, 9 tellers, formation on\n");
  printf("%-16s %10s %12s %12s\n", "local fraction", "commits", "makespan s", "txn/s");
  printf("------------------------------------------------------------------\n");
  for (double local : {0.0, 0.5, 0.9, 1.0}) {
    auto t0 = std::chrono::steady_clock::now();
    DebitCreditResults r = RunWorkload(3, 9, local, /*formation=*/true);
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    printf("%-16.1f %10d %12.1f %12.1f\n", local, r.committed,
           ToMilliseconds(r.makespan) / 1000.0, r.throughput_tps());
    char cfg[64];
    snprintf(cfg, sizeof(cfg), "sites=3,tellers=9,local=%.1f", local);
    report->Add("scale_throughput_locality", cfg, r.throughput_tps(), wall_ms);
  }
  printf("------------------------------------------------------------------\n");
  printf("expected shape: throughput grows with sites (more disks and CPUs),\n");
  printf("branch-local transactions are markedly faster (their locks and\n");
  printf("commits avoid the ~16 ms round trips, sections 6.2 and 6.3), and\n");
  printf("formation cuts both wire messages and log forces per transaction\n");
  printf("by batching control traffic and sharing commit-record forces.\n");
}

void BM_DebitCreditWorkload(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunWorkload(static_cast<int>(state.range(0)), 4, 0.5, /*formation=*/true));
  }
}
BENCHMARK(BM_DebitCreditWorkload)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace locus

int main(int argc, char** argv) {
  std::string json_path = locus::bench::ExtractJsonPath(&argc, argv);
  locus::bench::JsonReport report;
  locus::bench::RunTables(&report);
  report.WriteTo(json_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
