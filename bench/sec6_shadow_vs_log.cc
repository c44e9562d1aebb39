// Experiment E6: section 6 / [Weinstein85] — shadow paging vs. commit logs.
//
// Two parts:
//  1. The operation-counting analytic model (src/baseline/analysis.h): a
//     sweep over record size and placement locality showing that "the
//     relative performance ... is highly dependent on the nature of the
//     access strings", including where the crossover falls.
//  2. A measured comparison: the same record-update workload driven through
//     the intentions-list FileStore and through the write-ahead-log
//     baseline on identical simulated disks, reporting virtual time and I/O
//     counts for each.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_common.h"
#include "src/baseline/analysis.h"
#include "src/baseline/wal_store.h"
#include "src/fs/file_store.h"

namespace locus {
namespace bench {
namespace {

void RunAnalyticSweep() {
  PrintHeader("Shadow paging vs commit log: operation-count model",
              "section 6 / [Weinstein85]");
  printf("commit cost only (ms per transaction), 8 records/txn, 1 KB pages\n");
  printf("%-12s %-10s %12s %12s %8s\n", "record size", "locality", "shadow", "log",
         "winner");
  printf("------------------------------------------------------------------\n");
  for (int64_t record : {32, 128, 512, 1024, 4096}) {
    for (double locality : {0.0, 1.0}) {
      WorkloadModel w;
      w.record_bytes = record;
      w.records_per_txn = 8;
      w.locality = locality;
      double shadow = ShadowPagingCost(w).CommitMs(w);
      double log = CommitLogCost(w).CommitMs(w);
      printf("%-12lld %-10.1f %12.1f %12.1f %8s\n", static_cast<long long>(record),
             locality, shadow, log, shadow <= log ? "shadow" : "log");
    }
  }

  printf("\nwith a sequential scan of the file after the updates\n");
  printf("(shadow paging loses physical contiguity; logging keeps it)\n");
  printf("%-12s %-12s %12s %12s %8s\n", "records/txn", "scan frac", "shadow", "log",
         "winner");
  printf("------------------------------------------------------------------\n");
  for (int64_t records : {4, 64}) {
    for (double scan : {0.0, 0.5, 1.0}) {
      WorkloadModel w;
      w.record_bytes = 256;
      w.records_per_txn = records;
      w.locality = 0.0;
      w.scan_fraction = scan;
      w.file_pages = 512;
      double shadow = ShadowPagingCost(w).TotalMs(w);
      double log = CommitLogCost(w).TotalMs(w);
      printf("%-12lld %-12.1f %12.1f %12.1f %8s\n", static_cast<long long>(records), scan,
             shadow, log, shadow <= log ? "shadow" : "log");
    }
  }
}

struct Measured {
  double total_ms = 0;
  int64_t random_writes = 0;
  int64_t sequential_writes = 0;
};

// Drives `txns` transactions of `records` x `record_bytes` updates through
// the intentions-list mechanism.
Measured MeasureShadow(int txns, int records, int64_t record_bytes, bool spread) {
  Simulation sim;
  StatRegistry stats;
  auto disk = std::make_unique<Disk>(&sim, &stats, "d", 8192, 1024);
  auto volume = std::make_unique<Volume>(0, "v", std::move(disk));
  BufferPool pool(512);
  FileStore store(&sim, volume.get(), &pool, &stats, "site0");

  Measured m;
  sim.Spawn("bench", [&] {
    FileId f = store.CreateFile();
    store.Write(f, LockOwner{1, kNoTxn}, 0, std::vector<uint8_t>(512 * 1024, '.'));
    store.CommitWriter(f, LockOwner{1, kNoTxn});
    int64_t w0 = stats.Get("io.writes");
    int64_t s0 = stats.Get("io.writes_seq");
    SimTime t0 = sim.Now();
    for (int t = 0; t < txns; ++t) {
      LockOwner owner{kNoPid, TxnId{0, 0, static_cast<uint64_t>(t + 1)}};
      for (int r = 0; r < records; ++r) {
        int64_t offset = spread ? ((t * records + r) % 400) * 1024 : t * 1024;
        store.Write(f, owner, offset, std::vector<uint8_t>(record_bytes, 'x'));
      }
      store.CommitWriter(f, owner);
    }
    m.total_ms = ToMilliseconds(sim.Now() - t0);
    m.random_writes = stats.Get("io.writes") - w0;
    m.sequential_writes = stats.Get("io.writes_seq") - s0;
  });
  sim.Run();
  return m;
}

// Same workload through the write-ahead-log baseline (with one checkpoint at
// the end, whose in-place writes are included).
Measured MeasureWal(int txns, int records, int64_t record_bytes, bool spread) {
  Simulation sim;
  StatRegistry stats;
  auto disk = std::make_unique<Disk>(&sim, &stats, "d", 8192, 1024);
  auto volume = std::make_unique<Volume>(0, "v", std::move(disk));
  WalStore wal(&sim, volume.get(), &stats);

  Measured m;
  sim.Spawn("bench", [&] {
    FileId f = wal.CreateFile();
    wal.Write(f, LockOwner{1, kNoTxn}, 0, std::vector<uint8_t>(512 * 1024, '.'));
    wal.CommitWriter(f, LockOwner{1, kNoTxn});
    wal.Checkpoint();
    int64_t w0 = stats.Get("io.writes");
    int64_t s0 = stats.Get("io.writes_seq");
    SimTime t0 = sim.Now();
    for (int t = 0; t < txns; ++t) {
      LockOwner owner{static_cast<Pid>(t + 10), kNoTxn};
      for (int r = 0; r < records; ++r) {
        int64_t offset = spread ? ((t * records + r) % 400) * 1024 : t * 1024;
        wal.Write(f, owner, offset, std::vector<uint8_t>(record_bytes, 'x'));
      }
      wal.CommitWriter(f, owner);
    }
    wal.Checkpoint();
    m.total_ms = ToMilliseconds(sim.Now() - t0);
    m.random_writes = stats.Get("io.writes") - w0;
    m.sequential_writes = stats.Get("io.writes_seq") - s0;
  });
  sim.Run();
  return m;
}

void RunMeasuredComparison() {
  printf("\nMeasured: intentions-list commit vs write-ahead log, 20 txns\n");
  printf("%-26s %12s %10s %10s %12s %10s %10s\n", "workload", "shadow ms", "rndW", "seqW",
         "wal ms", "rndW", "seqW");
  printf("--------------------------------------------------------------------------\n");
  struct Case {
    const char* name;
    int records;
    int64_t bytes;
    bool spread;
  };
  for (const Case& c : {Case{"1 record x 100 B", 1, 100, false},
                        Case{"8 records x 100 B spread", 8, 100, true},
                        Case{"8 records x 1 KB spread", 8, 1024, true},
                        Case{"2 records x 4 KB clustered", 2, 4096, false}}) {
    Measured shadow = MeasureShadow(20, c.records, c.bytes, c.spread);
    Measured wal = MeasureWal(20, c.records, c.bytes, c.spread);
    printf("%-26s %12.0f %10lld %10lld %12.0f %10lld %10lld\n", c.name, shadow.total_ms,
           static_cast<long long>(shadow.random_writes),
           static_cast<long long>(shadow.sequential_writes), wal.total_ms,
           static_cast<long long>(wal.random_writes),
           static_cast<long long>(wal.sequential_writes));
  }
  printf("--------------------------------------------------------------------------\n");
  printf("expected shape (paper): logging ahead for many small scattered\n");
  printf("records; the mechanisms competitive for large/clustered updates\n");
  printf("(\"for many combinations of record size and placement, shadow\n");
  printf("paging can provide comparable performance\").\n");
}

void BM_AnalyticModel(benchmark::State& state) {
  WorkloadModel w;
  w.record_bytes = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShadowPagingCost(w).TotalMs(w) - CommitLogCost(w).TotalMs(w));
  }
}
BENCHMARK(BM_AnalyticModel)->Arg(100)->Arg(1024);

}  // namespace
}  // namespace bench
}  // namespace locus

int main(int argc, char** argv) {
  locus::bench::RunAnalyticSweep();
  locus::bench::RunMeasuredComparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
