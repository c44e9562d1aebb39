// Ablation bench: the three mechanisms section 6.4 credits for the system's
// performance — "lightweight communication protocols, a primary site locking
// mechanism, and local lock caches" — plus the section 5.2 prefetch
// optimization and the LRU buffer pool that section 6.3's measurements rely
// on. Each table removes one mechanism and reports the damage.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace locus {
namespace bench {
namespace {

// --- Ablation 1: requester-side lock cache (section 5.1) -------------------

// Mean per-read latency of a remote transaction re-reading its own locked
// range; with the cache each read validates locally, without it every read
// re-requests the lock at the storage site.
double RemoteRereadLatencyMs(bool cache_enabled, int reads) {
  SystemOptions options;
  options.disable_lock_cache = !cache_enabled;
  System system(2, options);
  MakeCommittedFile(system, 0, "/hot", 4096);
  LatencyStat per_read;
  system.Spawn(1, "reader", [&](Syscalls& sys) {
    if (sys.BeginTrans() != Err::kOk) {
      return;
    }
    auto fd = sys.Open("/hot", {.read = true, .write = true});
    if (!fd.ok()) {
      return;
    }
    sys.Lock(fd.value, 256, LockOp::kShared);
    for (int i = 0; i < reads; ++i) {
      sys.Seek(fd.value, 0);
      SimTime t0 = sys.system().sim().Now();
      sys.Read(fd.value, 256);
      per_read.Add(sys.system().sim().Now() - t0);
    }
    sys.Close(fd.value);
    sys.EndTrans();
  });
  system.RunFor(Seconds(120));
  return per_read.MeanMs();
}

// --- Ablation 2: lock-grant page prefetch (section 5.2) --------------------

// Latency of the first read following a lock grant on cold pages.
double PostLockReadLatencyMs(bool prefetch) {
  SystemOptions options;
  options.lock_prefetch = prefetch;
  options.pool_pages = 64;
  System system(1, options);
  MakeCommittedFile(system, 0, "/cold", 8 * 1024);
  double latency = 0;
  system.Spawn(0, "p", [&](Syscalls& sys) {
    sys.system().kernel(0).buffer_pool().Clear();  // Cold cache.
    auto fd = sys.Open("/cold", {.read = true, .write = true});
    if (!fd.ok()) {
      return;
    }
    sys.Lock(fd.value, 4096, LockOp::kShared);
    sys.Compute(Milliseconds(150));  // Application think time after locking.
    SimTime t0 = sys.system().sim().Now();
    sys.Read(fd.value, 4096);
    latency = ToMilliseconds(sys.system().sim().Now() - t0);
    sys.Close(fd.value);
  });
  system.RunFor(Seconds(30));
  return latency;
}

// --- Ablation 3: buffer pool capacity (section 6.3) ------------------------

struct PoolResult {
  double commit_latency_ms = 0;
  int64_t rereads = 0;
};

// Differencing commits with the previous versions under LRU pressure.
PoolResult OverlapCommitWithPool(int32_t pool_pages) {
  SystemOptions options;
  options.pool_pages = pool_pages;
  System system(1, options);
  MakeCommittedFile(system, 0, "/f", 16 * 1024);
  PoolResult result;
  system.Spawn(0, "p", [&](Syscalls& sys) {
    // A lingering writer keeps every page "overlapping".
    sys.Fork(0, [](Syscalls& other) {
      auto fd = other.Open("/f", {.read = true, .write = true});
      if (!fd.ok()) {
        return;
      }
      for (int page = 0; page < 16; ++page) {
        other.Seek(fd.value, page * 1024 + 1000);
        other.WriteString(fd.value, "zz");
      }
      other.Compute(Seconds(600));
    });
    sys.Compute(Milliseconds(500));
    auto fd = sys.Open("/f", {.read = true, .write = true});
    if (!fd.ok()) {
      return;
    }
    int64_t rereads_before = sys.system().stats().Get("io.reads.data");
    LatencyStat commits;
    for (int round = 0; round < 8; ++round) {
      for (int page = 0; page < 16; ++page) {
        sys.Seek(fd.value, page * 1024);
        sys.WriteString(fd.value, "mine");
      }
      SimTime t0 = sys.system().sim().Now();
      sys.CommitFile(fd.value);
      commits.Add(sys.system().sim().Now() - t0);
    }
    sys.Close(fd.value);
    result.commit_latency_ms = commits.MeanMs();
    result.rereads = sys.system().stats().Get("io.reads.data") - rereads_before;
  });
  system.RunFor(Seconds(300));
  return result;
}

void RunTables() {
  PrintHeader("Mechanism ablations", "section 6.4's performance attribution");

  printf("1. Requester-side lock cache (section 5.1), remote re-reads\n");
  printf("%-28s %18s\n", "configuration", "mean read (ms)");
  printf("------------------------------------------------------------------\n");
  double with_cache = RemoteRereadLatencyMs(true, 16);
  double without_cache = RemoteRereadLatencyMs(false, 16);
  printf("%-28s %18.2f\n", "lock cache enabled", with_cache);
  printf("%-28s %18.2f\n", "lock cache disabled", without_cache);
  printf("-> the cache removes one %0.0f ms lock exchange per re-read\n\n",
         without_cache - with_cache);

  printf("2. Lock-grant page prefetch (section 5.2), cold 4 KB read\n");
  printf("%-28s %18s\n", "configuration", "first read (ms)");
  printf("------------------------------------------------------------------\n");
  double no_prefetch = PostLockReadLatencyMs(false);
  double prefetch = PostLockReadLatencyMs(true);
  printf("%-28s %18.1f\n", "prefetch off", no_prefetch);
  printf("%-28s %18.1f\n", "prefetch on", prefetch);
  printf("-> prefetch hides ~%.0f ms of disk reads behind think time\n\n",
         no_prefetch - prefetch);

  printf("3. Buffer pool capacity vs differencing re-reads (section 6.3)\n");
  printf("%-28s %14s %14s\n", "pool (pages)", "commit (ms)", "re-reads");
  printf("------------------------------------------------------------------\n");
  for (int32_t pool : {0, 4, 64}) {
    PoolResult r = OverlapCommitWithPool(pool);
    printf("%-28d %14.1f %14lld\n", pool, r.commit_latency_ms,
           static_cast<long long>(r.rereads));
  }
  printf("-> an install leaves the page it publishes in the pool, so once\n");
  printf("   the file's 16 pages fit, every differencing commit finds its\n");
  printf("   previous version buffered and the re-reads vanish even under\n");
  printf("   permanent overlap: the paper's Figure 6 'buffered' case (see\n");
  printf("   bench/fig6_commit). A smaller pool re-reads every page.\n");
}

void BM_AblationPipeline(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(PostLockReadLatencyMs(state.range(0) != 0));
  }
}
BENCHMARK(BM_AblationPipeline)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace locus

int main(int argc, char** argv) {
  locus::bench::RunTables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
