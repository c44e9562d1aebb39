// tp1_bench: the repository benchmark's TP1 (debit/credit) driver.
//
// Runs closed-loop teller transfers against fresh simulated Locus clusters,
// using only the public System / Syscalls API, and reports both clocks: how
// fast the simulator runs on the host, and the paper's virtual-time costs
// (section 6.2 lock latency, Figure 6 commit latency, Figure 5 I/O counts).
// perfbench/README.md explains the workloads, every metric and the
// prediction table.
//
//   tp1_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// A run is a sequence of passes; a pass runs `clusters_per_pass` fresh
// clusters whose seeds derive from the workload seed. Passes repeat until
// the next one would end past `--seconds` of host time (`--seconds 0` runs
// the fewest: one pass, two when traced), and every pass must reproduce the
// first one's virtual results bit for bit.
// Virtual metrics come from the first pass; host metrics are medians over
// passes. With --trace 1 the odd passes record spans: their virtual results
// must equal the untraced ones, and the run prints the layer table and the
// tracing overhead. The last stdout line is one JSON object; a correctness
// failure exits nonzero before it is printed.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/audit/observer.h"
#include "src/locus/system.h"
#include "src/workload/debit_credit.h"

namespace locus::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Workload {
  const char* name;
  int sites;
  int branches;              // Branch file b is stored at site b % sites.
  int tellers;               // Teller t runs at site t % sites.
  int accounts_per_branch;
  bool home_only;            // Both accounts in branch t % branches, at the teller's site.
  double local_fraction;     // Otherwise: share of transfers kept in one branch.
  int transfers_per_teller;  // Per cluster; sized well under the fiber ceiling.
  int clusters_per_pass;
};

constexpr Workload kWorkloads[] = {
    // 16 sites, uniform branches: mostly cross-site transfers (net, form,
    // 2PC fan-out, remote locks, handler-fiber spawns). Each branch is one
    // 1 KB page; see README.md for why not four.
    {"tp1_spread16", 16, 16, 48, 64, false, 0.0, 20, 20},
    // 4 sites, each teller on its own 256-page home branch, so a site holds
    // three times its 256-page pool: buffer-pool misses, disk reads, local
    // locks and single-site commit.
    {"tp1_home_large", 4, 12, 12, 16384, true, 1.0, 160, 8},
    // 4 sites, 16 accounts per branch (one page), half local: lock queueing,
    // deadlock victims, retries and Figure-4 page differencing.
    {"tp1_hotspot", 4, 4, 24, 16, false, 0.5, 40, 16},
};

constexpr int kMaxAttempts = 6;
constexpr SimTime kThinkMin = Milliseconds(1);
constexpr SimTime kThinkMax = Milliseconds(40);
constexpr SimTime kBackoffStep = Milliseconds(15);
constexpr SimTime kDetectorPeriod = Milliseconds(150);
constexpr int64_t kInitialBalance = 1000;
constexpr int kRecordBytes = DebitCreditWorkload::kRecordBytes;
// Each SimProcess keeps a guarded fiber stack (two mappings) until its
// Simulation is destroyed, and vm.max_map_count defaults to 65530, so one
// Simulation can hold ~32k process lifetimes before mmap fails. A cluster
// that spawns more than half of that is refused rather than risked.
constexpr int kSpawnLimit = 16000;
// The traced run keeps (and writes out) the spans of this many clusters.
constexpr int kSavedClusters = 4;
// Latency of a transfer abandoned after kMaxAttempts: misses every limit.
constexpr SimTime kMissed = std::numeric_limits<SimTime>::max();

// Spans and per-call samples are keyed by layer. The first kSyscallLayers
// are the Syscalls calls a transfer makes; the rest are the transfer itself
// and the two commit phases the observer reports.
enum Layer : uint8_t {
  kBegin,
  kOpen,
  kSeek,
  kLock,
  kRead,
  kWrite,
  kClose,
  kEnd,
  kAbort,
  kSyscallLayers,
  kTransfer = kSyscallLayers,
  kPrepare,
  kPhase2,
  kLayerCount,
};
constexpr const char* kLayerNames[kLayerCount] = {
    "txn.begin", "fs.open", "fs.seek", "lock.acquire", "fs.read",     "fs.write",
    "fs.close",  "txn.end", "txn.abort", "transfer",   "txn.prepare", "txn.phase2"};

uint64_t Mix(uint64_t a, uint64_t b) { return Rng(a * 0x2545F4914F6CDD1DULL ^ b).Next(); }

double HostSeconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

[[noreturn]] void Die(const char* format, ...) {
  va_list args;
  va_start(args, format);
  fprintf(stderr, "tp1_bench: ");
  vfprintf(stderr, format, args);
  fprintf(stderr, "\n");
  va_end(args);
  std::exit(1);
}

// Nearest-rank percentile of unsorted samples, in milliseconds.
double PercentileMs(std::vector<SimTime> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(samples.size()) + 0.999999);
  size_t index = std::min(samples.size(), std::max<size_t>(rank, 1)) - 1;
  return samples[index] == kMissed ? std::numeric_limits<double>::infinity()
                                   : ToMilliseconds(samples[index]);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct HostUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t minor_faults = 0;

  static HostUsage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
    return {secs(ru.ru_utime), secs(ru.ru_stime), ru.ru_minflt};
  }
  HostUsage operator-(const HostUsage& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s, minor_faults - o.minor_faults};
  }
  HostUsage& operator+=(const HostUsage& o) {
    user_s += o.user_s;
    sys_s += o.sys_s;
    minor_faults += o.minor_faults;
    return *this;
  }
};

// On a shared host, speed can differ between cores by up to a third, and a
// process tends to stay on the core it started on, so one run would measure
// whichever core it landed on. Each cluster instead runs pinned to the next
// allowed core in turn, so every pass samples all of them.
class CoreRotation {
 public:
  CoreRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
          cores_.push_back(cpu);
        }
      }
    }
  }
  void PinNext() {
    if (cores_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cores_[next_++ % cores_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<int> cores_;
  size_t next_ = 0;
};

// Every public counter of the cluster, plus a few that are not registry
// entries (spawned processes, buffer-pool hits and misses).
std::map<std::string, int64_t> SnapshotCounters(System& system) {
  std::map<std::string, int64_t> out = system.stats().counters();
  for (const auto& [name, value] : system.net().stats().counters()) {
    out[name] += value;
  }
  out["sim.spawned"] = system.sim().spawned_process_count();
  for (SiteId s = 0; s < system.site_count(); ++s) {
    out["pool.hits"] += system.kernel(s).buffer_pool().hits();
    out["pool.misses"] += system.kernel(s).buffer_pool().misses();
  }
  return out;
}

std::map<std::string, int64_t> Delta(const std::map<std::string, int64_t>& after,
                                     const std::map<std::string, int64_t>& before) {
  std::map<std::string, int64_t> out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    int64_t d = value - (it == before.end() ? 0 : it->second);
    if (d != 0) {
      out[name] = d;
    }
  }
  return out;
}

int64_t Sum(const std::map<std::string, int64_t>& counters, const std::string& prefix) {
  int64_t total = 0;
  for (auto it = counters.lower_bound(prefix); it != counters.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    total += it->second;
  }
  return total;
}

int64_t Get(const std::map<std::string, int64_t>& counters, const std::string& name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, one root span per transfer.

struct Span {
  int64_t transfer = 0;
  Layer layer = kTransfer;
  SimTime virt_start = 0;
  SimTime virt_end = 0;
  int64_t host_start_ns = 0;
  int64_t host_end_ns = 0;
};

// Records the driver's spans and, as a passive ProtocolObserver, the two
// commit phases: txn.prepare runs from the first OnPrepareRequest to
// OnCommitPoint, txn.phase2 from OnCommitPoint to the last OnInstall of the
// transaction's prepared pages.
class Tracer : public ProtocolObserver {
 public:
  explicit Tracer(Clock::time_point origin) : ProtocolObserver(true), origin_(origin) {}

  void AttachCluster(System* system) {
    sim_ = &system->sim();
    system->observers().Register(this);
  }
  // Closes the phase-2 spans of the cluster that just drained.
  void DetachCluster() {
    for (const auto& [txn, open] : phase2_) {
      if (open.installed) {
        spans_.push_back(open.span);
      }
    }
    prepare_.clear();
    phase2_.clear();
    txn_transfer_.clear();
    pending_pages_.clear();
    sim_ = nullptr;
  }

  int64_t HostNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }
  void Add(const Span& span) { spans_.push_back(span); }
  void BindTxn(const TxnId& txn, int64_t transfer) { txn_transfer_[txn] = transfer; }
  std::vector<Span> TakeSpans() { return std::exchange(spans_, {}); }

  void OnPrepareRequest(const std::string&, const TxnId& txn) override {
    auto it = txn_transfer_.find(txn);
    if (it != txn_transfer_.end() && prepare_.count(txn) == 0) {
      prepare_[txn] = Begin(it->second, kPrepare);
    }
  }
  void OnCommitPoint(const std::string&, const TxnId& txn, const std::vector<std::string>&,
                     int) override {
    ClosePrepare(txn);
    auto it = txn_transfer_.find(txn);
    if (it != txn_transfer_.end() && phase2_.count(txn) == 0) {
      phase2_[txn] = {Begin(it->second, kPhase2), false};
    }
  }
  void OnAbortDecision(const std::string&, const TxnId& txn) override { ClosePrepare(txn); }
  void OnPrepareFlushed(const std::string&, const TxnId& txn,
                        const IntentionsList& intentions) override {
    for (const PageUpdate& u : intentions.updates) {
      pending_pages_[{intentions.file.volume, u.new_page}] = txn;
    }
  }
  void OnInstall(const std::string&, const IntentionsList& intentions) override {
    for (const PageUpdate& u : intentions.updates) {
      auto page = pending_pages_.find({intentions.file.volume, u.new_page});
      if (page == pending_pages_.end()) {
        continue;
      }
      auto it = phase2_.find(page->second);
      pending_pages_.erase(page);
      if (it != phase2_.end()) {
        it->second.span.virt_end = sim_->Now();
        it->second.span.host_end_ns = HostNs();
        it->second.installed = true;
      }
    }
  }

 private:
  struct OpenPhase {
    Span span;
    bool installed = false;
  };

  Span Begin(int64_t transfer, Layer layer) const {
    SimTime now = sim_->Now();
    int64_t host = HostNs();
    return {transfer, layer, now, now, host, host};
  }
  void ClosePrepare(const TxnId& txn) {
    auto it = prepare_.find(txn);
    if (it == prepare_.end()) {
      return;
    }
    it->second.virt_end = sim_->Now();
    it->second.host_end_ns = HostNs();
    spans_.push_back(it->second);
    prepare_.erase(it);
  }

  Clock::time_point origin_;
  Simulation* sim_ = nullptr;
  std::vector<Span> spans_;
  std::map<TxnId, int64_t> txn_transfer_;
  std::map<TxnId, Span> prepare_;
  std::map<TxnId, OpenPhase> phase2_;
  std::map<std::pair<VolumeId, PageId>, TxnId> pending_pages_;
};

// ---------------------------------------------------------------------------
// One cluster: set up, run the tellers, drain, audit.

struct ClusterResult {
  // Virtual results: a pure function of the workload and the cluster seed.
  int transfers = 0;
  int commits = 0;
  int attempts = 0;
  int abandoned = 0;
  SimTime window = 0;             // First teller start to last teller exit.
  std::vector<SimTime> latency;   // Per transfer; kMissed when abandoned.
  std::array<std::vector<SimTime>, kSyscallLayers> calls;  // Per Syscalls call.
  std::map<std::string, int64_t> counters;                 // Window deltas.
  // Host measurements.
  double setup_s = 0.0;
  double window_s = 0.0;
  double drain_s = 0.0;
  HostUsage usage;  // Over the window only.
};

uint64_t Digest(const ClusterResult& r) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ static_cast<uint64_t>((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  };
  for (int64_t v : {int64_t{r.transfers}, int64_t{r.commits}, int64_t{r.attempts},
                    int64_t{r.abandoned}, r.window}) {
    mix(v);
  }
  for (SimTime v : r.latency) {
    mix(v);
  }
  for (const auto& calls : r.calls) {
    mix(static_cast<int64_t>(calls.size()));
    for (SimTime v : calls) {
      mix(v);
    }
  }
  for (const auto& [name, value] : r.counters) {
    for (char c : name) {
      mix(c);
    }
    mix(value);
  }
  return h;
}

class ClusterRun {
 public:
  ClusterRun(const Workload& w, uint64_t seed, int64_t transfer_base, Tracer* tracer)
      : w_(w), seed_(seed), transfer_base_(transfer_base), tracer_(tracer) {}

  ClusterResult Run() {
    const Clock::time_point setup_start = Clock::now();
    SystemOptions options;
    options.seed = Mix(seed_, 0);
    options.formation = true;
    System system(w_.sites, options);
    system.sim().set_drain_watchdog(DrainWatchdog::kReport);
    if (tracer_ != nullptr) {
      tracer_->AttachCluster(&system);
    }
    Load(system);
    out_.setup_s = HostSeconds(Clock::now() - setup_start);

    // The transfer window: the detector polls while tellers run and is
    // stopped by the last teller to exit, so no idle tail is timed.
    const std::map<std::string, int64_t> before = SnapshotCounters(system);
    const HostUsage usage_before = HostUsage::Now();
    const Clock::time_point window_start = Clock::now();
    const SimTime virt_start = system.sim().Now();
    Clock::time_point window_end;
    system.StartDeadlockDetector(0, kDetectorPeriod);
    int live = w_.tellers;
    for (int t = 0; t < w_.tellers; ++t) {
      system.Spawn(t % w_.sites, "teller" + std::to_string(t), [&, t](Syscalls& sys) {
        Teller(sys, t);
        if (--live == 0) {
          window_end = Clock::now();
          out_.usage = HostUsage::Now() - usage_before;
          out_.window = sys.system().sim().Now() - virt_start;
          out_.counters = Delta(SnapshotCounters(system), before);
          system.StopDaemons();
        }
      });
    }
    system.Run();
    if (live != 0) {
      Die("%s: %d tellers never finished", w_.name, live);
    }
    out_.window_s = HostSeconds(window_end - window_start);

    Audit(system);
    out_.drain_s = HostSeconds(Clock::now() - window_end);
    if (system.sim().blocked_process_count() != 0 || system.sim().drain_watchdog_tripped()) {
      Die("%s: %d processes left blocked after the drain", w_.name,
          system.sim().blocked_process_count());
    }
    const int spawned = system.sim().spawned_process_count();
    if (spawned > kSpawnLimit) {
      Die("%s: one cluster spawned %d processes, over the fiber ceiling guard of %d "
          "(each keeps two mappings until teardown; vm.max_map_count is 65530); "
          "lower transfers_per_teller",
          w_.name, spawned, kSpawnLimit);
    }
    if (tracer_ != nullptr) {
      tracer_->DetachCluster();
    }
    return std::move(out_);
  }

 private:
  int Branches() const { return w_.branches; }

  void Load(System& system) {
    int loaded = 0;
    const int records_per_write = system.options().page_size / kRecordBytes;
    for (int b = 0; b < Branches(); ++b) {
      system.Spawn(b % w_.sites, "loader", [&, b](Syscalls& sys) {
        const std::string path = DebitCreditWorkload::BranchPath(b);
        if (sys.Creat(path) != Err::kOk) {
          return;
        }
        auto fd = sys.Open(path, {.read = true, .write = true});
        if (!fd.ok()) {
          return;
        }
        const std::string record = DebitCreditWorkload::FormatBalance(kInitialBalance);
        for (int a = 0; a < w_.accounts_per_branch; a += records_per_write) {
          std::string chunk;
          for (int i = a; i < std::min(a + records_per_write, w_.accounts_per_branch); ++i) {
            chunk += record;
          }
          if (sys.WriteString(fd.value, chunk) != Err::kOk) {
            return;
          }
        }
        if (sys.Close(fd.value) == Err::kOk) {
          ++loaded;
        }
      });
    }
    system.Run();
    if (loaded != Branches()) {
      Die("%s: loaded %d of %d branch files", w_.name, loaded, Branches());
    }
  }

  // Conservation: after the drain every branch is read back by a process at
  // its own site, and the balances must sum to the initial total.
  void Audit(System& system) {
    int64_t total = 0;
    int audited = 0;
    const int64_t bytes = int64_t{w_.accounts_per_branch} * kRecordBytes;
    for (int b = 0; b < Branches(); ++b) {
      system.Spawn(b % w_.sites, "auditor", [&, b](Syscalls& sys) {
        for (int attempt = 0; attempt < 50; ++attempt) {
          auto fd = sys.Open(DebitCreditWorkload::BranchPath(b), {});
          if (fd.ok()) {
            auto data = sys.Read(fd.value, bytes);
            sys.Close(fd.value);
            if (data.ok() && static_cast<int64_t>(data.value.size()) == bytes) {
              for (int64_t off = 0; off < bytes; off += kRecordBytes) {
                total += DebitCreditWorkload::ParseBalance(
                    {data.value.begin() + off, data.value.begin() + off + kRecordBytes});
              }
              ++audited;
              return;
            }
          }
          sys.Compute(Milliseconds(200));
        }
      });
    }
    system.Run();
    const int64_t expected = int64_t{Branches()} * w_.accounts_per_branch * kInitialBalance;
    if (audited != Branches()) {
      Die("%s: audit read %d of %d branches", w_.name, audited, Branches());
    }
    if (total != expected) {
      Die("%s: conservation violated: balances sum to %lld, expected %lld", w_.name,
          static_cast<long long>(total), static_cast<long long>(expected));
    }
  }

  void Teller(Syscalls& sys, int t) {
    Rng rng(Mix(seed_, 1000 + static_cast<uint64_t>(t)));
    const int home = t % Branches();
    for (int i = 0; i < w_.transfers_per_teller; ++i) {
      sys.Compute(rng.Range(kThinkMin, kThinkMax));
      int from_branch = w_.home_only ? home : static_cast<int>(rng.Below(Branches()));
      int to_branch = w_.home_only || rng.Chance(w_.local_fraction)
                          ? from_branch
                          : static_cast<int>(rng.Below(Branches()));
      int from_acct = static_cast<int>(rng.Below(w_.accounts_per_branch));
      int to_acct = static_cast<int>(rng.Below(w_.accounts_per_branch));
      while (from_branch == to_branch && from_acct == to_acct) {
        to_acct = static_cast<int>(rng.Below(w_.accounts_per_branch));
      }
      const int64_t amount = rng.Range(1, 50);
      const int64_t id = transfer_base_ + int64_t{t} * w_.transfers_per_teller + i;

      Simulation& sim = sys.system().sim();
      const SimTime start = sim.Now();
      const int64_t host_start = tracer_ != nullptr ? tracer_->HostNs() : 0;
      bool committed = false;
      for (int attempt = 0; attempt < kMaxAttempts && !committed; ++attempt) {
        ++out_.attempts;
        committed = Transfer(sys, id, from_branch, from_acct, to_branch, to_acct, amount);
        if (!committed) {
          sys.Compute(kBackoffStep * (attempt + 1));
        }
      }
      ++out_.transfers;
      if (committed) {
        ++out_.commits;
        out_.latency.push_back(sim.Now() - start);
      } else {
        ++out_.abandoned;
        out_.latency.push_back(kMissed);
      }
      if (tracer_ != nullptr) {
        tracer_->Add({id, kTransfer, start, sim.Now(), host_start, tracer_->HostNs()});
      }
    }
  }

  // Times one Syscalls call in virtual time and, when tracing, records it as
  // a child span of the transfer.
  template <typename F>
  auto Timed(Syscalls& sys, Layer layer, int64_t transfer, F&& call) {
    Simulation& sim = sys.system().sim();
    const SimTime start = sim.Now();
    const int64_t host_start = tracer_ != nullptr ? tracer_->HostNs() : 0;
    auto result = call();
    out_.calls[layer].push_back(sim.Now() - start);
    if (tracer_ != nullptr) {
      tracer_->Add({transfer, layer, start, sim.Now(), host_start, tracer_->HostNs()});
    }
    return result;
  }

  // The DebitCreditWorkload::Transfer syscall sequence: BeginTrans, Open x2,
  // Seek+Lock+Read per account, Seek+Write x2, Close x2, EndTrans.
  bool Transfer(Syscalls& sys, int64_t id, int from_branch, int from_acct, int to_branch,
                int to_acct, int64_t amount) {
    if (Timed(sys, kBegin, id, [&] { return sys.BeginTrans(); }) != Err::kOk) {
      return false;
    }
    if (tracer_ != nullptr) {
      tracer_->BindTxn(sys.CurrentTxn(), id);
    }
    auto open = [&](int branch) {
      return Timed(sys, kOpen, id, [&] {
        return sys.Open(DebitCreditWorkload::BranchPath(branch), {.read = true, .write = true});
      });
    };
    auto from_fd = open(from_branch);
    auto to_fd = open(to_branch);
    bool ok = from_fd.ok() && to_fd.ok();
    auto lock_and_read = [&](int fd, int acct, int64_t* balance) {
      Timed(sys, kSeek, id, [&] { return sys.Seek(fd, int64_t{acct} * kRecordBytes); });
      if (Timed(sys, kLock, id, [&] {
            return sys.Lock(fd, kRecordBytes, LockOp::kExclusive);
          }).err != Err::kOk) {
        return false;
      }
      auto data = Timed(sys, kRead, id, [&] { return sys.Read(fd, kRecordBytes); });
      if (!data.ok()) {
        return false;
      }
      *balance = DebitCreditWorkload::ParseBalance(data.value);
      return true;
    };
    auto write = [&](int fd, int acct, int64_t balance) {
      Timed(sys, kSeek, id, [&] { return sys.Seek(fd, int64_t{acct} * kRecordBytes); });
      std::string record = DebitCreditWorkload::FormatBalance(balance);
      return Timed(sys, kWrite, id, [&] {
               return sys.Write(fd, {record.begin(), record.end()});
             }) == Err::kOk;
    };
    int64_t from_balance = 0;
    int64_t to_balance = 0;
    ok = ok && lock_and_read(from_fd.value, from_acct, &from_balance);
    ok = ok && lock_and_read(to_fd.value, to_acct, &to_balance);
    ok = ok && write(from_fd.value, from_acct, from_balance - amount);
    ok = ok && write(to_fd.value, to_acct, to_balance + amount);
    for (const auto& fd : {from_fd, to_fd}) {
      if (fd.ok()) {
        Timed(sys, kClose, id, [&] { return sys.Close(fd.value); });
      }
    }
    if (!ok) {
      if (sys.InTransaction()) {
        Timed(sys, kAbort, id, [&] { return sys.AbortTrans(); });
      }
      return false;
    }
    return Timed(sys, kEnd, id, [&] { return sys.EndTrans(); }) == Err::kOk;
  }

  const Workload& w_;
  const uint64_t seed_;
  const int64_t transfer_base_;
  Tracer* const tracer_;
  ClusterResult out_;
};

// ---------------------------------------------------------------------------
// Passes, metrics, the layer table.

struct Pass {
  bool traced = false;
  uint64_t digest = 0;
  int commits = 0;
  double window_s = 0.0;
  std::vector<ClusterResult> clusters;  // Kept for the first pass only.

  double host_txn_per_s() const { return Ratio(commits, window_s); }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> EndToEnd(const std::vector<ClusterResult>& ref, double host_txn_per_s,
                             double setup_s, double peak_rss_mb) {
  std::vector<SimTime> latency;
  int commits = 0;
  int attempts = 0;
  SimTime window = 0;
  for (const ClusterResult& c : ref) {
    latency.insert(latency.end(), c.latency.begin(), c.latency.end());
    commits += c.commits;
    attempts += c.attempts;
    window += c.window;
  }
  return {
      {"host_txn_per_s", host_txn_per_s, "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", setup_s, "s"},
      {"virt_txn_per_s", Ratio(commits, ToMilliseconds(window) / 1000.0), "1/s"},
      {"virt_latency_p50_ms", PercentileMs(latency, 0.50), "ms"},
      {"virt_latency_p99_ms", PercentileMs(latency, 0.99), "ms"},
      {"commit_ratio", Ratio(commits, attempts), "share"},
  };
}

std::vector<Metric> PerLayer(const std::vector<ClusterResult>& ref, const HostUsage& usage,
                             int usage_commits, double drain_ms, double trace_overhead) {
  std::map<std::string, int64_t> c;
  std::array<std::vector<SimTime>, kSyscallLayers> calls;
  double commits = 0;
  double attempts = 0;
  for (const ClusterResult& r : ref) {
    for (const auto& [name, value] : r.counters) {
      c[name] += value;
    }
    for (int l = 0; l < kSyscallLayers; ++l) {
      calls[l].insert(calls[l].end(), r.calls[l].begin(), r.calls[l].end());
    }
    commits += r.commits;
    attempts += r.attempts;
  }
  auto per_txn = [&](int64_t v) { return Ratio(static_cast<double>(v), commits); };
  const double diffed = Get(c, "fs.commit.diffed_pages");
  const double direct = Get(c, "fs.commit.direct_pages");
  const double deadline = Get(c, "form.flushes_deadline");
  const double pool_hits = Get(c, "pool.hits");
  return {
      {"sim.spawns_per_txn", per_txn(Get(c, "sim.spawned")), "count"},
      {"sim.drain_host_ms", drain_ms, "ms"},
      {"host.user_us_per_txn", Ratio(usage.user_s * 1e6, usage_commits), "us"},
      {"host.sys_us_per_txn", Ratio(usage.sys_s * 1e6, usage_commits), "us"},
      {"host.minor_faults_per_txn",
       Ratio(static_cast<double>(usage.minor_faults), usage_commits), "count"},
      {"net.messages_per_txn", per_txn(Get(c, "net.messages")), "count"},
      {"form.messages_per_batch", Ratio(Get(c, "form.batch_messages"), Get(c, "form.batches")),
       "count"},
      {"form.deadline_flush_share", Ratio(deadline, deadline + Get(c, "form.flushes_size")),
       "share"},
      {"lock.acquire_virt_ms_p50", PercentileMs(calls[kLock], 0.50), "ms"},
      {"lock.acquire_virt_ms_p99", PercentileMs(calls[kLock], 0.99), "ms"},
      {"lock.queued_share", Ratio(Get(c, "lock.queued"), Get(c, "lock.requests")), "share"},
      {"lock.deadlock_victims_per_ktxn", 1000.0 * per_txn(Get(c, "deadlock.victims")), "count"},
      {"txn.commit_virt_ms_p50", PercentileMs(calls[kEnd], 0.50), "ms"},
      {"txn.commit_virt_ms_p99", PercentileMs(calls[kEnd], 0.99), "ms"},
      {"txn.attempts_per_commit", Ratio(attempts, commits), "count"},
      {"txn.abort_ratio", Ratio(attempts - commits, attempts), "share"},
      {"fs.open_virt_ms_p50", PercentileMs(calls[kOpen], 0.50), "ms"},
      {"fs.read_virt_ms_p50", PercentileMs(calls[kRead], 0.50), "ms"},
      {"fs.read_virt_ms_p99", PercentileMs(calls[kRead], 0.99), "ms"},
      {"fs.write_virt_ms_p50", PercentileMs(calls[kWrite], 0.50), "ms"},
      {"fs.pool_hit_ratio", Ratio(pool_hits, pool_hits + Get(c, "pool.misses")), "share"},
      {"fs.diffed_page_share", Ratio(diffed, diffed + direct), "share"},
      {"fs.shadow_pages_per_txn", per_txn(Get(c, "fs.shadow_pages_allocated")), "count"},
      {"storage.disk_reads_per_txn", per_txn(Get(c, "io.reads") + Get(c, "io.reads_seq")),
       "count"},
      {"storage.disk_writes_per_txn", per_txn(Get(c, "io.writes") + Get(c, "io.writes_seq")),
       "count"},
      {"storage.log_forces_per_txn", per_txn(Get(c, "form.log_forces")), "count"},
      {"storage.records_per_group_force",
       Ratio(Get(c, "form.group_commit_records"), Get(c, "form.log_forces")), "count"},
      {"cpu.instructions_per_txn", per_txn(Sum(c, "cpu.site")), "count"},
      {"trace.overhead_host_txn_per_s", trace_overhead, "1/s"},
  };
}

// Length of [lo, hi) covered by the union of `intervals`.
int64_t Covered(int64_t lo, int64_t hi, std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return covered;
}

// Per-layer self time: a transfer's self time excludes its Syscalls spans, a
// Syscalls span's excludes the commit-phase spans inside it.
void PrintLayerTable(const char* workload, const std::vector<Span>& spans, int commits) {
  std::map<int64_t, std::vector<const Span*>> by_transfer;
  for (const Span& s : spans) {
    by_transfer[s.transfer].push_back(&s);
  }
  struct Row {
    int64_t count = 0;
    int64_t virt = 0;
    int64_t virt_self = 0;
    int64_t host_self = 0;
  };
  std::array<Row, kLayerCount> rows{};
  for (const auto& [transfer, group] : by_transfer) {
    for (const Span* s : group) {
      std::vector<std::pair<int64_t, int64_t>> virt_children;
      std::vector<std::pair<int64_t, int64_t>> host_children;
      const bool syscall = s->layer < kSyscallLayers;
      if (s->layer == kTransfer || syscall) {
        for (const Span* o : group) {
          const bool child = s->layer == kTransfer ? o->layer < kSyscallLayers
                                                   : o->layer == kPrepare || o->layer == kPhase2;
          if (child) {
            virt_children.emplace_back(o->virt_start, o->virt_end);
            host_children.emplace_back(o->host_start_ns, o->host_end_ns);
          }
        }
      }
      Row& row = rows[s->layer];
      row.count++;
      row.virt += s->virt_end - s->virt_start;
      row.virt_self += s->virt_end - s->virt_start -
                       Covered(s->virt_start, s->virt_end, std::move(virt_children));
      row.host_self += s->host_end_ns - s->host_start_ns -
                       Covered(s->host_start_ns, s->host_end_ns, std::move(host_children));
    }
  }
  printf("layer table: %s, %zu transfers and %d commits of the first %d traced clusters\n",
         workload, by_transfer.size(), commits, kSavedClusters);
  printf("  %-13s %9s %9s %13s %13s %14s\n", "layer", "spans", "per_txn", "virt_mean_ms",
         "virt_self_ms", "host_self_us");
  printf("  %-13s %9s %9s %13s %13s %14s\n", "", "", "", "", "(per txn)", "(per txn)");
  for (int l = 0; l < kLayerCount; ++l) {
    const Row& row = rows[l];
    if (row.count == 0) {
      continue;
    }
    printf("  %-13s %9lld %9.2f %13.3f %13.3f %14.1f\n", kLayerNames[l],
           static_cast<long long>(row.count), Ratio(row.count, commits),
           ToMilliseconds(row.virt) / row.count, Ratio(ToMilliseconds(row.virt_self), commits),
           Ratio(row.host_self / 1e3, commits));
  }
  printf("  (host self time is wall time while the span was open; the simulator\n"
         "   interleaves processes, so it includes other processes' work)\n");
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    Die("cannot write spans to %s: %s", path.c_str(), strerror(errno));
  }
  for (const Span& s : spans) {
    fprintf(f,
            "{\"transfer\":%lld,\"name\":\"%s\",\"virt_start_us\":%lld,\"virt_end_us\":%lld,"
            "\"host_start_ns\":%lld,\"host_end_ns\":%lld}\n",
            static_cast<long long>(s.transfer), kLayerNames[s.layer],
            static_cast<long long>(s.virt_start), static_cast<long long>(s.virt_end),
            static_cast<long long>(s.host_start_ns), static_cast<long long>(s.host_end_ns));
  }
  if (fclose(f) != 0) {
    Die("cannot write spans to %s", path.c_str());
  }
}

void PrintJson(const std::vector<Metric>& metrics, int64_t attempted, int64_t failed) {
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      // A percentile landed on abandoned transfers, which miss every limit.
      Die("%s is not finite: %lld of %lld transfers were abandoned", m.name.c_str(),
          static_cast<long long>(failed), static_cast<long long>(attempted));
    }
  }
  printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
         static_cast<long long>(attempted), static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
           metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  printf("}}\n");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

Args Parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Die("missing value for %s", flag.c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value);
    } else if (flag == "--trace") {
      a.trace = std::atoi(value) != 0;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      Die("unknown flag %s", flag.c_str());
    }
  }
  if (!have_workload) {
    Die("usage: tp1_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
        "[--trace-out <file>]");
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) {
      w = &candidate;
    }
  }
  if (w == nullptr) {
    Die("unknown workload %s", args.workload.c_str());
  }

  const Clock::time_point run_start = Clock::now();
  Tracer tracer(run_start);
  CoreRotation cores;
  std::vector<Pass> passes;
  std::vector<double> setup_s;
  std::vector<double> drain_ms;
  std::vector<Span> saved_spans;  // From the first kSavedClusters traced clusters.
  int saved_clusters = 0;
  int saved_commits = 0;
  HostUsage untraced_usage;
  int untraced_commits = 0;
  const int min_passes = args.trace ? 2 : 1;
  const int transfers_per_cluster = w->tellers * w->transfers_per_teller;
  for (int p = 0;; ++p) {
    // Stop before a pass that would end past the deadline.
    const double elapsed = HostSeconds(Clock::now() - run_start);
    if (p >= min_passes && elapsed + elapsed / p > args.seconds) {
      break;
    }
    Pass pass;
    pass.traced = args.trace && p % 2 == 1;
    uint64_t digest = 0;
    for (int k = 0; k < w->clusters_per_pass; ++k) {
      cores.PinNext();
      ClusterRun run(*w, Mix(args.seed, static_cast<uint64_t>(k)),
                     int64_t{k} * transfers_per_cluster, pass.traced ? &tracer : nullptr);
      ClusterResult r = run.Run();
      digest = Mix(digest, Digest(r));
      pass.commits += r.commits;
      pass.window_s += r.window_s;
      setup_s.push_back(r.setup_s);
      drain_ms.push_back(r.drain_s * 1e3);
      if (!pass.traced) {
        untraced_usage += r.usage;
        untraced_commits += r.commits;
      } else if (saved_clusters < kSavedClusters) {
        std::vector<Span> spans = tracer.TakeSpans();
        saved_spans.insert(saved_spans.end(), spans.begin(), spans.end());
        saved_commits += r.commits;
        ++saved_clusters;
      } else {
        tracer.TakeSpans();
      }
      if (p == 0) {
        pass.clusters.push_back(std::move(r));
      }
    }
    pass.digest = digest;
    if (p > 0 && pass.digest != passes[0].digest) {
      Die("%s: pass %d%s diverged from pass 1 in virtual results (digest %016llx vs %016llx)",
          w->name, p + 1, pass.traced ? " (traced)" : "",
          static_cast<unsigned long long>(pass.digest),
          static_cast<unsigned long long>(passes[0].digest));
    }
    printf("pass %d%s: %d commits in %.3f s of transfer windows, %.1f host_txn_per_s\n", p + 1,
           pass.traced ? " (traced)" : "", pass.commits, pass.window_s, pass.host_txn_per_s());
    passes.push_back(std::move(pass));
  }

  std::vector<double> untraced_tps;
  std::vector<double> traced_tps;
  for (const Pass& pass : passes) {
    (pass.traced ? traced_tps : untraced_tps).push_back(pass.host_txn_per_s());
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const std::vector<ClusterResult>& ref = passes[0].clusters;
  const double host_tps = Median(untraced_tps);
  const std::vector<Metric> e2e = EndToEnd(ref, host_tps, Median(setup_s), peak_rss_mb);

  int ref_transfers = 0;
  int ref_commits = 0;
  int ref_abandoned = 0;
  for (const ClusterResult& c : ref) {
    ref_transfers += c.transfers;
    ref_commits += c.commits;
    ref_abandoned += c.abandoned;
  }
  printf("%s seed %llu: %zu passes x %d clusters, %d transfers and %d commits per pass, "
         "%d abandoned\n",
         w->name, static_cast<unsigned long long>(args.seed), passes.size(),
         w->clusters_per_pass, ref_transfers, ref_commits, ref_abandoned);
  printf("virtual latency over %d transfer samples: p50 %.3f ms, p99 %.3f ms\n", ref_transfers,
         e2e[4].value, e2e[5].value);
  printf("virtual-digest %016llx\n", static_cast<unsigned long long>(passes[0].digest));

  if (!args.trace) {
    for (const Metric& m : e2e) {
      printf("  %-22s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
    }
    PrintJson(e2e, ref_transfers, ref_abandoned);
    return 0;
  }

  const double traced_tps_median = Median(traced_tps);
  const double overhead = traced_tps_median - host_tps;
  PrintLayerTable(w->name, saved_spans, saved_commits);
  printf("tracing overhead: traced %.1f - untraced %.1f = %.1f host_txn_per_s (%.1f%%)\n",
         traced_tps_median, host_tps, overhead, 100.0 * Ratio(overhead, host_tps));
  if (!args.trace_out.empty()) {
    WriteSpans(args.trace_out, saved_spans);
    printf("spans: %zu written to %s\n", saved_spans.size(), args.trace_out.c_str());
  }
  const std::vector<Metric> layers =
      PerLayer(ref, untraced_usage, untraced_commits, Median(drain_ms), overhead);
  for (const Metric& m : layers) {
    printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  PrintJson(layers, ref_transfers, ref_abandoned);
  return 0;
}

}  // namespace
}  // namespace locus::perfbench

int main(int argc, char** argv) { return locus::perfbench::Main(argc, argv); }
