// System: builds and operates a simulated Locus cluster — sites with kernels
// and volumes, the shared catalog, fault injection, and process bootstrap.
// This is the top-level entry point of the library; see examples/.

#ifndef SRC_LOCUS_SYSTEM_H_
#define SRC_LOCUS_SYSTEM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/audit/auditor.h"
#include "src/audit/observer.h"
#include "src/fs/catalog.h"
#include "src/locus/kernel.h"
#include "src/net/network.h"
#include "src/serial/certifier.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"
#include "src/storage/volume.h"

namespace locus {

class Syscalls;

struct SystemOptions {
  uint64_t seed = 1;
  int32_t page_size = 1024;        // The paper's measurements used 1 KB pages.
  int32_t pool_pages = 256;        // Buffer pool capacity per site.
  // Fidelity switches for the 1985 implementation's known inefficiencies
  // (footnotes 9 and 10), used by the Figure 5 experiment.
  bool double_write_logs = false;  // Two writes per log append.
  bool prepare_log_per_file = false;  // One prepare record per file, not per volume.
  // Section 5.2 optimization: prefetch the pages covering a locked byte
  // range into the buffer pool when the lock is granted.
  bool lock_prefetch = false;
  // Ablation switch: disable the requester-side lock cache of section 5.1
  // (every access then re-validates at the storage site).
  bool disable_lock_cache = false;
  SimTime disk_latency = Disk::kDefaultAccessLatency;
  // RPC formation + group commit (src/form): coalesce same-destination
  // control-plane messages into batch envelopes, divert RPC replies through
  // the per-site formation queue, and let concurrent transactions' log
  // records share one force per volume. Off by default; with it off the
  // event order is bit-identical to a build without the subsystem.
  bool formation = false;
  // Runtime protocol auditor (src/audit): machine-checks 2PL coverage,
  // shadow-page isolation, and 2PC message order while the cluster runs.
  // Forced on when the build defines LOCUS_AUDIT_FORCE (cmake -DLOCUS_AUDIT=ON).
  bool audit = false;
  // Outcome-level serializability certifier (src/serial): certifies the
  // committed schedule (conflict-graph acyclicity, recoverability, external
  // consistency) and runs the shared-state happens-before race detector.
  // Enables the network's vector clocks. Forced on when the build defines
  // LOCUS_SERIAL_FORCE (cmake -DLOCUS_SERIAL=ON).
  bool serial = false;
  // Test seam: disables the commit_marking guard in AbortTransactionLocal,
  // reintroducing the PR 3 abort-during-commit-mark race so the model checker
  // (src/mc) can prove it rediscovers the bug. Never set outside tests.
  bool test_disable_commit_marking_guard = false;
};

class System {
 public:
  explicit System(int num_sites, SystemOptions options = {});
  ~System();

  Simulation& sim() { return sim_; }
  Network& net() { return net_; }
  Catalog& catalog() { return catalog_; }
  StatRegistry& stats() { return stats_; }
  ProtocolAuditor& audit() { return audit_; }
  SerializabilityCertifier& serial() { return serial_; }
  ObserverHub& observers() { return observers_; }
  Kernel& kernel(SiteId site) { return *kernels_[site]; }
  int site_count() const { return static_cast<int>(kernels_.size()); }
  const SystemOptions& options() const { return options_; }

  // Adds another volume at `site` (multi-volume experiments). Returns its id.
  VolumeId AddVolume(SiteId site);

  // Starts a user program at `site`; the body runs in a fresh process with
  // blocking Unix-style syscalls. Returns its pid.
  Pid Spawn(SiteId site, const std::string& name, std::function<void(Syscalls&)> body);

  // --- Fault injection ---
  void CrashSite(SiteId site);
  void RebootSite(SiteId site);
  void Partition(const std::vector<std::vector<SiteId>>& groups);
  void HealPartitions();

  // --- Simulation control ---
  // Runs until the cluster quiesces (no pending events).
  void Run() { sim_.Run(); }
  void RunFor(SimTime duration) { sim_.RunFor(duration); }

  // Starts the user-level deadlock detection daemon (section 3.1) at `site`,
  // polling every `period`. It runs until StopDaemons().
  void StartDeadlockDetector(SiteId site, SimTime period);
  void StopDaemons() { daemons_running_ = false; }

  // --- Cross-site registry helpers used by the kernels ---
  Pid AllocPid() { return next_pid_++; }
  VolumeId AllocVolumeId() { return next_volume_id_++; }
  // Finds a process anywhere in the cluster (stands in for the low-level
  // process-location protocol).
  OsProcess* Locate(Pid pid);

 private:
  SystemOptions options_;
  Simulation sim_;
  StatRegistry stats_;
  Network net_;
  ProtocolAuditor audit_;
  SerializabilityCertifier serial_;
  ObserverHub observers_;
  Catalog catalog_;
  std::vector<std::unique_ptr<Kernel>> kernels_;
  VolumeId next_volume_id_ = 0;
  Pid next_pid_ = 100;
  bool daemons_running_ = true;
};

// The process-facing API: Unix-style blocking syscalls plus the paper's
// transaction and locking calls. Bound to one process; follows the process
// as it migrates between sites.
class Syscalls {
 public:
  Syscalls(System* system, OsProcess* process) : system_(system), process_(process) {}

  // One forwarding method per LOCUS_SYSCALLS row (kernel.h): Name(args) runs
  // Kernel::SysName(process, args) at the process's current site.
#define LOCUS_SYSCALL_FORWARD(ret, name, params, args) \
  ret name params { return kernel().Sys##name LOCUS_SYS_ARGS args; }
#define LOCUS_SYS_ARGS(...) (process_ __VA_OPT__(, ) __VA_ARGS__)
  LOCUS_SYSCALLS(LOCUS_SYSCALL_FORWARD)
#undef LOCUS_SYS_ARGS
#undef LOCUS_SYSCALL_FORWARD

  Err WriteString(int fd, const std::string& text);
  Result<Pid> Fork(SiteId site, std::function<void(Syscalls&)> body);
  // Advances this process's virtual time (models computation between calls).
  void Compute(SimTime duration);

  bool InTransaction() const { return process_->txn.valid(); }
  TxnId CurrentTxn() const { return process_->txn; }
  SiteId CurrentSite() const { return process_->site; }
  Pid pid() const { return process_->pid; }
  System& system() { return *system_; }

 private:
  Kernel& kernel() { return system_->kernel(process_->site); }

  System* system_;
  OsProcess* process_;
};

}  // namespace locus

#endif  // SRC_LOCUS_SYSTEM_H_
