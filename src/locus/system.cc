#include "src/locus/system.h"

#include <cassert>
#include <optional>
#include <utility>

#include "src/lock/deadlock.h"

namespace locus {

namespace {
// Pages per simulated volume (8 MB at the default 1 KB page size).
constexpr int32_t kPagesPerVolume = 8192;

bool AuditEnabled(const SystemOptions& options) {
#ifdef LOCUS_AUDIT_FORCE
  (void)options;
  return true;
#else
  return options.audit;
#endif
}

bool SerialEnabled(const SystemOptions& options) {
#ifdef LOCUS_SERIAL_FORCE
  (void)options;
  return true;
#else
  return options.serial;
#endif
}
}  // namespace

System::System(int num_sites, SystemOptions options)
    : options_(options),
      sim_(options.seed),
      net_(&sim_),
      audit_(&sim_, &stats_, AuditEnabled(options)),
      serial_(&sim_, &net_, &stats_, SerialEnabled(options)) {
  observers_.Register(&audit_);
  observers_.Register(&serial_);
  if (serial_.enabled()) {
    // The certifier's external-consistency and race checks ride on the
    // network's vector clocks (observer metadata; bit-identity-safe).
    net_.EnableClocks();
  }
  for (int i = 0; i < num_sites; ++i) {
    SiteId site = net_.AddSite("site" + std::to_string(i));
    auto kernel = std::make_unique<Kernel>(this, site);
    kernels_.push_back(std::move(kernel));
    AddVolume(site);  // Root volume.
    kernels_[site]->Start();
  }
}

System::~System() { StopDaemons(); }

VolumeId System::AddVolume(SiteId site) {
  VolumeId id = AllocVolumeId();
  std::string name = "d" + std::to_string(site) + "v" + std::to_string(id);
  auto disk = std::make_unique<Disk>(&sim_, &stats_, name, kPagesPerVolume,
                                     options_.page_size, options_.disk_latency);
  auto volume = std::make_unique<Volume>(id, name, std::move(disk));
  if (options_.double_write_logs) {
    volume->set_log_append_mode(Volume::LogAppendMode::kDoubleWrite);
  }
  volume->BindStats(&stats_);
  if (options_.formation) {
    volume->EnableGroupCommit(&sim_);
  }
  kernels_[site]->AttachVolume(std::move(volume));
  return id;
}

Pid System::Spawn(SiteId site, const std::string& name,
                  std::function<void(Syscalls&)> body) {
  return kernels_[site]->StartProcess(name, [this, body = std::move(body)](OsProcess* p) {
    Syscalls sys(this, p);
    body(sys);
  });
}

void System::CrashSite(SiteId site) {
  net_.Crash(site);
  kernels_[site]->OnCrash();
}

void System::RebootSite(SiteId site) {
  net_.Reboot(site);
  kernels_[site]->OnReboot();
}

void System::Partition(const std::vector<std::vector<SiteId>>& groups) {
  net_.SetPartitions(groups);
}

void System::HealPartitions() { net_.ClearPartitions(); }

OsProcess* System::Locate(Pid pid) {
  if (pid == kNoPid) {
    return nullptr;
  }
  for (auto& kernel : kernels_) {
    if (!kernel->alive()) {
      continue;
    }
    if (OsProcess* p = kernel->process_table().Find(pid)) {
      return p;
    }
  }
  return nullptr;
}

void System::StartDeadlockDetector(SiteId site, SimTime period) {
  daemons_running_ = true;
  Kernel* kernel = kernels_[site].get();
  kernel->SpawnKernelProcess("deadlock-detector", [this, site, kernel, period] {
    // Cleared per poll, keeping their storage.
    WaitForGraph graph;
    // Edges per reporting site, for the orphan-lock reaper below.
    std::vector<std::pair<SiteId, WaitEdge>> sited_edges;
    while (daemons_running_ && net_.IsAlive(site)) {
      graph.Reset();
      sited_edges.clear();
      for (SiteId s = 0; s < site_count(); ++s) {
        std::vector<WaitEdge> edges;
        if (net_.Reachable(site, s)) {
          if (std::optional<WaitEdgesReply> reply = kernel->Call<kWaitEdgesReq>(s, {})) {
            edges = std::move(reply->edges);
          }
        }
        graph.AddEdges(edges);
        for (const WaitEdge& e : edges) {
          sited_edges.push_back({s, e});
        }
      }
      for (const LockOwner& victim : graph.SelectVictims()) {
        if (victim.txn.valid()) {
          stats_.Add("deadlock.victims");
          if (sim_.trace_echo()) {
            sim_.Trace("detector", "aborting deadlock victim %s", ToString(victim.txn).c_str());
          }
          kernel->RouteAbort(victim.txn, "deadlock victim");
        }
      }
      // Orphan-lock reaper: a waiter blocked by a transaction that no longer
      // exists anywhere (aborted; its lock entry leaked through a
      // kill/grant race) gets unwedged by clearing the dead transaction's
      // residue at the blocking site. This is one of the "deadlock
      // resolution and redo strategies" section 3.1 leaves to system
      // processes.
      for (const auto& [s, edge] : sited_edges) {
        const TxnId& holder = edge.holder.txn;
        if (!holder.valid() || !net_.Reachable(site, holder.site)) {
          continue;
        }
        // form-ok the detector is a user-level daemon, not kernel traffic.
        RpcResult res =
            net_.Call(site, holder.site, MakeMsg<kTxnStatusReq>(TxnStatusRequest{holder}));
        if (!res.ok) {
          continue;
        }
        auto status = static_cast<TxnStatus>(ReplyIn<kTxnStatusReq>(res.reply).status);
        if (status == TxnStatus::kAborted) {
          stats_.Add("deadlock.orphan_locks_reaped");
          if (sim_.trace_echo()) {
            sim_.Trace("detector", "reaping orphan locks of %s at site %d",
                       ToString(holder).c_str(), s);
          }
          kernel->form().Send(s, MakeMsg<kAbortTxnAtSiteReq>(AbortTxnAtSiteRequest{holder}));
        }
      }
      sim_.Sleep(period);
    }
  });
}

// ---------------------------------------------------------------------------
// Syscalls facade

Err Syscalls::WriteString(int fd, const std::string& text) {
  return Write(fd, std::vector<uint8_t>(text.begin(), text.end()));
}

Result<Pid> Syscalls::Fork(SiteId site, std::function<void(Syscalls&)> body) {
  System* system = system_;
  return kernel().SysFork(process_, site, [system, body = std::move(body)](OsProcess* p) {
    Syscalls sys(system, p);
    body(sys);
  });
}

void Syscalls::Compute(SimTime duration) { system_->sim().Sleep(duration); }

}  // namespace locus
