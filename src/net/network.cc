#include "src/net/network.h"

#include <algorithm>
#include <cassert>

namespace locus {

void Responder::operator()(Message reply) const {
  if (net_ == nullptr) {
    return;
  }
  auto it = net_->pending_calls_.find(call_id_);
  if (it == net_->pending_calls_.end()) {
    return;  // Call already completed (timeout or failure) — drop the reply.
  }
  Network::PendingCall& call = it->second;
  // The reply travels back over the wire from the responder's site.
  if (!net_->Reachable(site_, call.from)) {
    return;  // Reply lost; the caller's timeout / failure detection fires.
  }
  if (net_->clocks_enabled_ && site_ != kNoSite) {
    net_->Tick(site_);
    reply.vclock = net_->sites_[site_].clock;
  }
  if (site_ != kNoSite && net_->sites_[site_].reply_router) {
    // Formation is on at the responding site: the reply rides a batch
    // envelope (which pays the wire accounting) instead of its own message.
    net_->sites_[site_].reply_router(call.from, std::move(reply), call_id_);
    return;
  }
  net_->stats().Add(net_->messages_id_);
  Network* net = net_;
  uint64_t id = call_id_;
  EventInfo info{EventTag::kRpcReply, site_, call.from, static_cast<int32_t>(call_id_)};
  net->sim_->Schedule(net->OneWayLatency(reply.size_bytes), info,
                      [net, id, reply = std::move(reply)]() mutable {
                        net->CompleteCall(id, RpcResult{true, std::move(reply)});
                      });
}

Network::Network(Simulation* sim)
    : sim_(sim), messages_id_(stats_.Intern("net.messages")) {}

SiteId Network::AddSite(const std::string& name) {
  SiteId id = static_cast<SiteId>(sites_.size());
  Site site;
  site.name = name;
  site.partition_group = 0;
  sites_.push_back(std::move(site));
  return id;
}

void Network::RegisterHandler(SiteId site, int32_t type, Handler handler) {
  auto& handlers = sites_[site].handlers;
  if (static_cast<size_t>(type) >= handlers.size()) {
    handlers.resize(type + 1);
  }
  handlers[type] = std::move(handler);
}

SimTime Network::OneWayLatency(int32_t size_bytes) const {
  return kPerMessageLatency + Microseconds(size_bytes * kWireNsPerByte / 1000);
}

bool Network::Reachable(SiteId a, SiteId b) const {
  if (a == b) {
    return sites_[a].alive;
  }
  return sites_[a].alive && sites_[b].alive &&
         sites_[a].partition_group == sites_[b].partition_group;
}

void Network::Send(SiteId from, SiteId to, Message msg) {
  if (!sites_[from].alive) {
    return;
  }
  stats_.Add(messages_id_);
  if (clocks_enabled_) {
    Tick(from);
    msg.vclock = sites_[from].clock;
  }
  EventInfo info{EventTag::kNetDeliver, from, to, msg.type};
  sim_->Schedule(OneWayLatency(msg.size_bytes), info,
                 [this, from, to, msg = std::move(msg)]() mutable {
                   Deliver(from, to, msg, Responder());
                 });
}

RpcResult Network::Call(SiteId from, SiteId to, Message request, SimTime timeout) {
  assert(Simulation::Current() != nullptr && "Network::Call requires process context");
  if (!Reachable(from, to)) {
    return RpcResult{false, {}};
  }
  const uint64_t id = PrepareCall(from, to);
  stats_.Add(messages_id_);
  if (clocks_enabled_) {
    Tick(from);
    request.vclock = sites_[from].clock;
  }
  Responder responder(this, id, to);
  EventInfo deliver_info{EventTag::kNetDeliver, from, to, request.type};
  // The delivery is scheduled before WaitCall arms the time-out, so the two
  // events keep their seq order.
  sim_->Schedule(OneWayLatency(request.size_bytes), deliver_info,
                 [this, from, to, responder, request = std::move(request)]() mutable {
                   Deliver(from, to, request, responder);
                 });
  return WaitCall(id, timeout);
}

void Network::Deliver(SiteId from, SiteId to, Message& msg, Responder responder) {
  if (!Reachable(from, to)) {
    stats_.Add("net.dropped");
    return;
  }
  DispatchDelivered(from, to, msg, responder);
}

void Network::DispatchDelivered(SiteId from, SiteId to, Message& msg, Responder responder) {
  if (clocks_enabled_ && !msg.vclock.empty()) {
    MergeClock(to, msg.vclock);
    Tick(to);
  }
  Site& dest = sites_[to];
  if (static_cast<size_t>(msg.type) >= dest.handlers.size() || !dest.handlers[msg.type]) {
    stats_.Add("net.unhandled");
    sim_->Trace(dest.name, "unhandled message type %d from %s", msg.type,
                sites_[from].name.c_str());
    return;
  }
  dest.handlers[msg.type](from, msg, responder);
}

uint64_t Network::PrepareCall(SiteId from, SiteId to) {
  assert(Simulation::Current() != nullptr && "Network::PrepareCall requires process context");
  uint64_t id = next_call_id_++;
  pending_calls_.try_emplace(id, from, to, sim_);
  return id;
}

RpcResult Network::WaitCall(uint64_t call_id, SimTime timeout) {
  auto prepared = pending_calls_.find(call_id);
  assert(prepared != pending_calls_.end());
  // A reply may have arrived between PrepareCall and now (split calls wait
  // for their replies one at a time): the completion already notified an
  // empty wait queue, so waiting would sleep forever — and the timeout must
  // not be armed, because its CompleteCall would no-op instead of waking us.
  if (!prepared->second.done) {
    EventInfo timeout_info{EventTag::kRpcTimeout, prepared->second.from,
                           prepared->second.to, static_cast<int32_t>(call_id)};
    const EventId timeout_event = sim_->Schedule(timeout, timeout_info, [this, call_id] {
      CompleteCall(call_id, RpcResult{false, {}});
    });
    prepared->second.wake.Wait();
    sim_->Cancel(timeout_event);
  }
  auto it = pending_calls_.find(call_id);
  assert(it != pending_calls_.end() && it->second.done);
  RpcResult result = std::move(it->second.result);
  pending_calls_.erase(it);
  return result;
}

void Network::CompleteBatchedCall(uint64_t call_id, Message reply) {
  CompleteCall(call_id, RpcResult{true, std::move(reply)});
}

void Network::set_reply_router(SiteId site, ReplyRouter router) {
  sites_[site].reply_router = std::move(router);
}

void Network::CompleteCall(uint64_t call_id, RpcResult result) {
  auto it = pending_calls_.find(call_id);
  if (it == pending_calls_.end() || it->second.done) {
    return;
  }
  PendingCall& call = it->second;
  call.done = true;
  call.result = std::move(result);
  if (clocks_enabled_ && call.result.ok && !call.result.reply.vclock.empty()) {
    MergeClock(call.from, call.result.reply.vclock);
    Tick(call.from);
  }
  call.wake.NotifyAll();
}

void Network::Crash(SiteId site) {
  if (!sites_[site].alive) {
    return;
  }
  sites_[site].alive = false;
  sim_->Trace(sites_[site].name, "site crashed");
  NotifyTopologyChanged();
}

void Network::Reboot(SiteId site) {
  if (sites_[site].alive) {
    return;
  }
  sites_[site].alive = true;
  sites_[site].boot_epoch++;
  sim_->Trace(sites_[site].name, "site rebooted (epoch %llu)",
              static_cast<unsigned long long>(sites_[site].boot_epoch));
  NotifyTopologyChanged();
}

void Network::SetPartitions(const std::vector<std::vector<SiteId>>& groups) {
  // Unlisted sites land in their own singleton partitions after the listed
  // groups, so group numbering starts above the largest possible group index.
  for (size_t i = 0; i < sites_.size(); ++i) {
    sites_[i].partition_group = static_cast<int>(groups.size() + 1 + i);
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    for (SiteId s : groups[g]) {
      sites_[s].partition_group = static_cast<int>(g);
    }
  }
  sim_->Trace("net", "network partitioned into %zu+ groups", groups.size());
  NotifyTopologyChanged();
}

void Network::ClearPartitions() {
  for (Site& s : sites_) {
    s.partition_group = 0;
  }
  sim_->Trace("net", "network partitions healed");
  NotifyTopologyChanged();
}

void Network::NotifyTopologyChanged() {
  FailUnreachableCalls();
  // Topology knowledge propagates via the (unmodelled) low-level topology
  // protocol; surviving sites learn of the change after a detection delay.
  for (size_t i = 0; i < sites_.size(); ++i) {
    SiteId id = static_cast<SiteId>(i);
    EventInfo info{EventTag::kTopology, id, -1, -1};
    sim_->Schedule(kFailureDetectDelay, info, [this, id] {
      if (!sites_[id].alive) {
        return;
      }
      for (const auto& cb : sites_[id].topology_callbacks) {
        cb();
      }
    });
  }
}

void Network::FailUnreachableCalls() {
  std::vector<uint64_t> failed;
  for (const auto& [id, call] : pending_calls_) {  // order-insensitive: sorted below
    if (!call.done && !Reachable(call.from, call.to)) {
      failed.push_back(id);
    }
  }
  // Hashed map: sort by call id so failure completions schedule in issue
  // order, keeping partition runs deterministic.
  std::sort(failed.begin(), failed.end());
  for (uint64_t id : failed) {
    auto call_it = pending_calls_.find(id);
    EventInfo info{EventTag::kRpcTimeout, call_it->second.from, call_it->second.to,
                   static_cast<int32_t>(id)};
    sim_->Schedule(kFailureDetectDelay, info,
                   [this, id] { CompleteCall(id, RpcResult{false, {}}); });
  }
}

void Network::OnTopologyChange(SiteId site, std::function<void()> callback) {
  sites_[site].topology_callbacks.push_back(std::move(callback));
}

void Network::StampLocalEvent(SiteId site) {
  if (clocks_enabled_ && site >= 0 && static_cast<size_t>(site) < sites_.size()) {
    Tick(site);
  }
}

void Network::Tick(SiteId site) {
  std::vector<uint32_t>& clock = sites_[site].clock;
  if (clock.size() < sites_.size()) {
    clock.resize(sites_.size(), 0);
  }
  ++clock[site];
}

void Network::MergeClock(SiteId site, const std::vector<uint32_t>& other) {
  std::vector<uint32_t>& clock = sites_[site].clock;
  if (clock.size() < other.size()) {
    clock.resize(other.size(), 0);
  }
  for (size_t i = 0; i < other.size(); ++i) {
    clock[i] = std::max(clock[i], other[i]);
  }
}

}  // namespace locus
