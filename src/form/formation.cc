#include "src/form/formation.h"

#include <cassert>
#include <cstdio>

namespace locus {

FormationQueue::FormationQueue(Network* net, StatRegistry* stats, SiteId site, bool enabled)
    : net_(net), stats_(stats), site_(site), enabled_(enabled) {
  enqueued_id_ = stats_->Intern("form.enqueued");
  batches_id_ = stats_->Intern("form.batches");
  batch_messages_id_ = stats_->Intern("form.batch_messages");
  batch_bytes_id_ = stats_->Intern("form.batch_bytes");
  flushes_size_id_ = stats_->Intern("form.flushes_size");
  flushes_deadline_id_ = stats_->Intern("form.flushes_deadline");
}

void FormationQueue::Start() {
  net_->RegisterHandler(site_, kFormBatchMsgType,
                        [this](SiteId from, Message& msg, Responder) {
                          HandleBatch(from, msg);
                        });
  if (enabled_) {
    net_->set_reply_router(site_, [this](SiteId dest, Message reply, uint64_t call_id) {
      Enqueue(dest, FormItem{std::move(reply), call_id, /*is_reply=*/true});
    });
  }
  net_->simulation().RegisterDrainCheck([this] { return PendingSummary(); });
}

void FormationQueue::Send(SiteId to, Message msg) {
  if (!enabled_) {
    net_->Send(site_, to, std::move(msg));
    return;
  }
  Enqueue(to, FormItem{std::move(msg), 0, /*is_reply=*/false});
}

RpcResult FormationQueue::Call(SiteId to, Message msg, SimTime timeout) {
  if (!enabled_) {
    return net_->Call(site_, to, std::move(msg), timeout);
  }
  // No blocking between BeginCall and FinishCall: the enqueue (and even a
  // size-triggered flush) only schedules future events.
  return FinishCall(BeginCall(to, std::move(msg)), timeout);
}

uint64_t FormationQueue::BeginCall(SiteId to, Message msg) {
  assert(enabled_ && "BeginCall is a formation-only fast path");
  assert(Simulation::Current() != nullptr &&
         "FormationQueue::BeginCall requires process context");
  if (!net_->Reachable(site_, to)) {
    return 0;
  }
  uint64_t call_id = net_->PrepareCall(site_, to);
  Enqueue(to, FormItem{std::move(msg), call_id, /*is_reply=*/false});
  return call_id;
}

RpcResult FormationQueue::FinishCall(uint64_t call_id, SimTime timeout) {
  if (call_id == 0) {
    return RpcResult{false, {}};
  }
  return net_->WaitCall(call_id, timeout);
}

std::pair<RpcResult, RpcResult> FormationQueue::Call2(SiteId to, Message first,
                                                      Message second, SimTime timeout) {
  if (!enabled_) {
    RpcResult a = net_->Call(site_, to, std::move(first), timeout);
    RpcResult b = net_->Call(site_, to, std::move(second), timeout);
    return {std::move(a), std::move(b)};
  }
  uint64_t id_a = BeginCall(to, std::move(first));
  uint64_t id_b = id_a != 0 ? BeginCall(to, std::move(second)) : 0;
  RpcResult a = FinishCall(id_a, timeout);
  RpcResult b = FinishCall(id_b, timeout);
  return {std::move(a), std::move(b)};
}

void FormationQueue::Enqueue(SiteId to, FormItem item) {
  if (!net_->IsAlive(site_)) {
    return;  // Matches Network::Send: a dead site's messages vanish.
  }
  stats_->Add(enqueued_id_);
  if (shared_access_hook_) {
    net_->StampLocalEvent(site_);
    shared_access_hook_("form.q/" + net_->SiteName(site_), true);
  }
  DestQueue& q = QueueTo(to);
  q.bytes += item.msg.size_bytes;
  q.items.push_back(std::move(item));
  if (q.bytes >= kFormMaxBatchBytes) {
    stats_->Add(flushes_size_id_);
    Flush(to);
    return;
  }
  if (!q.timer_armed) {
    q.timer_armed = true;
    const uint64_t gen = q.generation;
    EventInfo info{EventTag::kFormFlush, site_, to, -1};
    net_->simulation().Schedule(kFormFlushDelay, info, [this, to, gen] {
      DestQueue& dq = queues_[static_cast<size_t>(to)];
      if (dq.generation != gen || dq.items.empty()) {
        return;  // A size flush or crash already serviced this queue.
      }
      stats_->Add(flushes_deadline_id_);
      Flush(to);
    });
  }
}

FormationQueue::DestQueue& FormationQueue::QueueTo(SiteId to) {
  if (static_cast<size_t>(to) >= queues_.size()) {
    queues_.resize(static_cast<size_t>(to) + 1);
  }
  return queues_[static_cast<size_t>(to)];
}

void FormationQueue::Flush(SiteId to) {
  DestQueue& q = queues_[static_cast<size_t>(to)];
  q.generation++;
  q.timer_armed = false;
  if (q.items.empty()) {
    return;
  }
  FormBatch batch;
  batch.items = std::move(q.items);
  q.items.clear();
  const int32_t wire_bytes = kFormEnvelopeBytes + q.bytes;
  q.bytes = 0;
  stats_->Add(batches_id_);
  stats_->Add(batch_messages_id_, static_cast<int64_t>(batch.items.size()));
  stats_->Add(batch_bytes_id_, wire_bytes);
  Message envelope;
  envelope.type = kFormBatchMsgType;
  envelope.size_bytes = wire_bytes;
  envelope.payload = std::move(batch);
  net_->Send(site_, to, std::move(envelope));
}

void FormationQueue::HandleBatch(SiteId from, Message& msg) {
  for (FormItem& item : msg.As<FormBatch>().items) {
    if (item.is_reply) {
      // The envelope already paid the wire; complete the caller directly.
      net_->CompleteBatchedCall(item.call_id, std::move(item.msg));
      continue;
    }
    Responder responder = item.call_id != 0
                              ? Responder(net_, item.call_id, site_)
                              : Responder();
    net_->DispatchDelivered(from, site_, item.msg, responder);
  }
}

void FormationQueue::OnCrash() {
  for (DestQueue& q : queues_) {
    q.items.clear();
    q.bytes = 0;
    q.timer_armed = false;
    q.generation++;  // Any armed timer finds a generation mismatch.
  }
}

size_t FormationQueue::queued_count() const {
  size_t n = 0;
  for (const DestQueue& q : queues_) {
    n += q.items.size();
  }
  return n;
}

std::string FormationQueue::PendingSummary() const {
  if (!net_->IsAlive(site_)) {
    return "";
  }
  std::string out;
  for (size_t to = 0; to < queues_.size(); ++to) {
    const DestQueue& q = queues_[to];
    if (q.items.empty()) {
      continue;
    }
    char buf[128];
    snprintf(buf, sizeof(buf),
             "%ssite %d formation queue to %zu holds %zu message(s) with no "
             "armed flush",
             out.empty() ? "" : "; ", site_, to, q.items.size());
    out += buf;
  }
  return out;
}

void FormationQueue::TestInjectWithoutTimer(SiteId to, Message msg) {
  DestQueue& q = QueueTo(to);
  q.bytes += msg.size_bytes;
  // obligation-ok test seam: deliberately enqueues with no flush registered
  // so crash tests can cover the batch-stranded window.
  q.items.push_back(FormItem{std::move(msg), 0, false});
}

}  // namespace locus
