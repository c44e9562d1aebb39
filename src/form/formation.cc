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
    net_->set_reply_router(site_, [this](SiteId dest, Message reply, CallHandle call) {
      Enqueue(dest, FormItem{std::move(reply), call, /*is_reply=*/true});
    });
  }
  net_->simulation().RegisterDrainCheck([this] { return PendingSummary(); });
}

void FormationQueue::Send(SiteId to, Message msg) {
  if (!enabled_) {
    net_->Send(site_, to, std::move(msg));
    return;
  }
  Enqueue(to, FormItem{std::move(msg), {}, /*is_reply=*/false});
}

RpcResult FormationQueue::Call(SiteId to, Message msg, SimTime timeout) {
  if (!enabled_) {
    return net_->Call(site_, to, std::move(msg), timeout);
  }
  // No blocking between BeginCall and FinishCall: the enqueue (and even a
  // size-triggered flush) only schedules future events.
  return FinishCall(BeginCall(to, std::move(msg)), timeout);
}

CallHandle FormationQueue::BeginCall(SiteId to, Message msg) {
  assert(enabled_ && "BeginCall is a formation-only fast path");
  assert(Simulation::Current() != nullptr &&
         "FormationQueue::BeginCall requires process context");
  if (!net_->Reachable(site_, to)) {
    return CallHandle{};
  }
  CallHandle call = net_->PrepareCall(site_, to);
  Enqueue(to, FormItem{std::move(msg), call, /*is_reply=*/false});
  return call;
}

RpcResult FormationQueue::FinishCall(CallHandle call, SimTime timeout) {
  if (!call) {
    return RpcResult{false, {}};
  }
  return net_->WaitCall(call, timeout);
}

std::pair<RpcResult, RpcResult> FormationQueue::Call2(SiteId to, Message first,
                                                      Message second, SimTime timeout) {
  if (!enabled_) {
    RpcResult a = net_->Call(site_, to, std::move(first), timeout);
    RpcResult b = net_->Call(site_, to, std::move(second), timeout);
    return {std::move(a), std::move(b)};
  }
  CallHandle call_a = BeginCall(to, std::move(first));
  CallHandle call_b = call_a ? BeginCall(to, std::move(second)) : CallHandle{};
  RpcResult a = FinishCall(call_a, timeout);
  RpcResult b = FinishCall(call_b, timeout);
  return {std::move(a), std::move(b)};
}

void FormationQueue::Enqueue(SiteId to, FormItem item) {
  if (!net_->IsAlive(site_)) {
    return;  // Matches Network::Send: a dead site's messages vanish.
  }
  stats_->Add(enqueued_id_);
  if (Audited()) {
    net_->StampLocalEvent(site_);
    audit_->OnSharedAccess(net_->SiteName(site_), "form.q/" + net_->SiteName(site_), true);
  }
  DestQueue& q = QueueTo(to);
  if (q.items.capacity() == 0 && !spare_items_.empty()) {
    q.items = std::move(spare_items_.back());  // A sent batch's storage.
    spare_items_.pop_back();
  }
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
  FormBatch batch{std::move(q.items), this};
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
  // The items leave the envelope first: a handler's own sends may start a
  // batch here, which takes a spare buffer.
  FormBatch& batch = msg.As<FormBatch>();
  std::vector<FormItem> delivered = std::move(batch.items);
  FormationQueue* const origin = batch.origin;
  for (FormItem& item : delivered) {
    if (item.is_reply) {
      // The envelope already paid the wire; complete the caller directly.
      net_->CompleteBatchedCall(item.call, std::move(item.msg));
      continue;
    }
    Responder responder = item.call ? Responder(net_, item.call, site_) : Responder();
    net_->DispatchDelivered(from, site_, item.msg, responder);
  }
  // The sender keeps the emptied buffer for its next batch, so steady
  // traffic stops allocating batch storage.
  if (origin->spare_items_.size() < kSpareItemBuffers) {
    delivered.clear();
    origin->spare_items_.push_back(std::move(delivered));
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
  q.items.push_back(FormItem{std::move(msg), {}, false});
}

}  // namespace locus
