// RPC formation: per-destination message coalescing (the cortx-motr "rpc
// formation" idiom applied to the Locus kernel protocols).
//
// Locus (section 4) pays one wire message per protocol step — each costs
// ~7.2 ms of protocol processing on the 0.45 MIPS CPUs regardless of size.
// A FormationQueue sits between the kernel's 2PC / lock / abort control
// paths and Network::Send: small messages bound for the same site collect in
// a per-destination queue and leave as one batch envelope, either when the
// queue reaches kFormMaxBatchBytes or when a flush deadline expires. The flush
// timer is a tagged simulation event (EventTag::kFormFlush), so the model
// checker can reorder it against the deliveries it races.
//
// Replies participate too: when formation is on at a site, every RPC reply
// it issues is diverted through the queue (Network reply router), which is
// how a lock grant ends up piggybacked on a page reply travelling to the
// same caller.
//
// Disabled (the default), every entry point forwards verbatim to the
// direct Network::Send / Network::Call path: event order is bit-identical
// to a build without this subsystem, which tests assert.

#ifndef SRC_FORM_FORMATION_H_
#define SRC_FORM_FORMATION_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/audit/observer.h"
#include "src/net/network.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace locus {

// Wire type of the batch envelope. Every row of src/locus's message table
// stays below it (static_assert in messages.h).
inline constexpr int32_t kFormBatchMsgType = 64;
// Wire overhead of the envelope beyond the sum of its items' sizes.
inline constexpr int32_t kFormEnvelopeBytes = 32;
// Deadline flush: the most a queued message waits for company.
inline constexpr SimTime kFormFlushDelay = Microseconds(1500);
// Size flush: a queue reaching this many payload bytes leaves at once.
inline constexpr int32_t kFormMaxBatchBytes = 4096;

class FormationQueue;

// One coalesced message. `call` links the item to a pending RPC at the
// origin site: requests carry it so the receiver can build a Responder,
// replies carry it so the receiver can complete the waiting caller (by
// slot, without a lookup). A default handle means a plain datagram (no reply
// expected).
struct FormItem {
  Message msg;
  CallHandle call;
  bool is_reply = false;
};

// Payload of a kFormBatchMsgType envelope. The receiver hands the emptied
// item buffer back to the queue that sent it, so a site that sends more
// batches than it receives still reuses its buffers.
struct FormBatch {
  std::vector<FormItem> items;
  FormationQueue* origin = nullptr;
};

class FormationQueue {
 public:
  FormationQueue(Network* net, StatRegistry* stats, SiteId site, bool enabled);

  // Registers the batch-envelope handler, the reply router (enabled only),
  // and the drain-watchdog check. Call once, after the site exists.
  void Start();

  bool enabled() const { return enabled_; }
  SiteId site() const { return site_; }

  // One-way datagram through the queue; forwards to Network::Send verbatim
  // when formation is disabled.
  void Send(SiteId to, Message msg);

  // Blocking RPC through the queue (process context); forwards to
  // Network::Call verbatim when disabled. Timeout and failure-detection
  // semantics match the direct call: the pending-call record is registered
  // before the request is queued, so a partition fails it even while the
  // request still sits in the formation queue.
  RpcResult Call(SiteId to, Message msg, SimTime timeout = Network::kDefaultRpcTimeout);

  // Split RPC (enabled-only): BeginCall registers the pending call and queues
  // the request without blocking, so several requests — to one site or many —
  // leave in the same flush window; FinishCall blocks for the reply. Returns
  // a default handle (and FinishCall of it fails) when the destination is
  // unreachable. Callers must FinishCall every live handle they were given,
  // even after a failure, or the pending-call record leaks.
  CallHandle BeginCall(SiteId to, Message msg);
  RpcResult FinishCall(CallHandle call, SimTime timeout = Network::kDefaultRpcTimeout);

  // Two requests to one destination in one envelope, awaited in order.
  // Forwards to two sequential Network::Calls when disabled.
  std::pair<RpcResult, RpcResult> Call2(SiteId to, Message first, Message second,
                                        SimTime timeout = Network::kDefaultRpcTimeout);

  // Site crash: queued messages die with the kernel's volatile state, and
  // armed flush timers are invalidated.
  void OnCrash();

  // Messages queued for every destination, not yet flushed (diagnostic).
  size_t queued_count() const;

  // Drain-watchdog body: describes queues left non-empty when the event
  // queue drained (no timer event can ever flush them — a lost wake-up).
  // Empty string when clean.
  std::string PendingSummary() const;

  // Test seam: enqueues without arming a flush timer, manufacturing exactly
  // the stranded state PendingSummary exists to catch.
  void TestInjectWithoutTimer(SiteId to, Message msg);

  // Protocol observer (the System hub; may be null): each enqueue is
  // reported as a write access to this site's queue object, for the
  // happens-before race oracle (src/serial).
  void set_auditor(ProtocolObserver* audit) { audit_ = audit; }

 private:
  struct DestQueue {
    std::vector<FormItem> items;
    int32_t bytes = 0;        // Sum of queued items' wire sizes.
    bool timer_armed = false;
    uint64_t generation = 0;  // Bumped per flush/crash; stale timers no-op.
  };

  void Enqueue(SiteId to, FormItem item);
  void Flush(SiteId to);
  // Unpacks a batch, moving each item to its caller or handler, and hands
  // the emptied buffer back to the sending queue.
  void HandleBatch(SiteId from, Message& msg);
  // The queue to `to`, created (with any below it) on first use.
  DestQueue& QueueTo(SiteId to);

  bool Audited() const { return audit_ != nullptr && audit_->enabled(); }

  ProtocolObserver* audit_ = nullptr;
  Network* net_;
  StatRegistry* stats_;
  SiteId site_;
  bool enabled_;
  // Indexed by destination site.
  std::vector<DestQueue> queues_;
  // Emptied item buffers of batches this queue sent, back from their
  // receivers, for the next batch. A site holds one buffer per destination
  // queue being filled and one per batch in flight, so the bound covers a
  // site sending to every other site of a 16-site cluster at once.
  static constexpr size_t kSpareItemBuffers = 32;
  std::vector<std::vector<FormItem>> spare_items_;

  StatRegistry::StatId enqueued_id_;
  StatRegistry::StatId batches_id_;
  StatRegistry::StatId batch_messages_id_;
  StatRegistry::StatId batch_bytes_id_;
  StatRegistry::StatId flushes_size_id_;
  StatRegistry::StatId flushes_deadline_id_;
};

}  // namespace locus

#endif  // SRC_FORM_FORMATION_H_
