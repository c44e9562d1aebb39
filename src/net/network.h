// Simulated local-area network connecting the sites of the cluster.
//
// Models the paper's environment: VAX 11/750 machines on a 10 Mb/s Ethernet
// exchanging lightweight kernel-to-kernel protocol messages. One-way message
// latency is dominated by protocol processing on the ~0.45 MIPS CPUs and is
// calibrated so that a small-message round trip costs about 16 ms, which puts
// a remote lock at about 18 ms as measured in section 6.2 of the paper.
//
// The network also implements the failure model of section 4.3/4.4: sites can
// crash and reboot, the network can partition, and surviving sites receive
// topology-change notifications which the transaction mechanism uses to abort
// transactions that span lost sites.

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/ids.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace locus {

// A message's payload: one value of any copyable type up to kInlineBytes,
// held inline. It remembers the stored type, so a read as another type is
// caught (Message::As aborts) rather than misread. A type that does not fit
// is a compile error; there is no heap fallback.
class Payload {
 public:
  static constexpr size_t kInlineBytes = 64;

  Payload() = default;
  template <typename T>
    requires(!std::is_same_v<std::decay_t<T>, Payload>)
  Payload(T&& value) {  // NOLINT(google-explicit-constructor): any payload converts.
    Emplace(std::forward<T>(value));
  }
  template <typename T>
    requires(!std::is_same_v<std::decay_t<T>, Payload>)
  Payload& operator=(T&& value) {
    Emplace(std::forward<T>(value));
    return *this;
  }
  Payload(const Payload& other) {
    if (other.ops_ != nullptr) {
      other.ops_->copy(value_, other.value_);
      ops_ = other.ops_;
    }
  }
  Payload(Payload&& other) noexcept { MoveFrom(other); }
  Payload& operator=(const Payload& other) {
    if (this != &other) {
      *this = Payload(other);
    }
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  ~Payload() { Reset(); }

  template <typename T>
  void Emplace(T&& value) {
    using V = std::decay_t<T>;
    static_assert(sizeof(V) <= kInlineBytes, "payload too large for Payload's inline buffer");
    static_assert(alignof(V) <= alignof(void*), "payload over-aligned for Payload");
    static_assert(std::is_nothrow_move_constructible_v<V>,
                  "a payload must move without throwing");
    Reset();
    ::new (static_cast<void*>(value_)) V(std::forward<T>(value));
    ops_ = &kOps<V>;
  }

  bool has_value() const { return ops_ != nullptr; }
  // The held value, or null when empty or holding another type.
  template <typename T>
  const T* get() const {
    return ops_ == &kOps<T> ? Held<T>(static_cast<const void*>(value_)) : nullptr;
  }
  template <typename T>
  T* get() {
    return ops_ == &kOps<T> ? Held<T>(static_cast<void*>(value_)) : nullptr;
  }
  // The held type's name, or "(empty)".
  const char* type_name() const { return ops_ != nullptr ? ops_->type->name() : "(empty)"; }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(value_);
      ops_ = nullptr;
    }
  }

 private:
  // One table per stored type; its address is the type's tag.
  struct Ops {
    const std::type_info* type;
    void (*copy)(void* to, const void* from);
    // Move-constructs `from`'s value into `to` and destroys it in `from`.
    void (*relocate)(void* to, void* from);
    void (*destroy)(void* value);
  };
  // The buffer holds a V built by placement new.
  template <typename V>
  static V* Held(void* buffer) {
    return std::launder(static_cast<V*>(buffer));
  }
  template <typename V>
  static const V* Held(const void* buffer) {
    return std::launder(static_cast<const V*>(buffer));
  }
  template <typename V>
  static constexpr Ops kOps = {
      &typeid(V),
      [](void* to, const void* from) { ::new (to) V(*Held<V>(from)); },
      [](void* to, void* from) {
        ::new (to) V(std::move(*Held<V>(from)));
        Held<V>(from)->~V();
      },
      [](void* value) { Held<V>(value)->~V(); },
  };

  void MoveFrom(Payload& other) {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(value_, other.value_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(void*) unsigned char value_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

// A network message. The payload is a typed struct held inline in a Payload;
// size_bytes models the wire footprint for latency purposes. Delivery moves
// a message from sender to handler without copying it.
struct Message {
  int32_t type = 0;
  int32_t size_bytes = 64;
  Payload payload;
  // Sender's vector clock at send time (src/serial's happens-before order).
  // Pure observer metadata: empty unless Network::EnableClocks() ran, never
  // read by protocol code, and excluded from size_bytes, so enabling clocks
  // cannot change virtual-time results.
  std::vector<uint32_t> vclock;

  // Checked payload access: a payload/type mismatch is a protocol bug (a
  // handler registered for the wrong message type, or a reply built with the
  // wrong struct), so it aborts loudly instead of dereferencing null.
  template <typename T>
  const T& As() const {
    const T* typed = payload.get<T>();
    if (typed == nullptr) {
      fprintf(stderr,
              "Message::As: payload type mismatch on message type %d: expected %s, "
              "actual %s\n",
              type, typeid(T).name(), payload.type_name());
      abort();
    }
    return *typed;
  }
  // Mutable access, so a receiver can move a bulk payload out.
  template <typename T>
  T& As() {
    return const_cast<T&>(std::as_const(*this).As<T>());
  }
};

class Network;

// Handle for replying to an RPC. Copyable; may be stored and invoked later
// (e.g. a lock request queued until the lock is granted replies only when the
// conflicting lock is released).
class Responder {
 public:
  Responder() = default;
  Responder(Network* net, uint64_t call_id, SiteId responder_site)
      : net_(net), call_id_(call_id), site_(responder_site) {}

  // Sends the reply back to the caller. At most one reply per call is
  // delivered; extras are ignored (duplicate grant after an abort race).
  void operator()(Message reply) const;

  bool valid() const { return net_ != nullptr; }

 private:
  Network* net_ = nullptr;
  uint64_t call_id_ = 0;
  SiteId site_ = kNoSite;
};

struct RpcResult {
  bool ok = false;
  Message reply;
};

class Network {
 public:
  // Calibration constants (see file comment).
  static constexpr SimTime kPerMessageLatency = Microseconds(7200);
  static constexpr int64_t kWireNsPerByte = 800;  // 10 Mb/s
  static constexpr SimTime kFailureDetectDelay = Milliseconds(40);
  static constexpr SimTime kDefaultRpcTimeout = Seconds(5);

  explicit Network(Simulation* sim);

  SiteId AddSite(const std::string& name);
  int site_count() const { return static_cast<int>(sites_.size()); }
  // RPCs issued and not yet waited out (diagnostic).
  size_t pending_call_count() const { return pending_calls_.size(); }
  const std::string& SiteName(SiteId site) const { return sites_[site].name; }

  // Handler for one message type at one site; runs in event context when the
  // message is delivered. Must not block; blocking work is handed to a kernel
  // process by the receiver. The message is the handler's to move from.
  using Handler = std::function<void(SiteId from, Message&, Responder)>;
  void RegisterHandler(SiteId site, int32_t type, Handler handler);

  // One-way datagram. Silently dropped if the destination is unreachable at
  // delivery time.
  void Send(SiteId from, SiteId to, Message msg);

  // Blocking remote procedure call; must run in process context. Fails if the
  // destination is unreachable, becomes unreachable while the call is
  // outstanding, or the reply does not arrive within `timeout`. The time-out
  // event is cancelled once the call returns.
  RpcResult Call(SiteId from, SiteId to, Message request,
                 SimTime timeout = kDefaultRpcTimeout);

  // --- Split-call interface (formation layer; src/form) ---
  // The formation queue carries the request inside a batch envelope instead of
  // letting Call schedule its own delivery, so the call setup and the wait are
  // split: PrepareCall registers the pending-call record (and returns its id
  // for the envelope), the sender enqueues the request, and WaitCall parks the
  // caller with the usual timeout / failure-detection semantics.
  uint64_t PrepareCall(SiteId from, SiteId to);
  RpcResult WaitCall(uint64_t call_id, SimTime timeout = kDefaultRpcTimeout);
  // Completes a split call whose reply arrived inside a batch envelope (the
  // envelope already paid the wire latency; no further delay is charged).
  void CompleteBatchedCall(uint64_t call_id, Message reply);
  // Hands an unpacked batch item to the destination site's handler table,
  // exactly as if it had been delivered as its own wire message. Event
  // context; reachability was already checked when the envelope arrived.
  void DispatchDelivered(SiteId from, SiteId to, Message& msg, Responder responder);
  // When installed, replies issued by `site` are diverted to the router
  // (which enqueues them for batching) instead of being sent directly. The
  // router receives the destination site, the reply, and the call id.
  using ReplyRouter = std::function<void(SiteId dest, Message reply, uint64_t call_id)>;
  void set_reply_router(SiteId site, ReplyRouter router);

  // --- Failure injection & topology ---
  bool IsAlive(SiteId site) const { return sites_[site].alive; }
  // Increments on each reboot; feeds transaction-id temporal uniqueness.
  uint32_t BootEpoch(SiteId site) const { return static_cast<uint32_t>(sites_[site].boot_epoch); }
  bool Reachable(SiteId a, SiteId b) const;
  void Crash(SiteId site);
  void Reboot(SiteId site);
  // Splits the network; each inner vector is one partition. Sites not listed
  // become singleton partitions.
  void SetPartitions(const std::vector<std::vector<SiteId>>& groups);
  void ClearPartitions();

  // Callback invoked at `site` (event context) whenever the reachable-site
  // set changes while `site` is alive.
  void OnTopologyChange(SiteId site, std::function<void()> callback);

  // --- Vector clocks (src/serial's happens-before order) ---
  // When enabled, every send ticks the sender's clock and stamps it on the
  // message, and every delivery / reply completion merges the carried clock
  // into the receiver's. The clocks are observer metadata only: nothing in
  // the protocol reads them, so enabling them is bit-identity-safe.
  void EnableClocks() { clocks_enabled_ = true; }
  bool clocks_enabled() const { return clocks_enabled_; }
  // Ticks `site`'s clock for a locally significant event (a transaction's
  // commit point, a shared-state write). No-op while clocks are disabled.
  void StampLocalEvent(SiteId site);
  // Current clock of `site`; empty until the site's first clocked event.
  const std::vector<uint32_t>& SiteClock(SiteId site) const {
    return sites_[site].clock;
  }

  SimTime OneWayLatency(int32_t size_bytes) const;

  StatRegistry& stats() { return stats_; }
  Simulation& simulation() { return *sim_; }

 private:
  friend class Responder;

  struct Site {
    std::string name;
    bool alive = true;
    int partition_group = 0;
    uint64_t boot_epoch = 0;
    // Indexed by message type (a small dense enum); empty slot = no handler.
    std::vector<Handler> handlers;
    std::vector<std::function<void()>> topology_callbacks;
    ReplyRouter reply_router;
    // Vector clock, lazily sized to the cluster; empty until the first
    // clocked event at this site.
    std::vector<uint32_t> clock;
  };

  struct PendingCall {
    PendingCall(SiteId caller_site, SiteId callee_site, Simulation* sim)
        : from(caller_site), to(callee_site), wake(sim) {}

    SiteId from;
    SiteId to;
    WaitQueue wake;
    bool done = false;
    RpcResult result;
  };

  void Deliver(SiteId from, SiteId to, Message& msg, Responder responder);
  void CompleteCall(uint64_t call_id, RpcResult result);
  void NotifyTopologyChanged();
  // Fails outstanding calls whose endpoints can no longer communicate.
  void FailUnreachableCalls();
  // Clock primitives; callers gate on clocks_enabled_.
  void Tick(SiteId site);
  void MergeClock(SiteId site, const std::vector<uint32_t>& other);

  Simulation* sim_;
  StatRegistry stats_;
  StatRegistry::StatId messages_id_;  // "net.messages": bumped per message.
  std::vector<Site> sites_;
  uint64_t next_call_id_ = 1;
  std::unordered_map<uint64_t, PendingCall> pending_calls_;
  bool clocks_enabled_ = false;
};

}  // namespace locus

#endif  // SRC_NET_NETWORK_H_
