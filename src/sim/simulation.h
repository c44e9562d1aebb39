// Discrete-event simulation engine with cooperative blocking processes.
//
// The engine is single-threaded from the simulation's point of view: exactly
// one piece of simulated code runs at any instant, either an event callback
// or a SimProcess. Process bodies are written in natural blocking style (as
// Unix syscalls are) while the run stays fully deterministic.
//
// Each process runs on a fiber: a guarded stack plus saved registers. Every
// park, resume and finish is a _setjmp/_longjmp register swap — no syscalls,
// no OS scheduler involvement — which is what lets large simulated clusters
// run at memory speed. A fiber outlives its process: when a body ends, the
// fiber parks in a per-Simulation idle list and the next Spawn resumes it
// with the new body, so only a fiber's first entry goes through makecontext.
// A stack outlives its Simulation too: at teardown the stacks go to a
// bounded per-thread pool, and the next Simulation on the thread takes them
// before it maps new ones, entering each afresh through makecontext.
// Process records are reused the same way; a ProcessHandle tells a reused
// record from the process it once held.
//
// Events cost no heap traffic of their own. Each event's closure is built in
// place, inside a Callback, in a slot of chunked storage that never moves;
// the queues order 24-byte (time, seq, slot) keys: a 4-ary heap for events
// due later, and a FIFO beside it for events due at the current time
// (process wake-ups, mostly). A slot is reused once its closure has run or
// the event is cancelled; a cancelled event's key stays queued as a
// tombstone, recognized by its seq no longer matching the slot's, until it
// reaches the front or the heap is rebuilt without it. A sleep whose expiry
// would be the next event, alone at its time, just advances the clock.
// AddressSanitizer builds run the same fibers, told about every stack switch.

#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cassert>
#include <csetjmp>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/time.h"

namespace locus {

class Simulation;
class SimProcess;
class ProcessHandle;
struct Fiber;

// ---------------------------------------------------------------------------
// Decision-point interface (schedule-space exploration; see src/mc).
//
// The engine resolves every source of "who goes first" nondeterminism by a
// fixed rule: events that tie at one virtual time run in schedule order
// (seq). That rule is correct but arbitrary — a real cluster could resolve
// each tie either way. A SchedulePolicy, when installed, is consulted at
// every such tie and may pick any of the tied events, letting a model
// checker own the schedule and search the interleaving space. With no policy
// installed (the default) the engine's behavior is bit-for-bit identical to
// the historical fixed order, and the hot path is untouched.

// LOCUS_EVENT_TAGS is the one declaration of what a schedulable event
// represents, so policies can tell message traffic from process wake-ups
// without parsing strings. Each row gives the tag; its label format with the
// EventInfo fields that format reads (the compact "dlv:0>1:t7" a
// counterexample trace carries); whether a policy's tie window widens over it
// (see SchedulePolicy::TieWindow); and the field naming its actor, the site
// whose progress the event controls (-1: none). The int fields are
// tag-specific; -1 means "not applicable".
#define LOCUS_EVENT_TAGS(X)                                                                 \
  /* Untagged internal event. */                                                            \
  X(kGeneric, "evt", (), false, -1)                                                         \
  /* Process becomes runnable: a = pid. */                                                  \
  X(kWakeup, "wake:p%d", (a), false, -1)                                                    \
  /* Sleep timer expiry: a = pid. */                                                        \
  X(kSleepDone, "sleep:p%d", (a), false, -1)                                                \
  /* Message delivery: a = from, b = to, c = msg type. Runs at the destination. */          \
  X(kNetDeliver, "dlv:%d>%d:t%d", (a, b, c), true, b)                                       \
  /* RPC reply completion: a = responder site, b = caller site, c = call id. */             \
  X(kRpcReply, "rpy:%d>%d:c%d", (a, b, c), true, b)                                         \
  /* RPC time-out or failure firing: a = caller site, b = dest site, c = call id. */        \
  X(kRpcTimeout, "tmo:%d>%d:c%d", (a, b, c), true, a)                                       \
  /* Topology-change notification: a = site. */                                             \
  X(kTopology, "topo:s%d", (a), true, a)                                                    \
  /* Formation flush deadline: a = site, b = dest site. Runs at the batching site. A        \
     flush deadline races the deliveries it would batch behind; letting a policy            \
     reorder it against network events explores both sides. */                             \
  X(kFormFlush, "form:%d>%d", (a, b), true, a)

enum class EventTag : uint8_t {
#define LOCUS_EVENT_TAG_ENUMERATOR(tag, format, fields, widens, actor) tag,
  LOCUS_EVENT_TAGS(LOCUS_EVENT_TAG_ENUMERATOR)
#undef LOCUS_EVENT_TAG_ENUMERATOR
};

struct EventInfo {
  EventTag tag = EventTag::kGeneric;
  int32_t a = -1;
  int32_t b = -1;
  int32_t c = -1;
};

// The columns of an event's LOCUS_EVENT_TAGS row: its label, whether a tie
// window widens over it, and its actor site.
std::string EventInfoLabel(const EventInfo& info);
bool TieWindowWidens(EventTag tag);
int32_t ActorSite(const EventInfo& info);

// Pluggable resolver for the engine's decision points. Stateless by default:
// the base implementation reproduces the historical fixed order exactly.
class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;

  // Called when `options.size() >= 2` events tie at virtual time `now`.
  // Options are listed in the engine's historical (seq) order; returning 0
  // preserves that order. Out-of-range returns are clamped to 0.
  virtual size_t PickNext(SimTime now, const std::vector<EventInfo>& options) {
    (void)now;
    (void)options;
    return 0;
  }

  // Called at each crash point (an id the caller defines; the kernel's are
  // its LOCUS_CRASH_POINTS rows); returning true crashes `site` at that
  // instant (the caller performs the crash and unwinds).
  virtual bool CrashAt(int32_t point, int32_t site) {
    (void)point;
    (void)site;
    return false;
  }

  // Tie-widening window. Exact-time ties are rare in a discrete-event
  // simulation, so a policy may declare that network events (the tags
  // whose LOCUS_EVENT_TAGS row widens: deliveries, replies, timeouts,
  // topology and flush deadlines) within this much virtual time of the
  // earliest pending event count as one tie: picking a later one first
  // models that message being delayed by up to the window, and the passed-
  // over events then run at the chosen event's (later) time. 0 (the
  // default) restricts consultations to exact ties. Non-network events are
  // never reordered across time and cap the widened window when they
  // interleave.
  virtual SimTime TieWindow() const { return 0; }
};

// What Run/RunFor do when the event queue drains while processes are still
// blocked (a lost wake-up or genuine deadlock — there is no event left that
// could ever wake them).
enum class DrainWatchdog {
  kOff,     // Historical behavior: blocked_process_count() reports it.
  kReport,  // DumpProcesses() to stderr and latch drain_watchdog_tripped().
  kFatal,   // DumpProcesses() to stderr and abort() (hard test failure).
};

// Thrown inside a SimProcess body when the simulation is tearing down while
// the process is still blocked; unwinds the body so its stack can be freed.
// Process bodies must be exception safe (RAII) but should not catch this.
struct SimCancelled {};

// A move-only callable stored inline, of signature `Signature` in a buffer of
// `kBytes`: the engine's events and process bodies (`Callback<>`, a `void()`
// of 144 bytes, which fits the largest closure the engine carries: a message
// delivery holding the whole Message), and the protocol layers' completion
// callbacks (a lock grant, its reply, an append range). A closure that does
// not fit is a compile error, never a heap allocation.
template <typename Signature = void(), size_t kBytes = 144>
class Callback;

template <typename R, typename... Args, size_t kBytes>
class Callback<R(Args...), kBytes> {
 public:
  static constexpr size_t kInlineBytes = kBytes;

  Callback() = default;
  Callback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor): an empty callable.
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, Callback> &&
             !std::is_same_v<std::decay_t<F>, std::nullptr_t>)
  Callback(F&& fn) {  // NOLINT(google-explicit-constructor): any callable converts.
    Emplace(std::forward<F>(fn));
  }
  Callback(Callback&& other) noexcept { MoveFrom(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  ~Callback() { Reset(); }

  // Destroys any held closure, then builds `fn`'s closure in the buffer.
  template <typename F>
  void Emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(!std::is_same_v<Fn, Callback>, "move a Callback, do not nest it");
    static_assert(std::is_invocable_r_v<R, Fn&, Args...>,
                  "the closure does not match the Callback's signature");
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "closure too large for Callback's inline buffer: capture less "
                  "(or by reference) or raise its size");
    static_assert(alignof(Fn) <= alignof(void*), "closure over-aligned for Callback");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "a Callback closure must move without throwing");
    Reset();
    ::new (static_cast<void*>(buffer_)) Fn(std::forward<F>(fn));
    ops_ = &kOps<Fn>;
  }

  R operator()(Args... args) { return ops_->invoke(buffer_, std::forward<Args>(args)...); }
  explicit operator bool() const { return ops_ != nullptr; }

  // Destroys the held closure (and what it captured), leaving this empty.
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buffer_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void* fn, Args&&... args);
    // Move-constructs `from`'s closure into `to` and destroys it in `from`.
    void (*relocate)(void* to, void* from);
    void (*destroy)(void* fn);
  };
  // The buffer holds an Fn built by placement new.
  template <typename Fn>
  static Fn* Held(void* buffer) {
    return std::launder(static_cast<Fn*>(buffer));
  }
  template <typename Fn>
  static constexpr Ops kOps = {
      [](void* fn, Args&&... args) -> R {
        return (*Held<Fn>(fn))(std::forward<Args>(args)...);
      },
      [](void* to, void* from) {
        ::new (to) Fn(std::move(*Held<Fn>(from)));
        Held<Fn>(from)->~Fn();
      },
      [](void* fn) { Held<Fn>(fn)->~Fn(); },
  };

  void MoveFrom(Callback& other) {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(buffer_, other.buffer_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(void*) unsigned char buffer_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

// What diagnostics (DumpProcesses, the abort when a fiber cannot be mapped)
// call a process. Either a plain string, or, for processes spawned by the
// thousand such as a kernel's service processes, the parts of
// "<prefix>:<label><number>#<serial>" (no number when it is negative), kept
// as pointers and integers and formatted only when printed. `prefix` and
// `label` must stay valid for as long as such a process may be printed.
class ProcessName {
 public:
  ProcessName() = default;
  ProcessName(std::string text) : text_(std::move(text)) {}  // NOLINT(google-explicit-constructor)
  ProcessName(const char* text) : text_(text) {}  // NOLINT(google-explicit-constructor)
  ProcessName(const char* prefix, const char* label, int32_t number, uint64_t serial)
      : prefix_(prefix), label_(label), number_(number), serial_(serial) {}

  std::string Format() const;

 private:
  std::string text_;
  const char* prefix_ = nullptr;
  const char* label_ = nullptr;
  int32_t number_ = -1;
  uint64_t serial_ = 0;
};

// A cooperative simulated thread of control.
//
// Created via Simulation::Spawn. The body runs on a fiber, but only while the
// scheduler has handed it control; every blocking primitive (Sleep,
// WaitQueue::Wait, ...) parks it and returns control to the scheduler until a
// wake-up event fires. The record is reused for a later Spawn once the body
// ends, so code that outlives the process holds a ProcessHandle, never a
// SimProcess pointer.
class SimProcess {
 public:
  enum class State { kReady, kRunning, kBlocked, kFinished };

  SimProcess(const SimProcess&) = delete;
  SimProcess& operator=(const SimProcess&) = delete;

  std::string name() const { return name_.Format(); }
  uint64_t id() const { return id_; }
  State state() const { return state_; }
  Simulation& simulation() const { return *sim_; }
  ProcessHandle handle();

 private:
  friend class Simulation;
  friend class WaitQueue;
  friend class ProcessHandle;

  explicit SimProcess(Simulation* sim) : sim_(sim) {}

  // Runs on the process fiber: returns control to the scheduler.
  void YieldToScheduler();
  // Runs on the scheduler: transfers control to this process and returns
  // when the process parks or finishes.
  void RunUntilParked();
  static void FiberMain();

  Simulation* sim_;
  uint64_t id_ = 0;
  ProcessName name_;
  Callback<> body_;
  State state_ = State::kFinished;
  bool cancelled_ = false;
  // The fiber the body runs on; back in the idle list (and null here) once
  // the process finishes.
  Fiber* fiber_ = nullptr;
};

// Names one spawned process. It stays safe to use after the process finishes
// and its record serves a later Spawn: the pid no longer matches, so the
// handle reads as finished and Kill ignores it. A default handle names no
// process. Valid for as long as the Simulation that spawned it.
class ProcessHandle {
 public:
  ProcessHandle() = default;

  bool finished() const {
    return proc_ == nullptr || proc_->id_ != pid_ || proc_->state_ == SimProcess::State::kFinished;
  }

 private:
  friend class Simulation;
  friend class SimProcess;

  ProcessHandle(SimProcess* proc, uint64_t pid) : proc_(proc), pid_(pid) {}

  SimProcess* proc_ = nullptr;
  uint64_t pid_ = 0;
};

inline ProcessHandle SimProcess::handle() { return ProcessHandle(this, id_); }

// Names one scheduled event, for Simulation::Cancel. A default EventId names
// no event, and one whose event has run or been cancelled names none either,
// even once its slot serves another event.
class EventId {
 public:
  EventId() = default;

 private:
  friend class Simulation;

  EventId(uint32_t slot, uint64_t seq) : slot_(slot), seq_(seq) {}

  uint32_t slot_ = 0;
  uint64_t seq_ = std::numeric_limits<uint64_t>::max();
};

// A first-in, first-out queue over one vector, for the engine's hot queues.
// Unlike std::deque it allocates nothing until the first push and no block
// per few pushes after that. A pop advances a head index; once the consumed
// prefix is half the vector it is dropped, so storage stays within about
// twice the longest the queue has been, at amortized O(1) per pop.
template <typename T>
class FifoQueue {
 public:
  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }
  const T& front() const { return items_[head_]; }

  void push_back(T item) { items_.push_back(std::move(item)); }
  T pop_front() {
    T item = std::move(items_[head_++]);
    if (2 * head_ >= items_.size()) {
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return item;
  }

 private:
  std::vector<T> items_;
  size_t head_ = 0;
};

// A condition-variable analogue for SimProcesses. Wait() parks the calling
// process; Notify*(), callable from event or process context, schedules the
// waiters to resume at the current virtual time.
class WaitQueue {
 public:
  explicit WaitQueue(Simulation* sim) : sim_(sim) {}

  // Parks the calling process until notified. Must be called from process
  // context.
  void Wait();

  // Wakes the longest-waiting process, if any. A waiter that was killed
  // while queued still takes its turn, and the notification goes with it.
  void NotifyOne();
  // Wakes all waiting processes.
  void NotifyAll();

  bool empty() const { return waiters_.empty(); }
  size_t size() const { return waiters_.size(); }

 private:
  Simulation* sim_;
  FifoQueue<ProcessHandle> waiters_;
};

// The simulation: virtual clock, event queue, and process scheduler.
class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1);
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime Now() const { return now_; }
  Rng& rng() { return rng_; }

  // Schedules `fn`, any `void()` callable that fits a Callback, to run in
  // event context after `delay` of virtual time. Its closure is built once,
  // in an event slot, and destroyed right after it runs. The EventInfo
  // overloads tag the event so an installed SchedulePolicy can tell what it
  // is deciding between at a same-time tie. The returned id cancels the
  // event.
  template <typename F>
  EventId Schedule(SimTime delay, F&& fn) {
    return Schedule(delay, EventInfo{}, std::forward<F>(fn));
  }
  template <typename F>
  EventId Schedule(SimTime delay, EventInfo info, F&& fn) {
    assert(delay >= 0);
    return ScheduleAt(now_ + delay, info, std::forward<F>(fn));
  }
  template <typename F>
  EventId ScheduleAt(SimTime when, F&& fn) {
    return ScheduleAt(when, EventInfo{}, std::forward<F>(fn));
  }
  template <typename F>
  EventId ScheduleAt(SimTime when, EventInfo info, F&& fn) {
    assert(when >= now_);
    const uint32_t slot = TakeSlot();
    EventSlot& s = SlotAt(slot);
    s.info = info;
    s.fn.Emplace(std::forward<F>(fn));
    // policy-ok: the one sanctioned seq assignment; ties are later resolved
    // through PopNext's SchedulePolicy consultation.
    const EventKey key{when, next_seq_++, slot};
    s.seq = key.seq;
    s.in_heap = when != now_;
    if (s.in_heap) {
      HeapPush(key);
    } else {
      due_now_.push_back(key);
    }
    return EventId(slot, key.seq);
  }

  // Drops a pending event: its closure is destroyed now and never runs. A
  // no-op for an event that has run or was cancelled already. Also a no-op
  // while a SchedulePolicy is installed, so that a model checker is offered
  // every tie the event would have been part of (the events cancelled are
  // time-outs whose closures find nothing left to do).
  void Cancel(EventId id);

  // --- Decision points (schedule-space exploration; src/mc) ---
  // The policy is not owned; it must outlive its installation. Installing
  // nullptr restores the historical fixed order.
  void set_schedule_policy(SchedulePolicy* policy) { policy_ = policy; }
  // Consults the installed policy at a crash point; false with no policy.
  bool AtCrashPoint(int32_t point, int32_t site) {
    return policy_ != nullptr && policy_->CrashAt(point, site);
  }

  // --- Lost-wakeup watchdog ---
  void set_drain_watchdog(DrainWatchdog mode) { drain_watchdog_ = mode; }
  // Latched by DrainWatchdog::kReport when a drain left blocked processes.
  bool drain_watchdog_tripped() const { return drain_watchdog_tripped_; }
  // A drain check reports work that should never be left pending once the
  // event queue empties (e.g. a formation queue holding messages with no
  // armed flush timer). It returns an empty string when clean, otherwise a
  // one-line description of the stranded state. Checks are owned by their
  // registrants and must stay callable for as long as Run/RunFor can execute.
  using DrainCheck = std::function<std::string()>;
  void RegisterDrainCheck(DrainCheck check) {
    drain_checks_.push_back(std::move(check));
  }

  // --- Trace echo (debugging) ---
  // Off by default. When on, Trace prints one "[time] origin message" line to
  // stderr; when off it formats nothing. Either way the run is unchanged.
  // A caller whose arguments cost work to build (a TxnId's text) checks
  // trace_echo() first.
  void set_trace_echo(bool echo) { trace_echo_ = echo; }
  bool trace_echo() const { return trace_echo_; }
  void Trace(std::string_view origin, const char* format, ...)
      __attribute__((format(printf, 3, 4)));
  void VTrace(std::string_view origin, const char* format, va_list args);

  // Creates a process whose body, any `void()` callable that fits a
  // Callback, starts running at the current virtual time, on an idle fiber if
  // there is one and on a newly mapped stack otherwise (aborting if the stack
  // cannot be mapped). When the process finishes, its body (and everything
  // the body captured) is released, and its fiber and record serve later
  // Spawns; the returned handle then reads as finished.
  template <typename F>
  ProcessHandle Spawn(ProcessName name, F&& body) {
    SimProcess* p = NewProcess(std::move(name));
    p->body_.Emplace(std::forward<F>(body));
    MakeReady(p->handle());
    return p->handle();
  }

  // Runs until the event queue drains (or Stop() is called). Processes left
  // blocked with no pending wake-up are reported by blocked_process_count().
  void Run();
  // Runs for at most `duration` of virtual time.
  void RunFor(SimTime duration);
  // Requests that Run return after the current event completes.
  void Stop() { stop_requested_ = true; }

  // Forcibly terminates a parked process: its body unwinds via SimCancelled.
  // Used to model processes dying when their site crashes. Targeting the
  // currently running process only marks it: it unwinds at its next blocking
  // point, or at once if it throws SimCancelled itself. A no-op for a handle
  // whose process has finished, even if its record now holds another.
  void Kill(ProcessHandle process);

  // --- Primitives callable from process context only ---

  // Advances virtual time for the calling process. When its expiry would be
  // the next event, alone at its time, and within the running Run/RunFor's
  // reach, it advances the clock and returns without parking the process.
  void Sleep(SimTime duration);
  // Consumes simulated CPU: shorthand for Sleep(InstructionCost(n)).
  void BurnInstructions(int64_t n) { Sleep(InstructionCost(n)); }

  // The process currently executing, or nullptr in event context.
  static SimProcess* Current();

  // Number of processes still blocked (diagnostic; nonzero after Run usually
  // indicates a lost wake-up or a genuine deadlock in the workload).
  int blocked_process_count() const;
  // Debug aid: prints every non-finished process and its state to stderr.
  // Unsynchronized; intended for post-mortem inspection from a watchdog.
  void DumpProcesses() const;
  // Processes spawned over the simulation's life, finished ones included.
  int spawned_process_count() const { return spawned_; }
  // Processes spawned and not yet finished.
  int live_process_count() const {
    return static_cast<int>(processes_.size() - free_processes_.size());
  }
  // Fibers parked with no process, waiting for the next Spawn.
  int idle_fiber_count() const { return static_cast<int>(idle_fibers_.size()); }
  // Fiber stacks mapped on the calling thread so far, by every Simulation.
  // Stacks outlive their Simulation and serve the next one on the thread, so
  // this stops growing once one Simulation has needed as many as any later.
  static uint64_t mapped_stack_count();
  // Keys queued for events: pending events, plus the tombstones of cancelled
  // ones not yet dropped.
  size_t pending_event_count() const { return heap_.size() + due_now_.size(); }

 private:
  friend class SimProcess;
  friend class WaitQueue;

  // What the queues order: an event's due time, its schedule order, and the
  // slot holding its closure.
  struct EventKey {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };
  static bool Before(const EventKey& a, const EventKey& b) {
    // policy-ok: the one sanctioned seq tie-break — PopNext routes ties
    // through the installed SchedulePolicy before this order applies.
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }
  // Stands in for a seq in a slot whose event has run or been cancelled, so
  // every key still naming the slot reads as a tombstone.
  static constexpr uint64_t kNoSeq = std::numeric_limits<uint64_t>::max();
  // A pending event's closure, tag and seq; an empty fn marks a free slot.
  struct EventSlot {
    EventInfo info;
    uint64_t seq = kNoSeq;
    // Whether the event's key is in the heap rather than the due-now FIFO.
    bool in_heap = false;
    Callback<> fn;
  };
  static constexpr uint32_t kSlotsPerChunkLog2 = 8;
  static constexpr uint32_t kSlotsPerChunk = 1u << kSlotsPerChunkLog2;

  EventSlot& SlotAt(uint32_t slot) {
    return slot_chunks_[slot >> kSlotsPerChunkLog2][slot & (kSlotsPerChunk - 1)];
  }
  // A free slot: the most recently freed one, or a new one (adding a chunk
  // when the last is full).
  uint32_t TakeSlot();
  // Runs the slot's closure in place, destroys it, and frees the slot.
  void RunSlot(uint32_t slot);
  // A key left behind by a cancelled event.
  bool IsTombstone(const EventKey& key) { return SlotAt(key.slot).seq != key.seq; }
  void HeapPush(EventKey key);
  EventKey HeapPop();
  // Moves `key` down from heap position `i` to where it belongs.
  void SiftDown(size_t i, EventKey key);
  // Pops tombstones off the front of both queues, so that the next key of
  // each is a live event's.
  void DropFrontTombstones();
  // Rebuilds the heap from its live keys.
  void RebuildHeap();

  // Takes a process record and a fiber for Spawn, which then gives the
  // record its body.
  SimProcess* NewProcess(ProcessName name);
  // Marks the process runnable at the current time (scheduler will hand it
  // control). A no-op once it has finished.
  void MakeReady(ProcessHandle process);
  // Takes an idle fiber, a stack left by an earlier Simulation on this
  // thread, or maps a new one; aborts if the mapping fails.
  Fiber* TakeFiber(const ProcessName& name);
  // At teardown: leaves the fibers' stacks to the next Simulation on this
  // thread, up to the pool's bound, and unmaps the rest.
  void PoolFibers();
  // Runs on a fiber: saves its registers and returns control to the
  // scheduler; returns when the scheduler resumes the fiber.
  void ParkFiber(Fiber* fiber);
  // Returns a finished process's record and fiber for reuse.
  void Reap(SimProcess* p);
  // The queued events merged in (time, seq) order: whether any is left, the
  // next one, and taking it.
  bool HasEvents() const { return !heap_.empty() || !due_now_.empty(); }
  bool NextIsDueNow() const;
  const EventKey& PeekNext() const;
  EventKey TakeNext();
  // Removes and returns the next event to run: the earliest-time event, with
  // same-time ties resolved by the installed SchedulePolicy (historical seq
  // order when none is installed or it returns 0). When the policy declares a
  // TieWindow, network events within the window of an earliest network event
  // also join the tie (but never past `limit`, so RunFor keeps its deadline).
  EventKey PopNext(SimTime limit);
  // A sleep's expiry. When nothing else is due now, the process's wake-up
  // event would run next anyway, so the expiry resumes it in place; otherwise
  // it schedules the wake-up like any other. (Sleep skips the expiry event
  // too when it would run next, alone.)
  void ExpireSleep(ProcessHandle process);
  // Drain-time lost-wakeup check shared by Run and RunFor.
  void CheckDrainWatchdog();

  SimTime now_ = 0;
  // The latest time the running Run/RunFor may reach; a sleep that would
  // outlast it schedules its expiry.
  SimTime run_limit_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_pid_ = 1;
  int spawned_ = 0;
  bool stop_requested_ = false;
  bool trace_echo_ = false;
  Rng rng_;
  SchedulePolicy* policy_ = nullptr;
  DrainWatchdog drain_watchdog_ = DrainWatchdog::kOff;
  bool drain_watchdog_tripped_ = false;
  std::vector<DrainCheck> drain_checks_;
  // Event slots, in chunks that never move, so a closure runs where it was
  // built even when it schedules more events; and the free slots, most
  // recently freed last. Both stay within the peak number of pending events.
  std::vector<std::unique_ptr<EventSlot[]>> slot_chunks_;
  uint32_t slot_count_ = 0;
  std::vector<uint32_t> free_slots_;
  // Keys of events due later than when they were scheduled: a 4-ary min-heap
  // in (time, seq) order.
  std::vector<EventKey> heap_;
  // Tombstones in heap_ and in due_now_.
  size_t heap_tombstones_ = 0;
  size_t due_now_tombstones_ = 0;
  // Keys of events scheduled for the then-current time, in schedule order.
  // Now only moves forward and seq only grows, so this queue is
  // (time, seq)-sorted too, and the next event is the lesser of its front
  // and the heap top.
  FifoQueue<EventKey> due_now_;
  // Every process record ever made; the finished ones are also listed in
  // free_processes_ for the next Spawn. Both stay within the peak number of
  // live processes.
  std::vector<std::unique_ptr<SimProcess>> processes_;
  std::vector<SimProcess*> free_processes_;
  // Every fiber this Simulation has used, and those parked with no process.
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<Fiber*> idle_fibers_;

  // The scheduler's own registers, saved while a fiber runs; fibers jump back
  // to them when they park or finish.
  jmp_buf scheduler_context_;
  // The scheduler's stack and saved fake stack, for AddressSanitizer.
  const void* scheduler_stack_bottom_ = nullptr;
  size_t scheduler_stack_size_ = 0;
  void* scheduler_fake_stack_ = nullptr;
};

}  // namespace locus

#endif  // SRC_SIM_SIMULATION_H_
