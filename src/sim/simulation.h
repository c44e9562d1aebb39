// Discrete-event simulation engine with cooperative blocking processes.
//
// The engine is single-threaded from the simulation's point of view: exactly
// one piece of simulated code runs at any instant, either an event callback
// or a SimProcess. Process bodies are written in natural blocking style (as
// Unix syscalls are) while the run stays fully deterministic.
//
// Each process is a fiber on its own guarded stack. A fiber is entered once
// through a makecontext context; every park, resume and finish after that is
// a _setjmp/_longjmp register swap — no syscalls, no OS scheduler involvement
// — which is what lets large simulated clusters run at memory speed. A
// finished fiber's stack goes back to a per-Simulation pool for the next
// Spawn. AddressSanitizer builds run the same fibers, told about every stack
// switch.

#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <csetjmp>
#include <cstdarg>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/time.h"

namespace locus {

class Simulation;
class SimProcess;

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

// What a schedulable event represents, so policies can tell message traffic
// from process wake-ups without parsing strings. The int fields are
// tag-specific (see comments); -1 means "not applicable".
enum class EventTag : uint8_t {
  kGeneric = 0,   // Untagged internal event.
  kWakeup,        // Process becomes runnable.       a = pid
  kSleepDone,     // Sleep timer expiry.             a = pid
  kNetDeliver,    // Message delivery.               a = from, b = to, c = msg type
  kRpcReply,      // RPC reply completion.           a = responder site, b = caller site, c = call id
  kRpcTimeout,    // RPC timeout / failure firing.   a = caller site, b = dest site, c = call id
  kTopology,      // Topology-change notification.   a = site
  kFormFlush,     // Formation flush deadline.       a = site, b = dest site
};

struct EventInfo {
  EventTag tag = EventTag::kGeneric;
  int32_t a = -1;
  int32_t b = -1;
  int32_t c = -1;
};

// Compact human-readable label ("dlv:0>1:t7", "wake:p12") used in
// counterexample traces and sleep-set bookkeeping.
std::string EventInfoLabel(const EventInfo& info);

// Two-phase-commit protocol steps at which a site crash may be injected,
// aligned with the section 4 log writes (see DESIGN.md). The kernel consults
// Simulation::AtCrashPoint at each; the crash-point enumerator in src/mc
// sweeps every (step, site) occurrence of a run.
enum class ProtocolStep : uint8_t {
  kCoordLogWritten = 0,  // Coordinator: after the coordinator log append.
  kBeforeCommitMark,     // Coordinator: before the commit-mark log update.
  kAfterCommitMark,      // Coordinator: after the commit mark is durable.
  kBeforeCommitSend,     // Coordinator: before sending one commit message.
  kBeforePrepareLog,     // Participant: before the prepare log append.
  kAfterPrepareLog,      // Participant: after the prepare record is durable.
  kPrepareReplySent,     // Participant: after the prepare reply left.
  kBeforeCommitInstall,  // Participant: before installing intentions.
  kAfterCommitInstall,   // Participant: after installing intentions.
};
inline constexpr int kProtocolStepCount = 9;

const char* ProtocolStepName(ProtocolStep step);

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

  // Called at each two-phase-commit protocol step; returning true crashes
  // `site` at that instant (the caller performs the crash and unwinds).
  virtual bool CrashAt(ProtocolStep step, int32_t site) {
    (void)step;
    (void)site;
    return false;
  }

  // Tie-widening window. Exact-time ties are rare in a discrete-event
  // simulation, so a policy may declare that network events (deliveries,
  // replies, timeouts, topology) within this much virtual time of the
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

// A cooperative simulated thread of control.
//
// Created via Simulation::Spawn. The body runs on a dedicated fiber, but only
// while the scheduler has handed it control; every blocking primitive (Sleep,
// WaitQueue::Wait, ...) parks it and returns control to the scheduler until a
// wake-up event fires.
class SimProcess {
 public:
  enum class State { kReady, kRunning, kBlocked, kFinished };

  ~SimProcess();
  SimProcess(const SimProcess&) = delete;
  SimProcess& operator=(const SimProcess&) = delete;

  const std::string& name() const { return name_; }
  uint64_t id() const { return id_; }
  State state() const { return state_; }
  Simulation& simulation() const { return *sim_; }

 private:
  friend class Simulation;
  friend class WaitQueue;

  SimProcess(Simulation* sim, uint64_t id, std::string name, std::function<void()> body);

  // Runs on the process fiber: returns control to the scheduler.
  void YieldToScheduler();
  // Runs on the scheduler: transfers control to this process and returns
  // when the process parks or finishes.
  void RunUntilParked();
  static void FiberMain();

  Simulation* sim_;
  uint64_t id_;
  std::string name_;
  std::function<void()> body_;
  State state_ = State::kReady;
  bool cancelled_ = false;
  bool started_ = false;
  // Saved registers while the fiber is switched out.
  jmp_buf context_;
  // mmap'd region whose first page is a guard page; back in the pool (and
  // null here) once the process finishes.
  void* stack_base_ = nullptr;
  // AddressSanitizer's saved fake stack while the fiber is switched out.
  void* asan_fake_stack_ = nullptr;
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

  // Wakes the longest-waiting process, if any.
  void NotifyOne();
  // Wakes all waiting processes.
  void NotifyAll();

  bool empty() const { return waiters_.empty(); }
  size_t size() const { return waiters_.size(); }

 private:
  Simulation* sim_;
  std::deque<SimProcess*> waiters_;
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

  // Schedules `fn` to run in event context after `delay` of virtual time.
  // The EventInfo overloads tag the event so an installed SchedulePolicy can
  // tell what it is deciding between at a same-time tie.
  void Schedule(SimTime delay, std::function<void()> fn);
  void Schedule(SimTime delay, EventInfo info, std::function<void()> fn);
  void ScheduleAt(SimTime when, std::function<void()> fn);
  void ScheduleAt(SimTime when, EventInfo info, std::function<void()> fn);

  // --- Decision points (schedule-space exploration; src/mc) ---
  // The policy is not owned; it must outlive its installation. Installing
  // nullptr restores the historical fixed order.
  void set_schedule_policy(SchedulePolicy* policy) { policy_ = policy; }
  SchedulePolicy* schedule_policy() const { return policy_; }
  // Consults the installed policy at a protocol step; false with no policy.
  bool AtCrashPoint(ProtocolStep step, int32_t site) {
    return policy_ != nullptr && policy_->CrashAt(step, site);
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
  void set_trace_echo(bool echo) { trace_echo_ = echo; }
  void Trace(std::string_view origin, const char* format, ...)
      __attribute__((format(printf, 3, 4)));
  void VTrace(std::string_view origin, const char* format, va_list args);

  // Creates a process whose body starts running at the current virtual time.
  // When the process finishes, its body (and everything the body captured) is
  // released and its stack returns to the pool; the process record itself,
  // and so the returned pointer, stays valid until the Simulation is
  // destroyed.
  SimProcess* Spawn(std::string name, std::function<void()> body);

  // Runs until the event queue drains (or Stop() is called). Processes left
  // blocked with no pending wake-up are reported by blocked_process_count().
  void Run();
  // Runs for at most `duration` of virtual time.
  void RunFor(SimTime duration);
  // Requests that Run return after the current event completes.
  void Stop() { stop_requested_ = true; }

  // Forcibly terminates a parked process: its body unwinds via SimCancelled.
  // Used to model processes dying when their site crashes. Must not target
  // the currently running process (a process models its own death by
  // returning or throwing).
  void Kill(SimProcess* p);

  // --- Primitives callable from process context only ---

  // Advances virtual time for the calling process.
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
  int spawned_process_count() const { return static_cast<int>(processes_.size()); }

 private:
  friend class SimProcess;
  friend class WaitQueue;

  struct Event {
    SimTime time;
    uint64_t seq;
    EventInfo info;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      // policy-ok: the one sanctioned seq tie-break — PopNext routes ties
      // through the installed SchedulePolicy before this order applies.
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  // Marks `p` runnable at the current time (scheduler will hand it control).
  void MakeReady(SimProcess* p);
  // Removes and returns the next event to run: the earliest-time event, with
  // same-time ties resolved by the installed SchedulePolicy (historical seq
  // order when none is installed or it returns 0). When the policy declares a
  // TieWindow, network events within the window of an earliest network event
  // also join the tie (but never past `limit`, so RunFor keeps its deadline).
  Event PopNext(SimTime limit);
  // Drain-time lost-wakeup check shared by Run and RunFor.
  void CheckDrainWatchdog();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_pid_ = 1;
  bool stop_requested_ = false;
  bool trace_echo_ = false;
  Rng rng_;
  SchedulePolicy* policy_ = nullptr;
  DrainWatchdog drain_watchdog_ = DrainWatchdog::kOff;
  bool drain_watchdog_tripped_ = false;
  std::vector<DrainCheck> drain_checks_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::vector<std::unique_ptr<SimProcess>> processes_;

  // The scheduler's own registers, saved while a fiber runs; fibers jump back
  // to them when they park or finish.
  jmp_buf scheduler_context_;
  // Stacks of finished processes, reused by the next Spawn before it maps a
  // new one. It never holds more than the peak number of live fibers.
  std::vector<void*> free_stacks_;
  // The scheduler's stack and saved fake stack, for AddressSanitizer.
  const void* scheduler_stack_bottom_ = nullptr;
  size_t scheduler_stack_size_ = 0;
  void* scheduler_fake_stack_ = nullptr;
};

}  // namespace locus

#endif  // SRC_SIM_SIMULATION_H_
