// A fiber switch is a _longjmp onto another stack. _FORTIFY_SOURCE would
// route it through __longjmp_chk, which aborts on such cross-stack jumps, so
// it is switched off here, before any system header reads it.
#undef _FORTIFY_SOURCE

#include "src/sim/simulation.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#if __USE_FORTIFY_LEVEL > 0
#error "simulation.cc must build without _FORTIFY_SOURCE (see the #undef above)"
#endif

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace locus {

namespace {
SimProcess* g_current_process = nullptr;

// AddressSanitizer tracks one stack per thread; these tell it that a switch
// moves execution onto another fiber's stack. No-ops in other builds.
#if defined(__SANITIZE_ADDRESS__)
void StartSwitch(void** fake_stack_save, const void* bottom, size_t size) {
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
}
void FinishSwitch(void* fake_stack_save, const void** bottom_old, size_t* size_old) {
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
}
// Clears redzones a finished fiber left on its stack (unwinding through
// SimCancelled can leave some) before the stack is reused.
void UnpoisonStack(void* stack, size_t size) { __asan_unpoison_memory_region(stack, size); }
#else
void StartSwitch(void**, const void*, size_t) {}
void FinishSwitch(void*, const void**, size_t*) {}
void UnpoisonStack(void*, size_t) {}
#endif
}  // namespace

std::string EventInfoLabel(const EventInfo& info) {
  char buf[64];
  switch (info.tag) {
    case EventTag::kGeneric:
      return "evt";
    case EventTag::kWakeup:
      snprintf(buf, sizeof(buf), "wake:p%d", info.a);
      return buf;
    case EventTag::kSleepDone:
      snprintf(buf, sizeof(buf), "sleep:p%d", info.a);
      return buf;
    case EventTag::kNetDeliver:
      snprintf(buf, sizeof(buf), "dlv:%d>%d:t%d", info.a, info.b, info.c);
      return buf;
    case EventTag::kRpcReply:
      snprintf(buf, sizeof(buf), "rpy:%d>%d:c%d", info.a, info.b, info.c);
      return buf;
    case EventTag::kRpcTimeout:
      snprintf(buf, sizeof(buf), "tmo:%d>%d:c%d", info.a, info.b, info.c);
      return buf;
    case EventTag::kTopology:
      snprintf(buf, sizeof(buf), "topo:s%d", info.a);
      return buf;
    case EventTag::kFormFlush:
      snprintf(buf, sizeof(buf), "form:%d>%d", info.a, info.b);
      return buf;
  }
  return "evt";
}

const char* ProtocolStepName(ProtocolStep step) {
  switch (step) {
    case ProtocolStep::kCoordLogWritten:
      return "coord_log_written";
    case ProtocolStep::kBeforeCommitMark:
      return "before_commit_mark";
    case ProtocolStep::kAfterCommitMark:
      return "after_commit_mark";
    case ProtocolStep::kBeforeCommitSend:
      return "before_commit_send";
    case ProtocolStep::kBeforePrepareLog:
      return "before_prepare_log";
    case ProtocolStep::kAfterPrepareLog:
      return "after_prepare_log";
    case ProtocolStep::kPrepareReplySent:
      return "prepare_reply_sent";
    case ProtocolStep::kBeforeCommitInstall:
      return "before_commit_install";
    case ProtocolStep::kAfterCommitInstall:
      return "after_commit_install";
  }
  return "unknown_step";
}

// ---------------------------------------------------------------------------
// SimProcess

namespace {
// Stack per process. Kernel paths nest a few dozen frames at most; the
// guard page below the stack turns an overflow into a clean SIGSEGV instead
// of silent corruption. Pages are committed lazily by the OS, and a finished
// process's stack is reused by the next Spawn, so the cost is the pages the
// peak number of live fibers touched, not one stack per process ever spawned.
constexpr size_t kFiberStackBytes = 512 * 1024;

size_t PageBytes() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// Bytes mapped per stack: the usable stack plus its guard page.
size_t MappedStackBytes() { return kFiberStackBytes + PageBytes(); }
}  // namespace

SimProcess::SimProcess(Simulation* sim, uint64_t id, std::string name,
                       std::function<void()> body)
    : sim_(sim), id_(id), name_(std::move(name)), body_(std::move(body)) {
  if (!sim_->free_stacks_.empty()) {
    stack_base_ = sim_->free_stacks_.back();
    sim_->free_stacks_.pop_back();
    return;
  }
  void* base = mmap(nullptr, MappedStackBytes(), PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (base == MAP_FAILED || mprotect(base, PageBytes(), PROT_NONE) != 0) {
    const int err = errno;
    fprintf(stderr,
            "sim: cannot allocate a fiber stack for process '%s': %s (errno %d) with %d "
            "processes spawned\n",
            name_.c_str(), strerror(err), err, sim_->spawned_process_count());
    abort();
  }
  stack_base_ = base;
}

SimProcess::~SimProcess() {
  if (started_ && state_ != State::kFinished) {
    // The process never finished (still blocked at teardown): grant it
    // control one last time with the cancel flag set so the body unwinds
    // and its stack frames are destroyed.
    cancelled_ = true;
    RunUntilParked();
  }
  if (stack_base_ != nullptr) {
    munmap(stack_base_, MappedStackBytes());  // Never started.
  }
}

// Entry point of every fiber; runs with g_current_process already set.
void SimProcess::FiberMain() {
  SimProcess* self = g_current_process;
  Simulation* sim = self->sim_;
  FinishSwitch(nullptr, &sim->scheduler_stack_bottom_, &sim->scheduler_stack_size_);
  if (!self->cancelled_) {
    try {
      self->body_();
    } catch (const SimCancelled&) {
      // Teardown unwound the body; nothing more to do.
    }
  }
  self->state_ = State::kFinished;
  // This fiber never runs again, so it saves no fake stack.
  StartSwitch(nullptr, sim->scheduler_stack_bottom_, sim->scheduler_stack_size_);
  _longjmp(sim->scheduler_context_, 1);
}

void SimProcess::YieldToScheduler() {
  StartSwitch(&asan_fake_stack_, sim_->scheduler_stack_bottom_, sim_->scheduler_stack_size_);
  if (_setjmp(context_) == 0) {
    _longjmp(sim_->scheduler_context_, 1);
  }
  FinishSwitch(asan_fake_stack_, &sim_->scheduler_stack_bottom_, &sim_->scheduler_stack_size_);
  // Control is back: either a normal wake-up or a cancellation grant.
  if (cancelled_) {
    throw SimCancelled{};
  }
  state_ = State::kRunning;
}

void SimProcess::RunUntilParked() {
  SimProcess* const prev = g_current_process;
  g_current_process = this;
  const bool first_entry = !started_;
  if (first_entry) {
    started_ = true;
    state_ = State::kRunning;
  }
  char* const stack = static_cast<char*>(stack_base_) + PageBytes();  // Above the guard.
  StartSwitch(&sim_->scheduler_fake_stack_, stack, kFiberStackBytes);
  if (_setjmp(sim_->scheduler_context_) == 0) {
    if (!first_entry) {
      _longjmp(context_, 1);
    }
    // The one switch through ucontext: start FiberMain on the fresh stack.
    ucontext_t entry;
    getcontext(&entry);
    entry.uc_stack.ss_sp = stack;
    entry.uc_stack.ss_size = kFiberStackBytes;
    entry.uc_link = nullptr;  // FiberMain never returns.
    makecontext(&entry, reinterpret_cast<void (*)()>(&SimProcess::FiberMain), 0);
    setcontext(&entry);
    abort();  // setcontext returns only if it failed.
  }
  FinishSwitch(sim_->scheduler_fake_stack_, nullptr, nullptr);
  g_current_process = prev;
  if (state_ == State::kFinished) {
    // Free what the body captured now rather than at teardown, and hand the
    // stack to the next Spawn.
    body_ = nullptr;
    UnpoisonStack(stack, kFiberStackBytes);
    sim_->free_stacks_.push_back(stack_base_);
    stack_base_ = nullptr;
  }
}

// ---------------------------------------------------------------------------
// WaitQueue

void WaitQueue::Wait() {
  SimProcess* self = Simulation::Current();
  assert(self != nullptr && "WaitQueue::Wait requires process context");
  if (self->cancelled_) {
    // Teardown is unwinding this process; blocking again would never return.
    return;
  }
  waiters_.push_back(self);
  self->state_ = SimProcess::State::kBlocked;
  self->YieldToScheduler();
}

void WaitQueue::NotifyOne() {
  if (waiters_.empty()) {
    return;
  }
  SimProcess* p = waiters_.front();
  waiters_.pop_front();
  sim_->MakeReady(p);
}

void WaitQueue::NotifyAll() {
  while (!waiters_.empty()) {
    NotifyOne();
  }
}

// ---------------------------------------------------------------------------
// Simulation

Simulation::Simulation(uint64_t seed) : rng_(seed) {}

Simulation::~Simulation() {
  // Destroy processes before anything else so their stacks unwind while the
  // simulation object is still alive; unwinding returns their stacks to the
  // pool, which goes last.
  processes_.clear();
  for (void* stack : free_stacks_) {
    munmap(stack, MappedStackBytes());
  }
}

void Simulation::Schedule(SimTime delay, std::function<void()> fn) {
  Schedule(delay, EventInfo{}, std::move(fn));
}

void Simulation::Schedule(SimTime delay, EventInfo info, std::function<void()> fn) {
  assert(delay >= 0);
  ScheduleAt(now_ + delay, info, std::move(fn));
}

void Simulation::ScheduleAt(SimTime when, std::function<void()> fn) {
  ScheduleAt(when, EventInfo{}, std::move(fn));
}

void Simulation::ScheduleAt(SimTime when, EventInfo info, std::function<void()> fn) {
  assert(when >= now_);
  // policy-ok: the one sanctioned seq assignment; ties are later resolved
  // through PopNext's SchedulePolicy consultation.
  events_.push(Event{when, next_seq_++, info, std::move(fn)});
}

void Simulation::Trace(std::string_view origin, const char* format, ...) {
  va_list args;
  va_start(args, format);
  VTrace(origin, format, args);
  va_end(args);
}

void Simulation::VTrace(std::string_view origin, const char* format, va_list args) {
  if (!trace_echo_) {
    return;
  }
  fprintf(stderr, "[%9.3f ms] %-10.*s ", ToMilliseconds(now_), static_cast<int>(origin.size()),
          origin.data());
  vfprintf(stderr, format, args);
  fputc('\n', stderr);
}

SimProcess* Simulation::Spawn(std::string name, std::function<void()> body) {
  auto proc = std::unique_ptr<SimProcess>(
      new SimProcess(this, next_pid_++, std::move(name), std::move(body)));
  SimProcess* raw = proc.get();
  processes_.push_back(std::move(proc));
  MakeReady(raw);
  return raw;
}

void Simulation::Kill(SimProcess* p) {
  if (p->state_ == SimProcess::State::kFinished) {
    return;
  }
  p->cancelled_ = true;
  if (p == Current()) {
    // Self-kill (e.g. a process whose action crashes its own site): the body
    // unwinds at its next blocking point.
    return;
  }
  MakeReady(p);
}

void Simulation::MakeReady(SimProcess* p) {
  if (p->state_ == SimProcess::State::kFinished) {
    return;  // Stale wake-up for a process that already died.
  }
  p->state_ = SimProcess::State::kReady;
  EventInfo info{EventTag::kWakeup, static_cast<int32_t>(p->id_), -1, -1};
  Schedule(0, info, [p] {
    if (p->state_ == SimProcess::State::kReady) {
      p->RunUntilParked();
    }
  });
}

namespace {

bool IsNetworkTag(EventTag tag) {
  switch (tag) {
    case EventTag::kNetDeliver:
    case EventTag::kRpcReply:
    case EventTag::kRpcTimeout:
    case EventTag::kTopology:
    // A flush deadline races the deliveries it would batch behind; letting
    // the checker reorder it against network events explores both sides.
    case EventTag::kFormFlush:
      return true;
    case EventTag::kGeneric:
    case EventTag::kWakeup:
    case EventTag::kSleepDone:
      return false;
  }
  return false;
}

}  // namespace

Simulation::Event Simulation::PopNext(SimTime limit) {
  Event ev = std::move(const_cast<Event&>(events_.top()));
  events_.pop();
  if (policy_ == nullptr || events_.empty()) {
    return ev;
  }
  // Two or more events at one virtual time form a tie. With a TieWindow,
  // later network events close behind an earliest network event join it too:
  // choosing one first models its message arriving early (equivalently, the
  // passed-over deliveries being delayed), which is real network
  // nondeterminism the fixed latency model otherwise hides. Non-network
  // events are never reordered across time, and because the heap yields
  // events in (time, seq) order, one sitting inside the window also caps it.
  const SimTime window = policy_->TieWindow();
  const SimTime base = ev.time;
  const bool widen = window > 0 && IsNetworkTag(ev.info.tag);
  auto joins_tie = [&](const Event& top) {
    if (top.time == base) {
      return true;
    }
    return widen && IsNetworkTag(top.info.tag) && top.time <= base + window &&
           top.time <= limit;
  };
  if (!joins_tie(events_.top())) {
    return ev;
  }
  std::vector<Event> ties;
  ties.push_back(std::move(ev));
  while (!events_.empty() && joins_tie(events_.top())) {
    ties.push_back(std::move(const_cast<Event&>(events_.top())));
    events_.pop();
  }
  std::vector<EventInfo> options;
  options.reserve(ties.size());
  for (const Event& t : ties) {
    options.push_back(t.info);
  }
  size_t pick = policy_->PickNext(ties.front().time, options);
  if (pick >= ties.size()) {
    pick = 0;
  }
  Event chosen = std::move(ties[pick]);
  for (size_t i = 0; i < ties.size(); ++i) {
    if (i != pick) {
      events_.push(std::move(ties[i]));
    }
  }
  return chosen;
}

void Simulation::CheckDrainWatchdog() {
  if (drain_watchdog_ == DrainWatchdog::kOff || !events_.empty() || stop_requested_) {
    return;
  }
  int blocked = blocked_process_count();
  std::vector<std::string> pending;
  for (const DrainCheck& check : drain_checks_) {
    std::string report = check();
    if (!report.empty()) {
      pending.push_back(std::move(report));
    }
  }
  if (blocked == 0 && pending.empty()) {
    return;
  }
  if (blocked > 0) {
    fprintf(stderr,
            "sim: event queue drained with %d process(es) still blocked — lost "
            "wake-up or deadlock\n",
            blocked);
  }
  for (const std::string& report : pending) {
    // The queue is empty, so no flush timer can ever fire: whatever the check
    // reports is stranded forever — the same class of bug as a lost wake-up.
    fprintf(stderr, "sim: event queue drained with pending work: %s\n",
            report.c_str());
  }
  DumpProcesses();
  if (drain_watchdog_ == DrainWatchdog::kFatal) {
    abort();
  }
  drain_watchdog_tripped_ = true;
}

void Simulation::Run() {
  stop_requested_ = false;
  while (!events_.empty() && !stop_requested_) {
    Event ev = PopNext(std::numeric_limits<SimTime>::max());
    // A policy with a TieWindow may run a delayed event first; the passed-over
    // events then execute at the later now_, so only advance time forward.
    now_ = std::max(now_, ev.time);
    ev.fn();
  }
  CheckDrainWatchdog();
}

void Simulation::RunFor(SimTime duration) {
  const SimTime deadline = now_ + duration;
  stop_requested_ = false;
  int64_t spin = 0;
  while (!events_.empty() && !stop_requested_ && events_.top().time <= deadline) {
    Event ev = PopNext(deadline);
    if (ev.time == now_) {
      if (++spin > 2000000) {
        fprintf(stderr, "sim: suspected zero-delay event loop at t=%lld us\n",
                static_cast<long long>(now_));
        spin = 0;
      }
    } else {
      spin = 0;
    }
    now_ = std::max(now_, ev.time);
    ev.fn();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  CheckDrainWatchdog();
}

void Simulation::Sleep(SimTime duration) {
  SimProcess* self = Current();
  assert(self != nullptr && "Sleep requires process context");
  assert(duration >= 0);
  if (self->cancelled_) {
    return;
  }
  self->state_ = SimProcess::State::kBlocked;
  EventInfo info{EventTag::kSleepDone, static_cast<int32_t>(self->id_), -1, -1};
  Schedule(duration, info, [this, self] { MakeReady(self); });
  self->YieldToScheduler();
}

SimProcess* Simulation::Current() { return g_current_process; }

void Simulation::DumpProcesses() const {
  static const char* kStateNames[] = {"ready", "running", "blocked", "finished"};
  fprintf(stderr, "--- simulation processes at t=%lld us ---\n",
          static_cast<long long>(now_));
  for (const auto& p : processes_) {
    if (p->state() != SimProcess::State::kFinished) {
      fprintf(stderr, "  %-40s %s\n", p->name().c_str(),
              kStateNames[static_cast<int>(p->state())]);
    }
  }
}

int Simulation::blocked_process_count() const {
  int n = 0;
  for (const auto& p : processes_) {
    if (p->state() == SimProcess::State::kBlocked) {
      ++n;
    }
  }
  return n;
}

}  // namespace locus
