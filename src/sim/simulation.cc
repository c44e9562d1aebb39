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

// One generated switch per LOCUS_EVENT_TAGS column; a row's fields and actor
// name the EventInfo members bound here.
std::string EventInfoLabel(const EventInfo& info) {
  const auto [tag, a, b, c] = info;
  char buf[64] = "evt";
  switch (tag) {
#define LOCUS_EVENT_FIELDS(...) __VA_OPT__(, ) __VA_ARGS__
#define LOCUS_EVENT_LABEL(name, format, fields, widens, actor)     \
  case EventTag::name:                                            \
    snprintf(buf, sizeof(buf), format LOCUS_EVENT_FIELDS fields); \
    break;
    LOCUS_EVENT_TAGS(LOCUS_EVENT_LABEL)
#undef LOCUS_EVENT_LABEL
#undef LOCUS_EVENT_FIELDS
  }
  return buf;
}

bool TieWindowWidens(EventTag tag) {
  switch (tag) {
#define LOCUS_EVENT_WIDENS(name, format, fields, widens, actor) \
  case EventTag::name:                                         \
    return widens;
    LOCUS_EVENT_TAGS(LOCUS_EVENT_WIDENS)
#undef LOCUS_EVENT_WIDENS
  }
  return false;
}

int32_t ActorSite(const EventInfo& info) {
  const auto [tag, a, b, c] = info;
  switch (tag) {
#define LOCUS_EVENT_ACTOR(name, format, fields, widens, actor) \
  case EventTag::name:                                        \
    return actor;
    LOCUS_EVENT_TAGS(LOCUS_EVENT_ACTOR)
#undef LOCUS_EVENT_ACTOR
  }
  return -1;
}

std::string ProcessName::Format() const {
  if (prefix_ == nullptr) {
    return text_;
  }
  std::string name = std::string(prefix_) + ":" + label_;
  if (number_ >= 0) {
    name += std::to_string(number_);
  }
  return name + "#" + std::to_string(serial_);
}

// ---------------------------------------------------------------------------
// Fibers and processes

namespace {
// Stack per fiber. Kernel paths nest a few dozen frames at most; the guard
// page below the stack turns an overflow into a clean SIGSEGV instead of
// silent corruption. Pages are committed lazily by the OS, and a fiber runs
// one process after another, so the cost is the pages the peak number of
// live processes touched, not one stack per process ever spawned.
constexpr size_t kFiberStackBytes = 512 * 1024;

// The most stacks a thread keeps mapped between Simulations (see
// StackPool); each is two mappings, so this stays far below the kernel's
// default vm.max_map_count of 65530.
constexpr size_t kMaxPooledStacks = 1024;

size_t PageBytes() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// Stacks mapped by this thread so far (Simulation::mapped_stack_count).
thread_local uint64_t t_mapped_stacks = 0;
}  // namespace

// A guarded stack and the registers of the code parked on it: a blocked
// process, or FiberMain waiting for its next process. It outlives the
// Simulation that mapped it when a later one on the thread reuses it.
struct Fiber {
  // `base` is the mapping, whose first page is the guard.
  explicit Fiber(void* base) : stack_base(base), stack(static_cast<char*>(base) + PageBytes()) {}
  ~Fiber() { munmap(stack_base, kFiberStackBytes + PageBytes()); }
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  void* const stack_base;
  // The usable stack, kFiberStackBytes above the guard page.
  char* const stack;
  // False until a process enters FiberMain through makecontext; cleared
  // again when the stack passes to another Simulation.
  bool started = false;
  // Saved registers while the fiber is switched out.
  jmp_buf context;
  // AddressSanitizer's saved fake stack while the fiber is switched out.
  void* asan_fake_stack = nullptr;
};

namespace {
// Set once the thread's pool is destroyed (at thread exit), so a Simulation
// torn down after that unmaps its stacks instead.
thread_local bool t_stack_pool_gone = false;

// The stacks of Simulations torn down on this thread, for the next one's
// TakeFiber: a program that builds one cluster after another maps, guards
// and first-touches its stacks once. It keeps at most the most stacks one
// Simulation has held, and never more than kMaxPooledStacks; the rest are
// unmapped. Only the mapping crosses over: a pooled stack is unpoisoned and
// entered afresh through makecontext.
struct StackPool {
  ~StackPool() { t_stack_pool_gone = true; }

  std::vector<std::unique_ptr<Fiber>> fibers;
  size_t bound = 0;
};
thread_local StackPool t_stack_pool;
}  // namespace

// Entry point of every fiber; runs with g_current_process already set. It
// runs one process body after another: when a body ends, the fiber parks
// until Spawn hands it the next process.
void SimProcess::FiberMain() {
  Simulation* const sim = g_current_process->sim_;
  FinishSwitch(nullptr, &sim->scheduler_stack_bottom_, &sim->scheduler_stack_size_);
  for (;;) {
    SimProcess* const self = g_current_process;
    self->state_ = State::kRunning;
    if (!self->cancelled_) {
      try {
        self->body_();
      } catch (const SimCancelled&) {
        // Killed (or torn down) while blocked; nothing more to do.
      }
    }
    self->state_ = State::kFinished;
    sim->ParkFiber(self->fiber_);
  }
}

void SimProcess::YieldToScheduler() {
  sim_->ParkFiber(fiber_);
  // Control is back: either a normal wake-up or a cancellation grant.
  if (cancelled_) {
    throw SimCancelled{};
  }
  state_ = State::kRunning;
}

void SimProcess::RunUntilParked() {
  SimProcess* const prev = g_current_process;
  g_current_process = this;
  Fiber* const fiber = fiber_;
  StartSwitch(&sim_->scheduler_fake_stack_, fiber->stack, kFiberStackBytes);
  if (_setjmp(sim_->scheduler_context_) == 0) {
    if (fiber->started) {
      _longjmp(fiber->context, 1);
    }
    // The one switch through ucontext: start FiberMain on the fresh stack.
    fiber->started = true;
    ucontext_t entry;
    getcontext(&entry);
    entry.uc_stack.ss_sp = fiber->stack;
    entry.uc_stack.ss_size = kFiberStackBytes;
    entry.uc_link = nullptr;  // FiberMain never returns.
    makecontext(&entry, reinterpret_cast<void (*)()>(&SimProcess::FiberMain), 0);
    setcontext(&entry);
    abort();  // setcontext returns only if it failed.
  }
  FinishSwitch(sim_->scheduler_fake_stack_, nullptr, nullptr);
  g_current_process = prev;
  if (state_ == State::kFinished) {
    sim_->Reap(this);
  }
}

Fiber* Simulation::TakeFiber(const ProcessName& name) {
  if (!idle_fibers_.empty()) {
    Fiber* fiber = idle_fibers_.back();
    idle_fibers_.pop_back();
    return fiber;
  }
  if (!t_stack_pool_gone && !t_stack_pool.fibers.empty()) {
    fibers_.push_back(std::move(t_stack_pool.fibers.back()));
    t_stack_pool.fibers.pop_back();
    return fibers_.back().get();
  }
  void* base = mmap(nullptr, kFiberStackBytes + PageBytes(), PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (base == MAP_FAILED || mprotect(base, PageBytes(), PROT_NONE) != 0) {
    const int err = errno;
    fprintf(stderr,
            "sim: cannot allocate a fiber stack for process '%s': %s (errno %d) with %d "
            "processes spawned\n",
            name.Format().c_str(), strerror(err), err, spawned_process_count());
    abort();
  }
  ++t_mapped_stacks;
  fibers_.push_back(std::make_unique<Fiber>(base));
  return fibers_.back().get();
}

void Simulation::PoolFibers() {
  if (t_stack_pool_gone) {
    return;  // The thread is exiting; fibers_ unmaps the stacks.
  }
  StackPool& pool = t_stack_pool;
  pool.bound = std::min(kMaxPooledStacks, std::max(pool.bound, fibers_.size()));
  for (std::unique_ptr<Fiber>& fiber : fibers_) {
    if (pool.fibers.size() >= pool.bound) {
      break;
    }
    // The code parked on the stack is abandoned; clear the redzones its
    // frames left before another Simulation enters the stack afresh.
    UnpoisonStack(fiber->stack, kFiberStackBytes);
    fiber->started = false;
    fiber->asan_fake_stack = nullptr;
    pool.fibers.push_back(std::move(fiber));
  }
  fibers_.clear();
}

uint64_t Simulation::mapped_stack_count() { return t_mapped_stacks; }

void Simulation::ParkFiber(Fiber* fiber) {
  StartSwitch(&fiber->asan_fake_stack, scheduler_stack_bottom_, scheduler_stack_size_);
  if (_setjmp(fiber->context) == 0) {
    _longjmp(scheduler_context_, 1);
  }
  FinishSwitch(fiber->asan_fake_stack, &scheduler_stack_bottom_, &scheduler_stack_size_);
}

void Simulation::Reap(SimProcess* p) {
  // Free what the body captured now rather than at teardown. Unwinding
  // through SimCancelled can leave redzones on the stack; clear them before
  // the fiber runs another body.
  p->body_.Reset();
  UnpoisonStack(p->fiber_->stack, kFiberStackBytes);
  idle_fibers_.push_back(p->fiber_);
  p->fiber_ = nullptr;
  free_processes_.push_back(p);
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
  waiters_.push_back(self->handle());
  self->state_ = SimProcess::State::kBlocked;
  self->YieldToScheduler();
}

void WaitQueue::NotifyOne() {
  if (waiters_.empty()) {
    return;
  }
  sim_->MakeReady(waiters_.pop_front());
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
  // Unwind every unfinished process, oldest first, while the simulation is
  // still alive: each gets control one last time with the cancel flag set,
  // and one that never started skips its body.
  std::vector<SimProcess*> unfinished;
  for (const auto& p : processes_) {
    if (p->state_ != SimProcess::State::kFinished) {
      unfinished.push_back(p.get());
    }
  }
  std::sort(unfinished.begin(), unfinished.end(),
            [](const SimProcess* a, const SimProcess* b) { return a->id_ < b->id_; });
  for (SimProcess* p : unfinished) {
    p->cancelled_ = true;
    p->RunUntilParked();
  }
  // Records (and any body never run) go before the fibers' stacks, which
  // then wait on this thread for the next Simulation.
  processes_.clear();
  PoolFibers();
}

uint32_t Simulation::TakeSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if ((slot_count_ & (kSlotsPerChunk - 1)) == 0) {
    slot_chunks_.push_back(std::make_unique<EventSlot[]>(kSlotsPerChunk));
  }
  return slot_count_++;
}

void Simulation::RunSlot(uint32_t slot) {
  // The chunk never moves, so the closure may schedule events (taking other
  // slots) while it runs.
  EventSlot& s = SlotAt(slot);
  s.seq = kNoSeq;  // Running: Cancel no longer matches it.
  s.fn();
  s.fn.Reset();
  free_slots_.push_back(slot);
}

void Simulation::Cancel(EventId id) {
  if (policy_ != nullptr || id.seq_ == kNoSeq) {
    return;
  }
  EventSlot& s = SlotAt(id.slot_);
  if (s.seq != id.seq_) {
    return;  // It ran or was cancelled; the slot may hold another event now.
  }
  s.seq = kNoSeq;
  s.fn.Reset();
  free_slots_.push_back(id.slot_);
  ++(s.in_heap ? heap_tombstones_ : due_now_tombstones_);
  DropFrontTombstones();
  if (heap_tombstones_ > 0 && 2 * heap_tombstones_ >= heap_.size()) {
    RebuildHeap();
  }
}

void Simulation::DropFrontTombstones() {
  while (heap_tombstones_ > 0 && !heap_.empty() && IsTombstone(heap_.front())) {
    HeapPop();
    --heap_tombstones_;
  }
  while (due_now_tombstones_ > 0 && !due_now_.empty() && IsTombstone(due_now_.front())) {
    due_now_.pop_front();
    --due_now_tombstones_;
  }
}

void Simulation::RebuildHeap() {
  std::erase_if(heap_, [this](const EventKey& key) { return IsTombstone(key); });
  heap_tombstones_ = 0;
  // Sift every parent down, the last one first.
  for (size_t i = heap_.size() / 4 + 1; i-- > 0;) {
    if (4 * i + 1 < heap_.size()) {
      SiftDown(i, heap_[i]);
    }
  }
}

void Simulation::HeapPush(EventKey key) {
  size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!Before(key, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

Simulation::EventKey Simulation::HeapPop() {
  const EventKey top = heap_.front();
  const EventKey last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0, last);
  }
  return top;
}

void Simulation::SiftDown(size_t i, EventKey key) {
  // Through the least of each node's (up to) four children.
  const size_t n = heap_.size();
  for (;;) {
    const size_t first = 4 * i + 1;
    if (first >= n) {
      break;
    }
    size_t least = first;
    for (size_t c = first + 1; c < std::min(first + 4, n); ++c) {
      if (Before(heap_[c], heap_[least])) {
        least = c;
      }
    }
    if (!Before(heap_[least], key)) {
      break;
    }
    heap_[i] = heap_[least];
    i = least;
  }
  heap_[i] = key;
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

SimProcess* Simulation::NewProcess(ProcessName name) {
  Fiber* fiber = TakeFiber(name);
  SimProcess* p;
  if (free_processes_.empty()) {
    processes_.push_back(std::unique_ptr<SimProcess>(new SimProcess(this)));
    p = processes_.back().get();
  } else {
    p = free_processes_.back();
    free_processes_.pop_back();
  }
  p->id_ = next_pid_++;
  p->name_ = std::move(name);
  p->state_ = SimProcess::State::kReady;
  p->cancelled_ = false;
  p->fiber_ = fiber;
  ++spawned_;
  return p;
}

void Simulation::Kill(ProcessHandle process) {
  if (process.finished()) {
    return;
  }
  SimProcess* p = process.proc_;
  p->cancelled_ = true;
  if (p == Current()) {
    // Self-kill (e.g. a process whose action crashes its own site): the body
    // unwinds at its next blocking point.
    return;
  }
  MakeReady(process);
}

void Simulation::MakeReady(ProcessHandle process) {
  if (process.finished()) {
    return;  // Stale wake-up for a process that already died.
  }
  process.proc_->state_ = SimProcess::State::kReady;
  EventInfo info{EventTag::kWakeup, static_cast<int32_t>(process.pid_), -1, -1};
  Schedule(0, info, [process] {
    if (!process.finished() && process.proc_->state_ == SimProcess::State::kReady) {
      process.proc_->RunUntilParked();
    }
  });
}

bool Simulation::NextIsDueNow() const {
  return !due_now_.empty() && (heap_.empty() || Before(due_now_.front(), heap_.front()));
}

const Simulation::EventKey& Simulation::PeekNext() const {
  return NextIsDueNow() ? due_now_.front() : heap_.front();
}

Simulation::EventKey Simulation::TakeNext() {
  const EventKey key = NextIsDueNow() ? due_now_.pop_front() : HeapPop();
  if (heap_tombstones_ + due_now_tombstones_ > 0) {
    DropFrontTombstones();
  }
  return key;
}

Simulation::EventKey Simulation::PopNext(SimTime limit) {
  const EventKey key = TakeNext();
  if (policy_ == nullptr || !HasEvents()) {
    return key;
  }
  // Two or more events at one virtual time form a tie. With a TieWindow,
  // later network events close behind an earliest network event join it too:
  // choosing one first models its message arriving early (equivalently, the
  // passed-over deliveries being delayed), which is real network
  // nondeterminism the fixed latency model otherwise hides. Non-network
  // events are never reordered across time, and because the queues yield
  // events in (time, seq) order, one sitting inside the window also caps it.
  const SimTime window = policy_->TieWindow();
  const SimTime base = key.time;
  const bool widen = window > 0 && TieWindowWidens(SlotAt(key.slot).info.tag);
  auto joins_tie = [&](const EventKey& top) {
    if (top.time == base) {
      return true;
    }
    return widen && TieWindowWidens(SlotAt(top.slot).info.tag) && top.time <= base + window &&
           top.time <= limit;
  };
  if (!joins_tie(PeekNext())) {
    return key;
  }
  std::vector<EventKey> ties{key};
  while (HasEvents() && joins_tie(PeekNext())) {
    ties.push_back(TakeNext());
  }
  std::vector<EventInfo> options;
  options.reserve(ties.size());
  for (const EventKey& t : ties) {
    options.push_back(SlotAt(t.slot).info);
  }
  size_t pick = policy_->PickNext(ties.front().time, options);
  if (pick >= ties.size()) {
    pick = 0;
  }
  // The heap keeps the passed-over events in (time, seq) order whichever
  // queue they came from.
  for (size_t i = 0; i < ties.size(); ++i) {
    if (i != pick) {
      SlotAt(ties[i].slot).in_heap = true;
      HeapPush(ties[i]);
    }
  }
  return ties[pick];
}

void Simulation::CheckDrainWatchdog() {
  if (drain_watchdog_ == DrainWatchdog::kOff || HasEvents() || stop_requested_) {
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
  run_limit_ = std::numeric_limits<SimTime>::max();
  while (HasEvents() && !stop_requested_) {
    const EventKey key = PopNext(run_limit_);
    // A policy with a TieWindow may run a delayed event first; the passed-over
    // events then execute at the later now_, so only advance time forward.
    now_ = std::max(now_, key.time);
    RunSlot(key.slot);
  }
  CheckDrainWatchdog();
}

void Simulation::RunFor(SimTime duration) {
  const SimTime deadline = now_ + duration;
  stop_requested_ = false;
  run_limit_ = deadline;
  int64_t spin = 0;
  while (HasEvents() && !stop_requested_ && PeekNext().time <= deadline) {
    const EventKey key = PopNext(deadline);
    if (key.time == now_) {
      if (++spin > 2000000) {
        fprintf(stderr, "sim: suspected zero-delay event loop at t=%lld us\n",
                static_cast<long long>(now_));
        spin = 0;
      }
    } else {
      spin = 0;
    }
    now_ = std::max(now_, key.time);
    RunSlot(key.slot);
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
  // The expiry would be the next event, alone at its time: nothing can run
  // before it, no policy could be offered a tie with it, and ExpireSleep
  // would resume this process in place. So resume it now, minus the event.
  const SimTime expiry = now_ + duration;
  if (due_now_.empty() && (heap_.empty() || heap_.front().time > expiry) && !stop_requested_ &&
      expiry <= run_limit_) {
    now_ = expiry;
    return;
  }
  self->state_ = SimProcess::State::kBlocked;
  EventInfo info{EventTag::kSleepDone, static_cast<int32_t>(self->id_), -1, -1};
  Schedule(duration, info, [process = self->handle()] {
    process.proc_->sim_->ExpireSleep(process);
  });
  self->YieldToScheduler();
}

void Simulation::ExpireSleep(ProcessHandle process) {
  // Nothing else is due now: the wake-up MakeReady would schedule is the next
  // event, alone at its time, so no policy could be offered a tie. Running
  // the process here is that wake-up, minus the event.
  const bool nothing_else_due =
      due_now_.empty() && (heap_.empty() || heap_.front().time > now_) && !stop_requested_;
  if (nothing_else_due && !process.finished() &&
      process.proc_->state_ == SimProcess::State::kBlocked) {
    process.proc_->RunUntilParked();
    return;
  }
  MakeReady(process);
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
