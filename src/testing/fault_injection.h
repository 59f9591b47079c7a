// Deterministic fault injection for the serving core.
//
// Production code is sprinkled with named *injection points* — a branch that
// asks "should this operation fail right now?". In normal operation every
// point is disarmed and the hook is one relaxed atomic load (no locks, no
// allocation, branch predicted away). A test arms a point with a countdown:
// the Nth traversal of that point fires the fault — a forced scheduler
// timeout, a thrown worker exception, a failed arena allocation — and the
// code under test must turn it into a degraded-but-correct plan or a clean
// util::Status, never an abort (tests/serve_chaos_test.cc drives 1000
// seeded combinations through exactly that contract).
//
// Countdown arming (rather than probability) keeps every run reproducible
// from its seed: the kth traversal fires, independent of thread timing.
// File-level faults (cache bit flips, truncation) need no hook — the chaos
// harness mutates the persisted bytes directly; see CorruptFileBit /
// TruncateFile below.
#ifndef SERENITY_TESTING_FAULT_INJECTION_H_
#define SERENITY_TESTING_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace serenity::testing {

enum class FaultPoint : int {
  // Pipeline::Run treats the run as if its wall-clock deadline expired
  // before scheduling: degrade (when enabled) or fail with a deadline
  // status — never block.
  kSchedulerTimeout = 0,
  // SchedulerService::WorkerLoop throws std::runtime_error mid-job; the
  // worker must convert it to a Status and keep serving the queue.
  kWorkerException,
  // Building a runtime::ArenaBlock (a standalone executor's own block, or
  // a block serve::SessionPool builds or grows) throws std::bad_alloc; the
  // session factory and the pool must surface kResourceExhausted.
  kArenaAllocation,
  // serve::SessionPool::Checkout behaves as if the pooled byte cap were
  // exhausted: the checkout is shed with kResourceExhausted instead of
  // creating or waiting for a session.
  kSessionCheckout,
  // Wire-level faults, hooked into serve::wire::WriteFrame (the chaos
  // client arms them; the server under test must stay correct):
  //   * kSocketTornFrame — only the first half of the frame reaches the
  //     peer, then the write stops (the caller is told via kDataLoss and
  //     closes, leaving the peer with a torn frame).
  kSocketTornFrame,
  //   * kSocketDelayedByte — the frame trickles out with a long stall after
  //     the first bytes (slow-loris); a peer enforcing a frame deadline
  //     must cut the connection instead of wedging a worker.
  kSocketDelayedByte,
  //   * kSocketMidStreamClose — the frame is written in full and the socket
  //     is immediately shut down, so the peer's reply hits a dead
  //     connection (EPIPE path, which must never raise SIGPIPE or abort).
  kSocketMidStreamClose,
  // util::MemoryBudget::TryCharge denies the Nth charge as if the budget
  // were exhausted; the charging layer must unwind its reservation and
  // surface kResourceExhausted (the pipeline then degrades on memory).
  kBudgetDenial,
  // The DP runner's cancellation poll behaves as if the request's
  // CancelToken fired at the Nth check; the run must unwind with
  // kCancelled. Only polled when a cancel token is attached, so
  // non-cancellable runs are immune.
  kCancelPoll,
  kNumFaultPoints,  // sentinel
};

// Stall length used when kSocketDelayedByte fires (settable so tests can
// size it against the server's frame deadline). Thread-safe.
void SetSocketDelayMillis(int millis);
int SocketDelayMillis();

const char* ToString(FaultPoint point);

// Process-global injector. Thread-safe: arming uses a mutex-free CAS
// countdown, the disarmed fast path is a single relaxed load.
class FaultInjector {
 public:
  static FaultInjector& Global();

  // Arms `point` to fire on its (skip+1)-th traversal, once. Re-arming
  // replaces any pending countdown.
  void ArmAfter(FaultPoint point, std::uint64_t skip = 0);
  void Disarm(FaultPoint point);
  void DisarmAll();

  // How many times `point` actually fired / was traversed since the last
  // ResetCounters. Traversals are counted even while disarmed, so a test
  // can assert an injection point is still wired into the code path.
  std::uint64_t fires(FaultPoint point) const;
  std::uint64_t traversals(FaultPoint point) const;
  void ResetCounters();

  // Hook entry (called from production code via FaultTriggered below).
  bool ShouldFire(FaultPoint point);

 private:
  FaultInjector() = default;
  struct PointState {
    std::atomic<bool> armed{false};
    std::atomic<std::int64_t> countdown{0};  // fires when it drops below 0
    std::atomic<std::uint64_t> fires{0};
    std::atomic<std::uint64_t> traversals{0};
  };
  PointState points_[static_cast<int>(FaultPoint::kNumFaultPoints)];
};

// The injection-point hook compiled into production code. Disarmed cost:
// one relaxed atomic load and a predicted-not-taken branch.
inline bool FaultTriggered(FaultPoint point) {
  return FaultInjector::Global().ShouldFire(point);
}

// RAII arming for tests: disarms everything on scope exit so a failing
// EXPECT cannot leak an armed fault into the next test case.
class ScopedFault {
 public:
  explicit ScopedFault(FaultPoint point, std::uint64_t skip = 0);
  ~ScopedFault();
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
};

// File-corruption helpers for persistence chaos (no production hook
// needed: these mutate the file in place). Both return false when the file
// cannot be opened or is too small for the request.
bool CorruptFileBit(const std::string& path, std::uint64_t bit_index);
bool TruncateFile(const std::string& path, std::uint64_t keep_bytes);
std::int64_t FileSizeBytes(const std::string& path);  // -1 when unreadable

}  // namespace serenity::testing

#endif  // SERENITY_TESTING_FAULT_INJECTION_H_
