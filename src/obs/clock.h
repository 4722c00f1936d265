// The single steady-clock path of the observability layer (mudb::obs).
//
// Every duration the system reports — BatchStats::wall_ms via
// util::WallTimer, span start/end ticks (obs/trace.h), bench harness
// timings — reads this one shim, so there is exactly one timing source to
// reason about: std::chrono::steady_clock, in integer nanoseconds.
// Previously the service layer and the bench harnesses each instantiated
// their own steady_clock readers; one shim means a test can swap in a fake
// clock (ScopedFakeClock) and every derived duration in the process moves
// together, deterministically.
//
// Determinism note: the clock feeds *accounting only*. No estimator, cache
// key, pruning decision, or RNG stream ever reads it. obs_test locks the
// fake-clock plumbing in.

#ifndef MUDB_SRC_OBS_CLOCK_H_
#define MUDB_SRC_OBS_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace mudb::obs {

/// Monotonic tick source. Ticks are nanoseconds on steady_clock (or on the
/// installed fake clock), so arithmetic on them is plain integer math.
class Clock {
 public:
  /// Nanoseconds since an arbitrary fixed origin; never decreases.
  static int64_t NowNanos();

  static double NanosToMillis(int64_t nanos) { return nanos * 1e-6; }
  static double NanosToSeconds(int64_t nanos) { return nanos * 1e-9; }
};

/// Test-only: while alive, Clock::NowNanos() returns this fake's manually
/// advanced time instead of steady_clock. Install at most one at a time,
/// before the timers/spans under test start. Advancing is thread-safe;
/// installation is not (construct before spawning readers).
class ScopedFakeClock {
 public:
  explicit ScopedFakeClock(int64_t start_nanos = 0);
  ~ScopedFakeClock();

  ScopedFakeClock(const ScopedFakeClock&) = delete;
  ScopedFakeClock& operator=(const ScopedFakeClock&) = delete;

  void AdvanceNanos(int64_t nanos) {
    now_.fetch_add(nanos, std::memory_order_relaxed);
  }
  void AdvanceMillis(double ms) {
    AdvanceNanos(static_cast<int64_t>(ms * 1e6));
  }
  int64_t now_nanos() const { return now_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> now_;
};

}  // namespace mudb::obs

#endif  // MUDB_SRC_OBS_CLOCK_H_
