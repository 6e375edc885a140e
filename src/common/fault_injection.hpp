// Deterministic, seed-driven fault injection for the serving stack. The
// paper's premise is execution uncertainty at the USER level (PoS < 1); this
// layer injects uncertainty at the INFRASTRUCTURE level — a shard run that
// fails, a journal append that errors, a telemetry sink that throws, a queue
// handoff that drops — so the campaign service's recovery paths (retry,
// degraded merge, watchdog, sink quarantine) can be exercised and, crucially,
// REPLAYED: every decision is a pure function of
//
//     (seed, fail point, stream, hit index)
//
// where the stream is the service's round id and the hit index numbers that
// fail point's evaluations within the round. Nothing depends on wall clock,
// thread interleaving, or global mutable counters, so a fault schedule found
// in CI reproduces bit-for-bit from its seed — even when a watchdog-abandoned
// round keeps evaluating fail points concurrently with the next round.
//
// Cost model: a service without an injector pays one null-pointer test per
// fail point (the `fault_point` helper); an injector with an all-zero spec
// pays one hash per hit. Fault injection is a test/bench facility, never a
// production default.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mcs::common {

/// Thrown by FaultInjector::act at a firing fail point. Catchable like any
/// infrastructure error; the message names the point, stream, and hit so a
/// captured error text identifies the injected schedule entry.
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Named fail points of the serving stack. Each is a place where real
/// infrastructure fails: the per-shard mechanism run, the durability
/// journal's append and replay, a telemetry sink dispatch, and the
/// queue→dispatcher handoff.
enum class FailPoint : std::size_t {
  /// One hit per slot attempt on the engine's pool: slot s (a shard slice, or
  /// the unpartitioned round) on attempt a is hit a * slots + s.
  kShardRun = 0,
  kJournalAppend,    ///< one hit per round-outcome append
  kJournalReplay,    ///< one hit per journal-served round
  kSinkDispatch,     ///< one hit per (round, registered sink) delivery
  kQueueHandoff,     ///< one hit per round popped off the submission queue
};
inline constexpr std::size_t kFailPointCount = 5;

const char* to_string(FailPoint point);

/// What a fail point does on a firing hit.
enum class FaultAction {
  kNone,   ///< pass through
  kFail,   ///< the operation fails (throw / synthesize a failed result)
  kStall,  ///< the operation wedges for stall_seconds before proceeding
};

struct FaultDecision {
  FaultAction action = FaultAction::kNone;
  double stall_seconds = 0.0;  ///< only meaningful for kStall
};

/// Per-point schedule. Probabilistic fields draw from the pure hash; the
/// explicit (stream, hit) lists force a decision at exactly those
/// coordinates, which is how a test or bench targets "round 3, shard 1".
struct FailPointSpec {
  double fail_prob = 0.0;      ///< P(kFail) per hit, in [0, 1]
  double stall_prob = 0.0;     ///< P(kStall) per hit; fail wins the overlap
  double stall_seconds = 0.05; ///< wedge length for every kStall at this point
  /// Explicit (stream, hit) coordinates that always fail / always stall.
  /// Checked before the probabilistic draw; fail_at wins over stall_at.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fail_at;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stall_at;
};

/// The message act() throws and the service records for a kFail decision.
std::string injected_fault_message(FailPoint point, std::uint64_t stream, std::uint64_t hit);

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed);

  /// Installs a fail point's schedule. Configure before handing the injector
  /// to a service: configure() is not synchronized against decide().
  void configure(FailPoint point, FailPointSpec spec);

  std::uint64_t seed() const { return seed_; }
  const FailPointSpec& spec(FailPoint point) const;

  /// The decision for hit #`hit` of `point` within `stream` — a pure
  /// function of (seed, point, stream, hit), so any thread may evaluate it
  /// in any order and replays agree. The per-point totals below are the only
  /// mutation (relaxed atomics, reporting only).
  FaultDecision decide(FailPoint point, std::uint64_t stream, std::uint64_t hit) const;

  /// Convenience for call sites that propagate failures as exceptions:
  /// throws InjectedFault on kFail, sleeps through kStall, returns on kNone.
  void act(FailPoint point, std::uint64_t stream, std::uint64_t hit) const;

  /// Totals of firing decisions, for reports and assertions. Order-free sums
  /// (a decision evaluated twice counts twice).
  std::uint64_t injected_failures(FailPoint point) const;
  std::uint64_t injected_stalls(FailPoint point) const;

 private:
  struct PointState {
    FailPointSpec spec;
    mutable std::atomic<std::uint64_t> failures{0};
    mutable std::atomic<std::uint64_t> stalls{0};
  };

  std::uint64_t seed_;
  std::array<PointState, kFailPointCount> points_;
};

/// The near-zero-cost guard used at instrumentation sites: one null-pointer
/// test when fault injection is disabled (the production state).
inline void fault_point(const FaultInjector* injector, FailPoint point, std::uint64_t stream,
                        std::uint64_t hit) {
  if (injector != nullptr) {
    injector->act(point, stream, hit);
  }
}

}  // namespace mcs::common
