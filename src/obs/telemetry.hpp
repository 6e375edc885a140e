// Observability substrate (mcs::obs): always-compiled, near-zero-overhead
// telemetry for the auction platform. The ROADMAP's production framing needs
// the system to report where time goes inside a mechanism, how often the
// FPTAS→Min-Greedy degradation ladder fires, and how saturated the shared
// thread pool is — without perturbing the determinism or the latency of the
// hot paths it measures.
//
// Three layers, cheapest first:
//
//   * A process-wide enable flag (`enabled()`, one relaxed atomic load).
//     Every instrumentation site is gated on it; with telemetry off (the
//     default) the only cost anywhere is that load or a null-pointer test.
//
//   * Per-mechanism records: `MechanismTelemetry` rides on every
//     MechanismOutcome, split into the winner-determination and reward
//     phases. The mechanisms count events (probes, deadline polls, greedy
//     rounds, lazy-heap re-evaluations, bisection steps) into plain
//     `PhaseCounters` blocks — one private block per parallel reward worker,
//     merged in index order afterwards — so the hot loops never touch a
//     shared cache line, let alone a lock, and the merged numbers are
//     deterministic.
//
//   * A process-wide `Registry` of named monotonic counters and gauges for
//     the shared substrate (thread-pool queue depth and utilization, engine
//     batch occupancy and per-slot status tallies), sharded per thread:
//     every thread increments its own relaxed-atomic cells and `snapshot()`
//     merges the shards. No locks on the write path; TSan-clean by
//     construction (the asan-ubsan and tsan presets run the obs suite).
//
// Determinism contract: with telemetry disabled, all mechanism outcomes are
// bit-identical to an uninstrumented build; enabling it may only populate
// the telemetry fields, never change allocations or rewards.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mcs::obs {

/// True when telemetry collection is on (process-wide). One relaxed atomic
/// load — the entire cost of every instrumentation site while disabled.
bool enabled();

/// Flips the process-wide switch. Prefer ScopedTelemetry in tests.
void set_enabled(bool on);

/// RAII enable/disable that restores the previous state.
class ScopedTelemetry {
 public:
  explicit ScopedTelemetry(bool on);
  ~ScopedTelemetry();
  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  bool previous_;
};

/// Wall-clock span timer. Unarmed instances never read the clock, so a
/// disabled mechanism run costs nothing; armed instances measure from
/// construction to seconds().
class PhaseTimer {
 public:
  explicit PhaseTimer(bool armed);

  /// Elapsed seconds since construction; 0 when unarmed.
  double seconds() const;

 private:
  bool armed_;
  std::chrono::steady_clock::time_point start_{};
};

/// Event counts of one mechanism phase, accumulated in plain (non-atomic)
/// fields: each counting site owns its block exclusively — per call on the
/// winner-determination path, per reward worker slot on the parallel reward
/// path — and blocks are merged with += after the phase completes.
struct PhaseCounters {
  /// Winner-determination re-runs issued by the reward search (full
  /// re-solves, masked overlay solves, or recorded-run replays).
  std::uint64_t probes = 0;
  /// Cooperative deadline polls at the instrumented loop heads (FPTAS
  /// subproblem scan, Min-Greedy cover scan, multi-task greedy cover,
  /// critical-bid bisections). Polls inside the knapsack DP are uncounted.
  std::uint64_t deadline_polls = 0;
  /// Winner-determination rounds: greedy picks (multi-task and Min-Greedy)
  /// or FPTAS subproblem scans.
  std::uint64_t rounds = 0;
  /// Gain re-evaluations inside the multi-task argmax: stale-entry
  /// recomputes for the lazy heap, full candidate scans for the reference
  /// picker — the telemetry view of the CELF speedup.
  std::uint64_t heap_reevaluations = 0;
  /// Critical-bid bisection iterations across all winners of the phase.
  std::uint64_t bisection_steps = 0;
  /// Single-task fast-path probes answered from the per-winner reused DP
  /// frontiers (ProbeStrategy::kDpReuse) without a full re-solve.
  std::uint64_t dp_reuse_hits = 0;
  /// Fast-path probes not answered from the frontiers alone: an exact
  /// scaled-cost tie made the winner's membership order-dependent, or the
  /// probe lay above the declaration and ran a full solve.
  std::uint64_t dp_reuse_fallbacks = 0;
  /// Subproblem DPs the fast path re-ran exactly to break such a tie (at
  /// most one per fallback probe).
  std::uint64_t dp_reuse_exact_solves = 0;

  PhaseCounters& operator+=(const PhaseCounters& other);
};

/// Telemetry record of one mechanism run, attached to MechanismOutcome (and
/// through it to the engine's AuctionOutcome and the campaign's
/// RoundReport). Default-constructed = disabled = all zeros.
struct MechanismTelemetry {
  /// False when telemetry was off for the run: every other field is 0.
  bool enabled = false;
  /// Wall-clock split of the run's two phases.
  double winner_determination_seconds = 0.0;
  double rewards_seconds = 0.0;
  /// Degradation events: 1 when the single-task Min-Greedy ladder produced
  /// the outcome or a multi-task run ended degraded (partial coverage /
  /// timeout), 0 otherwise; sums across rounds when aggregated.
  std::uint64_t degraded_events = 0;
  PhaseCounters winner_determination;
  PhaseCounters rewards;

  /// Field-wise sum (enabled is OR-ed) — campaign aggregation.
  MechanismTelemetry& operator+=(const MechanismTelemetry& other);
};

/// One-line JSON object for a mechanism record (stable keys, documented in
/// DESIGN.md §10) — the export format of the CLI/bench telemetry sinks.
std::string to_json(const MechanismTelemetry& telemetry);

/// Process-wide registry of named int64 metrics, sharded per thread. A
/// metric is either a monotonic counter (only positive deltas) or a gauge
/// (signed deltas; the merged sum is the current level) — the distinction is
/// naming convention, not mechanism. Registration is a cold mutex path; the
/// write path is one relaxed fetch_add on the calling thread's own shard.
class Registry {
 public:
  using MetricId = std::size_t;
  /// Fixed shard width: registering more than kMaxMetrics names throws.
  static constexpr std::size_t kMaxMetrics = 64;

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every built-in instrumentation site uses.
  static Registry& global();

  /// Id of the named metric, registering it on first use (idempotent:
  /// the same name always yields the same id). Cold path — resolve once and
  /// cache the id at the call site.
  MetricId metric(const std::string& name);

  /// Adds `delta` to the metric on the calling thread's shard. Lock-free
  /// and contention-free: no other thread writes this shard.
  void add(MetricId id, std::int64_t delta);

  /// A merged point-in-time view of every registered metric.
  struct Snapshot {
    /// (name, merged value) in registration order.
    std::vector<std::pair<std::string, std::int64_t>> values;

    /// Value of a named metric; 0 when the name is not registered.
    std::int64_t value_of(const std::string& name) const;
    /// One-line JSON object {"name":value,...}.
    std::string to_json() const;
  };

  /// Merges all thread shards. Safe to call concurrently with add(): the
  /// shard cells are atomics, so a snapshot taken mid-update is simply a
  /// momentary view.
  Snapshot snapshot() const;

  /// Zeroes every shard cell (names stay registered). Test/bench isolation.
  void reset();

 private:
  struct Shard {
    std::array<std::atomic<std::int64_t>, kMaxMetrics> cells{};
  };

  Shard& local_shard();

  const std::uint64_t id_;  ///< process-unique, never reused (tls keys on it)
  mutable std::mutex mutex_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mcs::obs
