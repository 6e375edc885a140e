// Core vocabulary of the reverse auction (Section II): user/task identifiers,
// allocations, and the execution-contingent (EC) reward of the paper's
// mechanisms. An EC reward pays a winner differently depending on whether she
// completed her task(s); calibrated at the critical PoS, it makes truthful
// PoS declaration a dominant strategy (Theorems 1 and 4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/telemetry.hpp"

namespace mcs::auction {

/// Index of a user within an auction instance.
using UserId = std::int32_t;
/// Index of a task within a multi-task instance.
using TaskIndex = std::int32_t;

/// Result of a winner-determination algorithm.
struct Allocation {
  /// False when the instance's requirements cannot be met by any user set
  /// (in which case winners is empty and total_cost is 0).
  bool feasible = false;
  /// Selected users, ascending by id.
  std::vector<UserId> winners;
  /// Sum of the winners' (true, unscaled) costs — the social cost.
  double total_cost = 0.0;

  bool contains(UserId user) const;
};

/// Execution-contingent reward for one winner (Algorithm 3 / Algorithm 5):
///   success: (1 - p̄)·α + c,   failure: -p̄·α + c,
/// where p̄ is the winner's critical PoS, α the platform's reward scaling
/// factor, and c her declared (verified) cost.
struct EcReward {
  double critical_pos = 0.0;  ///< p̄ in [0, 1]
  double cost = 0.0;          ///< c, reimbursed in both branches
  double alpha = 0.0;         ///< α > 0, platform reward scale

  double on_success() const { return (1.0 - critical_pos) * alpha + cost; }
  double on_failure() const { return -critical_pos * alpha + cost; }

  /// Expected utility of a winner whose true overall success probability is
  /// `true_success_prob`: (p - p̄)·α. Non-negative iff she could truthfully
  /// win (individual rationality).
  double expected_utility(double true_success_prob) const {
    return (true_success_prob - critical_pos) * alpha;
  }

  /// Realized utility given the execution outcome.
  double realized_utility(bool success) const {
    return (success ? on_success() : on_failure()) - cost;
  }
};

/// Reward assigned to one winning user.
struct WinnerReward {
  UserId user = 0;
  double critical_contribution = 0.0;  ///< q̄ = -ln(1 - p̄)
  EcReward reward;
};

/// Full outcome of a strategy-proof mechanism: the allocation plus one EC
/// reward per winner (aligned with Allocation::winners).
struct MechanismOutcome {
  Allocation allocation;
  std::vector<WinnerReward> rewards;
  /// True when a degraded path produced this outcome: the single-task
  /// Min-Greedy fallback after an FPTAS timeout, or a multi-task
  /// partial-coverage round. Degraded outcomes trade the approximation /
  /// coverage guarantee for availability; the (1+ε) bound becomes 2 on the
  /// Min-Greedy ladder.
  bool degraded = false;
  /// Multi-task partial coverage only: task indices whose PoS requirement
  /// the (partial) winner set does not meet, ascending. Empty on full
  /// coverage and for single-task outcomes.
  std::vector<TaskIndex> uncovered_tasks;
  /// Phase timings and event counts of the run that produced this outcome.
  /// Populated only while obs::enabled(); otherwise default (disabled, all
  /// zeros). Purely additive: the allocation and rewards are bit-identical
  /// whether or not telemetry was on.
  obs::MechanismTelemetry telemetry;

  const WinnerReward& reward_of(UserId user) const;
};

/// How a multi-task winner's critical contribution is computed.
/// kBinarySearch is strategy-proof; kPaperIterationMin reproduces the
/// paper's Algorithm 5 literally (see multi_task/reward.hpp for the
/// reproduction finding behind the default).
enum class CriticalBidRule {
  kBinarySearch,
  kPaperIterationMin,
};

/// How the single-task critical-bid search answers its wins(q) probes.
/// kDpReuse is the fast path: one without-winner knapsack frontier per
/// (winner, FPTAS subproblem), built once per critical-bid search and
/// combined with the probed declaration in O(log states) per bisection step.
/// Coverage is the exact integer predicate of auction/coverage.hpp, so the
/// combined sums are the full solve's own; only an exact scaled-cost tie
/// between a with-winner and a without-winner cover re-solves that one
/// subproblem, and only a probe above the declaration falls back to a full
/// solve. The two strategies are bit-identical (asserted by
/// tests/st_probe_equivalence_test.cpp). kFullSolve re-runs winner
/// determination from scratch on every probe — the oracle and the benchmark
/// baseline. Min-Greedy probes always full-solve (already cheap).
enum class ProbeStrategy {
  kDpReuse,
  kFullSolve,
};

/// Which implementation runs the Algorithm 1 Pareto-frontier sweep (the
/// remaining single-task hot kernel — it dominates both solve_fptas and the
/// probe-context builds). kColumns is the memory-engineered default: the
/// frontier lives in two contiguous int64 (cost, quantized contribution)
/// arrays merged with a branch-light two-pointer pass, parent links for
/// subset reconstruction kept in a separate side pool only when a caller
/// actually reconstructs (frontier-only callers allocate none).
/// kScalarOracle is the original pointer-chasing state pool retained as the
/// differential oracle; both kernels produce identical frontiers, solutions,
/// and tie-breaks (asserted by tests/dp_kernel_equivalence_test.cpp — see
/// DESIGN.md §8).
enum class DpKernel {
  kColumns,
  kScalarOracle,
};

/// Knobs only the single-task (FPTAS) family reads.
struct SingleTaskKnobs {
  double epsilon = 0.1;               ///< FPTAS approximation parameter
  int binary_search_iterations = 48;  ///< ~1e-14 relative precision on q̄
  /// Probe strategy of the critical-bid reward search (see ProbeStrategy).
  ProbeStrategy probe_strategy = ProbeStrategy::kDpReuse;
  /// Frontier-DP kernel behind every Algorithm 1 sweep (see DpKernel). The
  /// knob exists for benchmarking and bisection; both settings are
  /// bit-identical end to end.
  DpKernel dp_kernel = DpKernel::kColumns;
};

/// Knobs only the multi-task single-minded family reads.
struct MultiTaskKnobs {
  CriticalBidRule critical_bid_rule = CriticalBidRule::kBinarySearch;
  /// When the greedy cover stalls (infeasible instance) or hits the auction
  /// deadline, keep the selected winner prefix: the outcome stays infeasible
  /// and pays no rewards (partial coverage cannot be strategy-proof), but
  /// reports the partial winner set and the uncovered task indices so the
  /// platform can act on what WAS covered. Off reproduces the paper's
  /// all-or-nothing behaviour exactly.
  bool partial_coverage = false;
};

/// One configuration for both mechanism families — what the batched
/// auction::Engine and every caller of the per-family run_mechanism take.
/// Shared fields live at the top level; per-family knobs nest so a config is
/// valid for either instance kind (the other family's sub-struct is simply
/// ignored).
struct MechanismConfig {
  double alpha = 10.0;  ///< reward scaling factor (paper Table II)
  /// Upper bound on threads for the critical-bid computations; 0 means
  /// common::default_worker_count() and 1 runs them serially. Results are
  /// bit-identical at every setting (each bid is an independent computation).
  std::size_t reward_workers = 0;
  /// Wall-clock budget per auction in seconds; 0 (or below) = unlimited.
  /// Cooperative: the FPTAS DP, the greedy cover, and the critical-bid loops
  /// poll a common::Deadline, so an expired budget surfaces as
  /// common::DeadlineExceeded (or as the degraded ladder below) rather than
  /// an unbounded round.
  double time_budget_seconds = 0.0;
  /// Single-task degradation ladder: when the FPTAS hits the deadline, retry
  /// winner determination AND critical bids under the 2-approx Min-Greedy
  /// rule with a fresh budget, marking the outcome degraded. When off, the
  /// DeadlineExceeded propagates (the batched engine turns it into a
  /// structured timeout status).
  bool degrade_on_timeout = true;
  SingleTaskKnobs single_task = {};
  MultiTaskKnobs multi_task = {};

  /// The thread budget the reward schemes actually use: reward_workers, or
  /// the hardware default when 0.
  std::size_t reward_worker_budget() const;
};

}  // namespace mcs::auction
