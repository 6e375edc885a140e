// Algorithm 5 of the paper: the reward scheme of the multi-task single-minded
// mechanism. For a winner i, the allocation algorithm is re-run without her;
// in each iteration (residuals Q̄, selected user k) the contribution i would
// have needed to beat k's ratio is (c_i / c_k)·Σ_j min{Q̄_j, q_k^j}. The
// minimum over all iterations is her critical contribution q̄_i, the critical
// PoS is p̄_i = 1 - e^{-q̄_i}, and the execution-contingent reward pays
//     any task completed: (1 - p̄_i)·α + c_i,   none completed: -p̄_i·α + c_i,
// giving expected utility (e^{-q̄_i} - e^{-Σ_j q_i^j})·α (Theorem 4).
//
// REPRODUCTION FINDING (see DESIGN.md §4 and tests/mt_reward_test.cpp): the
// paper's iteration-minimum UNDERSTATES the true win threshold — the
// without-i run keeps iterating past the point where the with-i run would
// have stopped, and those extra iterations have lower ratio bars. A loser
// whose total contribution exceeds that understated q̄ profits from inflating
// her declaration, breaking incentive compatibility. We therefore default to
// the Myerson-style rule: binary search (valid by Lemma 2's monotonicity)
// for the minimum total declared contribution with which the user actually
// wins, exactly as the single-task mechanism does. The paper-literal rule
// stays available for comparison.
//
// When the without-i run stalls (i is pivotal for feasibility) she would be
// selected eventually at any positive declaration, so her critical
// contribution is 0 under both rules.
//
// Probe cost: naively every rule re-runs the greedy cover dozens of times
// per winner. Instead, every critical bid starts from ONE recorded main run
// (greedy.hpp's record_greedy), shared read-only by all winners of an
// auction. Winner i's without-i run is the main run's steps up to her round
// r_i, plus a suffix resumed from the main run's heap at r_i; a loser's
// without-i run is the main run itself. The binary-search rule answers each
// bisection probe by REPLAYING that run: the with-i run tracks the without-i
// run round for round until i first tops the argmax, so "does i win at
// declaration q" reduces to comparing i's ratio against each recorded
// round's winner at that round's residuals — O(rounds · |S_i|) per probe,
// bit-identical to a full re-solve. The replay stops reading at the first
// round in which i's tasks are all covered, so the resumed run stops there
// too, with its feasibility certified from column totals (DESIGN.md §8).
// The copied-instance full-re-solve probes survive only as the differential
// oracle reference::critical_contribution (src/reference/), asserted
// bit-identical by tests/mt_lazy_equivalence_test.cpp.
#pragma once

#include "auction/instance.hpp"
#include "auction/multi_task/greedy.hpp"
#include "auction/multi_task/view.hpp"
#include "common/deadline.hpp"
#include "obs/telemetry.hpp"

namespace mcs::auction::multi_task {

/// The rule enum lives in auction/types.hpp so the unified MechanismConfig
/// can carry it; this alias keeps the historical qualified name working.
using CriticalBidRule = auction::CriticalBidRule;

struct RewardOptions {
  double alpha = 10.0;  ///< reward scaling factor α (paper Table II)
  CriticalBidRule rule = CriticalBidRule::kBinarySearch;
  int binary_search_iterations = 48;  ///< ~1e-14 relative precision on q̄
  /// Cooperative wall-clock budget; polled once per bisection step and
  /// threaded into the greedy runs.
  common::Deadline deadline = {};
  /// When non-null, accumulates probe / bisection / deadline-poll counts
  /// and the greedy rounds and heap re-evaluations of the without-i run
  /// (and of the main run, when an overload records it). The caller owns
  /// the block; under parallel rewards each worker slot must get its own
  /// (the mechanism facade merges them in index order).
  obs::PhaseCounters* counters = nullptr;
};

/// Critical contribution q̄_i of `user` under the selected rule, given the
/// recorded main run of the same view — the path the mechanism uses, so all
/// winners share one main run and one CSR build. `main` must have run to its
/// end (a stalled main run must keep its steps: record it with
/// keep_partial). For kBinarySearch the caller must pass an actual winner
/// (the search brackets her truthful declaration); kPaperIterationMin
/// accepts any user.
double critical_contribution(const MultiTaskView& view, const RecordedRun& main, UserId user,
                             const RewardOptions& options = {});

/// Records the main run first, then takes the path above.
double critical_contribution(const MultiTaskView& view, UserId user,
                             const RewardOptions& options = {});

/// MultiTaskView::from_instance (which validates) plus the view overload.
double critical_contribution(const MultiTaskInstance& instance, UserId user,
                             const RewardOptions& options = {});

/// Full reward for one winner, from the critical contribution overloads of
/// the same shapes.
WinnerReward compute_reward(const MultiTaskView& view, const RecordedRun& main, UserId winner,
                            const RewardOptions& options);
WinnerReward compute_reward(const MultiTaskView& view, UserId winner,
                            const RewardOptions& options);
WinnerReward compute_reward(const MultiTaskInstance& instance, UserId winner,
                            const RewardOptions& options);

}  // namespace mcs::auction::multi_task
