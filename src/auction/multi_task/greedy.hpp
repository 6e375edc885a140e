// Algorithm 4 of the paper: greedy winner determination for the multi-task
// single-minded setting. The residual requirements Q̄_j define a submodular
// coverage function; the algorithm repeatedly selects the user maximizing the
// contribution-cost ratio
//     ( Σ_{j∈S_i} min{q_i^j, Q̄_j} ) / c_i
// and deducts her contributions, until every requirement is met. Guarantees
// (Theorems 4-6, Lemma 2): H(γ)-approximation, monotone in declared
// contributions.
//
// The argmax is a CELF-style lazy max-heap of stale ratios. Because
// residuals only shrink and costs are constant, every stale heap ratio is an
// upper bound on the user's current ratio, so a popped entry whose
// recomputed ratio still tops the heap is the true argmax; the heap orders
// equal ratios by ascending user id, the lowest-id tie-break of the
// paper-literal full rescan. The rescan lives on as the differential oracle
// reference::solve_greedy_scan (src/reference/), and the two are
// bit-identical (same winners, same steps, same tie-breaks) — asserted by
// tests/mt_lazy_equivalence_test.cpp and tests/perf_smoke_test.cpp.
//
// The iteration log (who was picked, at what ratio) is exposed because the
// reward scheme (Algorithm 5) replays it. Every solve_greedy call runs on a
// MultiTaskView (the instance overloads build one) through an override
// overlay and reports winners under ORIGINAL user ids.
//
// The reward scheme needs one without-i run per winner i. Rather than solve
// each from round 0, record_greedy keeps the main run's residuals and heap
// re-evaluations, and solve_greedy_without resumes from them at the round in
// which the main run picked i: until then i was never the argmax, so the
// without-i run's rounds are the main run's (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "auction/instance.hpp"
#include "auction/multi_task/view.hpp"
#include "common/deadline.hpp"
#include "obs/telemetry.hpp"

namespace mcs::auction::multi_task {

/// One iteration of the greedy loop.
struct GreedyStep {
  UserId selected = 0;
  /// The selected user's effective (residual-capped) total contribution at
  /// the start of the iteration: Σ_j min{q_i^j, Q̄_j}.
  double effective_contribution = 0.0;
  /// Her contribution-cost ratio at that point.
  double ratio = 0.0;
  /// Residual requirements Q̄ at the start of the iteration. Populated only
  /// under GreedyOptions::record_residuals — the copy is O(t) per step, so
  /// plain winner determination skips it.
  std::vector<double> residual_before;
};

struct GreedyOptions {
  /// Cooperative wall-clock budget, polled once per greedy iteration.
  common::Deadline deadline = {};
  /// Keep the selected prefix when the loop stalls (infeasible) or the
  /// deadline expires: the result's allocation stays infeasible but carries
  /// the partial winner set, its cost, and the iteration log, and
  /// `uncovered_tasks` lists the unmet requirements. When false (the
  /// default) a stall returns an empty result and an expiry throws
  /// common::DeadlineExceeded — the paper-exact contract.
  bool keep_partial = false;
  /// Snapshot the residual vector into every GreedyStep. record_greedy
  /// forces it on (a without-i run resumes from the residuals of her round),
  /// and so do the binary-search critical bid's without-i runs, whose steps
  /// its replayed probes read (reward.cpp).
  bool record_residuals = false;
  /// When non-null, accumulates rounds (greedy picks), deadline polls, and
  /// gain re-evaluations inside the argmax (stale heap entries recomputed;
  /// a full rescan would make Σ_{r<rounds} (n − r) of them, so the counter
  /// measures the CELF saving). The caller owns the block and must not
  /// share it across concurrent solves.
  obs::PhaseCounters* counters = nullptr;
};

struct GreedyResult {
  Allocation allocation;
  std::vector<GreedyStep> steps;  ///< selection order; empty when infeasible
  /// Tasks whose requirement is unmet, ascending; populated only under
  /// GreedyOptions::keep_partial (empty on full coverage).
  std::vector<TaskIndex> uncovered_tasks;
  /// True when the deadline (not a stall) ended a keep_partial run.
  bool timed_out = false;
};

/// Runs Algorithm 4. Returns an infeasible Allocation when the loop stalls
/// with unmet requirements (no remaining user adds positive contribution).
/// Ties on the ratio break toward the lower user id. The instance must be
/// valid (it is validated on entry).
GreedyResult solve_greedy(const MultiTaskInstance& instance);
GreedyResult solve_greedy(const MultiTaskInstance& instance, const GreedyOptions& options);

/// Runs Algorithm 4 against a prebuilt CSR view through an overlay, without
/// copying or validating anything. Winner ids, steps, and costs refer to the
/// ORIGINAL instance ids, and are bit-identical to solving the equivalent
/// materialized copy.
GreedyResult solve_greedy(const MultiTaskView& view, const ViewOverlay& overlay,
                          const GreedyOptions& options = {});

/// One gain re-evaluation of a recorded run's lazy heap: in `round` the
/// user's stale ratio was recomputed as `ratio`, or, when `ratio` < 0, she
/// was dropped for good (her gain had vanished).
struct HeapEvent {
  UserId user = 0;
  std::uint32_t round = 0;
  double ratio = 0.0;
};

/// A main run (no overlay) recorded so every user's without-i run can
/// resume from it instead of starting over.
struct RecordedRun {
  /// The run itself; every step carries residual_before.
  GreedyResult result;
  /// Every re-evaluation and drop of the lazy heap, in the order they
  /// happened (so by non-decreasing round).
  std::vector<HeapEvent> events;
  /// Per task: Σ_u q_u^j over all users in CSR order, and how many CSR
  /// entries it sums — the input of the feasibility certificate that lets
  /// an early-stopped without-i run skip its tail.
  std::vector<double> column_totals;
  std::vector<std::uint32_t> column_counts;
};

/// solve_greedy(view, ViewOverlay::none(), options) that also records the
/// heap events, the per-step residuals (record_residuals is forced on) and
/// the column totals. Same result, same counters.
RecordedRun record_greedy(const MultiTaskView& view, const GreedyOptions& options = {});

/// The run of Algorithm 4 without one user, split at the round in which the
/// main run picked her: rounds before it are the main run's own steps,
/// borrowed; the rest were re-run.
struct WithoutRun {
  std::span<const GreedyStep> prefix;
  std::vector<GreedyStep> suffix;
  /// Whether the whole without-user run covers every requirement.
  bool feasible = false;
};

/// The without-`user` run derived from the recorded main run of the same
/// view; steps and feasibility are bit-identical to solving the instance
/// without her from scratch. A user the main run never picked changes
/// nothing, so her run IS the main run (empty suffix, no solve). Otherwise
/// the run resumes at her round from the main run's heap as it stood then,
/// minus her and the earlier picks. `options` applies to the resumed rounds
/// (keep_partial is ignored: a stall reports feasible = false, an expired
/// deadline throws).
///
/// With `stop_once_covered`, the suffix ends at the first round that starts
/// with all of the user's tasks covered: the binary-search replay stops
/// reading there, since her gain is zero from then on. Feasibility is then
/// taken from the column-total certificate when it holds, and from running
/// the remaining rounds unrecorded when it does not.
WithoutRun solve_greedy_without(const MultiTaskView& view, const RecordedRun& main, UserId user,
                                const GreedyOptions& options, bool stop_once_covered = false);

}  // namespace mcs::auction::multi_task
