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
// MultiTaskView (the instance overloads build one) through an
// exclusion/override overlay — the allocation-free probe path of the reward
// scheme — and reports winners under ORIGINAL user ids.
#pragma once

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
  /// the hot path skips it; the binary-search reward rule opts in for the
  /// one without-i run whose log its replay probes consume (reward.cpp).
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
  /// Snapshot the residual vector into every GreedyStep (tests/debugging
  /// only; off keeps the hot path free of per-step O(t) copies).
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
/// ORIGINAL instance ids (an excluded user simply never appears), and are
/// bit-identical to solving the equivalent materialized copy.
GreedyResult solve_greedy(const MultiTaskView& view, const ViewOverlay& overlay,
                          const GreedyOptions& options = {});

}  // namespace mcs::auction::multi_task
