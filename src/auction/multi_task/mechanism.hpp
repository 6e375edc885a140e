// Facade of the complete multi-task single-minded mechanism M = (A, R):
// greedy winner determination (Algorithm 4) plus the per-iteration
// critical-bid execution-contingent reward scheme (Algorithm 5). A winner is
// paid reward.on_success() when she completes ANY task from her set and
// reward.on_failure() when she completes none (the single-minded EC rule of
// Section III-C).
#pragma once

#include "auction/multi_task/reward.hpp"

namespace mcs::auction::multi_task {

/// Runs the full strategy-proof multi-task mechanism on a built CSR view —
/// the core every entry point shares. Reads config.alpha, config.multi_task.*,
/// config.time_budget_seconds and config.reward_workers. For infeasible
/// instances the allocation is infeasible and no rewards are issued. The
/// view is trusted (see view.hpp).
MechanismOutcome run_mechanism(const MultiTaskView& view,
                               const auction::MechanismConfig& config = {});

/// MultiTaskView::from_instance (which validates) plus the view core;
/// bit-identical to calling the core on the built view.
MechanismOutcome run_mechanism(const MultiTaskInstance& instance,
                               const auction::MechanismConfig& config = {});

}  // namespace mcs::auction::multi_task
