// Differential oracles for the multi-task single-minded mechanism: the
// paper-literal forms of Algorithm 4 (a full rescan of every unselected user
// per round) and Algorithm 5 (critical bids from re-solves on materialized
// instance copies), written against the nested MultiTaskInstance layout.
//
// The production path (auction/multi_task) answers the same questions with a
// lazy CELF heap over a CSR view and replayed probes through view overlays.
// This library shares nothing with it except gain.hpp's effective_contribution
// and kResidualFloor — no residual update, step log, partial-coverage close-out
// or probe plumbing — so a defect in any of those shows up as a mismatch
// against these functions instead of being reproduced by them. Outcomes are
// bit-identical to production on every instance (asserted by
// tests/mt_lazy_equivalence_test.cpp, tests/perf_smoke_test.cpp,
// tests/adversarial_equivalence_test.cpp and the adversarial sweep's
// fast_oracle_mismatches counter).
//
// Linked by the tests, bench/ and mcs_sim only; the auction and service
// libraries never depend on it. Everything here runs serially, without a
// deadline, and validates its input.
#pragma once

#include "auction/instance.hpp"
#include "auction/multi_task/greedy.hpp"
#include "auction/types.hpp"

namespace mcs::reference {

/// Algorithm 4 by full rescan: every round recomputes every unselected user's
/// residual-capped gain and picks the highest contribution-cost ratio, ties
/// toward the lower user id. `keep_partial` mirrors
/// GreedyOptions::keep_partial: a stall keeps the selected prefix and lists
/// the uncovered tasks instead of returning an empty result.
auction::multi_task::GreedyResult solve_greedy_scan(const auction::MultiTaskInstance& instance,
                                                    bool keep_partial = false);

/// Critical contribution of `winner` under `rule`, every probe a
/// solve_greedy_scan on an instance copy (without_user for the paper's
/// iteration minimum, with_declared_total_contribution for the bisection).
/// The bisection takes as many steps as production's default
/// multi_task::RewardOptions::binary_search_iterations.
double critical_contribution(const auction::MultiTaskInstance& instance, auction::UserId winner,
                             auction::CriticalBidRule rule);

/// The winner's execution-contingent reward from critical_contribution.
auction::WinnerReward compute_reward(const auction::MultiTaskInstance& instance,
                                     auction::UserId winner, double alpha,
                                     auction::CriticalBidRule rule);

/// The whole mechanism: solve_greedy_scan plus one compute_reward per winner.
/// Reads config.alpha, config.multi_task.critical_bid_rule and
/// config.multi_task.partial_coverage; everything else is ignored.
auction::MechanismOutcome run_multi_task_mechanism(const auction::MultiTaskInstance& instance,
                                                   const auction::MechanismConfig& config = {});

}  // namespace mcs::reference
