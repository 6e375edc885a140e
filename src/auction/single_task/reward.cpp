#include "auction/single_task/reward.hpp"

#include "auction/single_task/fptas.hpp"
#include "auction/single_task/min_greedy.hpp"
#include "common/check.hpp"
#include "common/math.hpp"

namespace mcs::auction::single_task {

namespace {

// Full-solve probe: writes the probed declaration into a caller-owned
// mutable copy in place and re-runs winner determination on it. Both rules
// honour the options' deadline; the probe count feeds the telemetry record.
// pos_from_contribution is exactly the conversion with_declared_contribution
// applies, so the solver sees a bit-identical instance without an O(n) copy
// per probe (asserted by tests/st_reward_test.cpp against fresh copies).
bool wins_with_contribution_scratch(SingleTaskInstance& scratch, UserId user, double declared_q,
                                    const RewardOptions& options) {
  if (options.counters != nullptr) {
    ++options.counters->probes;
  }
  scratch.bids[static_cast<std::size_t>(user)].pos = common::pos_from_contribution(declared_q);
  const auto allocation =
      options.winner_rule == WinnerRule::kMinGreedy
          ? solve_min_greedy(scratch, options.deadline, options.counters)
          : solve_fptas(scratch, options.epsilon, options.deadline, options.counters,
                        options.dp_kernel);
  return allocation.feasible && allocation.contains(user);
}

// The bisection of Algorithm 3 over wins(q), shared by both probe paths.
// Monotonicity (Lemma 1): wins(q) is a step function, false below the
// critical bid and true at/above it. Invariant: loses at lo, wins at hi.
// Every probe — the two boundary probes included — runs behind the same
// deadline poll and poll counter, so the budget covers every solve the
// search issues, not just the bisection loop's.
template <typename WinsFn>
double bisect_critical(double declared, const RewardOptions& options, WinsFn&& wins) {
  const auto polled_wins = [&](double q) {
    options.deadline.check("single-task critical-bid search");
    if (options.counters != nullptr) {
      ++options.counters->deadline_polls;
    }
    return wins(q);
  };
  MCS_EXPECTS(polled_wins(declared), "critical bid is only defined for winners");
  if (polled_wins(0.0)) {
    return 0.0;
  }
  double lo = 0.0;
  double hi = declared;
  for (int iter = 0; iter < options.binary_search_iterations; ++iter) {
    if (options.counters != nullptr) {
      ++options.counters->bisection_steps;
    }
    const double mid = 0.5 * (lo + hi);
    if (polled_wins(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace

double critical_contribution(const SingleTaskInstance& instance, UserId winner,
                             const RewardOptions& options) {
  MCS_EXPECTS(options.alpha > 0.0, "reward scaling factor must be positive");
  MCS_EXPECTS(options.binary_search_iterations > 0, "need at least one bisection step");
  const double declared = instance.contribution(winner);

  if (options.winner_rule == WinnerRule::kFptas &&
      options.probe_strategy == ProbeStrategy::kDpReuse) {
    // Fast path: one reusable probe context per winner answers the whole
    // bisection from reused DP frontiers (re-solving one subproblem only on
    // an exact cover-cost tie). Min-Greedy probes stay on the full-solve
    // path: its density order depends on the probed declaration, and a full
    // greedy pass is O(n log n) anyway.
    FptasProbeContext context =
        options.columns != nullptr
            ? FptasProbeContext(instance, *options.columns, winner, options.epsilon,
                                options.deadline, options.counters, options.dp_kernel)
            : FptasProbeContext(instance, winner, options.epsilon, options.deadline,
                                options.counters, options.dp_kernel);
    return bisect_critical(declared, options, [&](double q) {
      if (options.counters != nullptr) {
        ++options.counters->probes;
      }
      return context.wins(q);
    });
  }
  SingleTaskInstance scratch = instance;  // one copy for the whole search
  return bisect_critical(declared, options, [&](double q) {
    return wins_with_contribution_scratch(scratch, winner, q, options);
  });
}

WinnerReward compute_reward(const SingleTaskInstance& instance, UserId winner,
                            const RewardOptions& options) {
  WinnerReward result;
  result.user = winner;
  result.critical_contribution = critical_contribution(instance, winner, options);
  result.reward.critical_pos = common::pos_from_contribution(result.critical_contribution);
  result.reward.cost = instance.bids[static_cast<std::size_t>(winner)].cost;
  result.reward.alpha = options.alpha;
  return result;
}

}  // namespace mcs::auction::single_task
