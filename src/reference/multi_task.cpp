#include "reference/multi_task.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "auction/multi_task/gain.hpp"
#include "auction/multi_task/reward.hpp"
#include "common/check.hpp"
#include "common/math.hpp"

namespace mcs::reference {

using auction::CriticalBidRule;
using auction::MultiTaskInstance;
using auction::UserId;
using auction::multi_task::GreedyResult;
using auction::multi_task::kResidualFloor;

namespace {

bool unmet(double residual) { return residual > kResidualFloor; }

bool wins_with_total_contribution(const MultiTaskInstance& instance, UserId user,
                                  double declared_total) {
  const auto result =
      solve_greedy_scan(instance.with_declared_total_contribution(user, declared_total));
  return result.allocation.feasible && result.allocation.contains(user);
}

/// The paper's Algorithm 5: the minimum, over the without-i run's rounds, of
/// the contribution i needed to beat that round's winner ratio.
double iteration_min_critical(const MultiTaskInstance& instance, UserId winner) {
  const auto without = solve_greedy_scan(instance.without_user(winner));
  if (!without.allocation.feasible) {
    return 0.0;  // pivotal: selected eventually at any positive declaration
  }
  const double cost_i = instance.users[static_cast<std::size_t>(winner)].cost;
  double critical = std::numeric_limits<double>::infinity();
  for (const auto& step : without.steps) {
    // Ids in the reduced instance at or above `winner` sit one lower.
    const UserId k = step.selected >= winner ? step.selected + 1 : step.selected;
    const double cost_k = instance.users[static_cast<std::size_t>(k)].cost;
    critical = std::min(critical, (cost_i / cost_k) * step.effective_contribution);
  }
  MCS_ENSURES(critical < std::numeric_limits<double>::infinity(),
              "a feasible without-i run must have at least one iteration");
  return critical;
}

/// The Myerson-style rule: bisect for the smallest declared total
/// contribution with which the winner is still selected (Lemma 2).
double binary_search_critical(const MultiTaskInstance& instance, UserId winner) {
  if (!solve_greedy_scan(instance.without_user(winner)).allocation.feasible) {
    return 0.0;  // pivotal, as above
  }
  const double declared = instance.users[static_cast<std::size_t>(winner)].total_contribution();
  MCS_EXPECTS(wins_with_total_contribution(instance, winner, declared),
              "the binary-search critical bid is only defined for winners");
  if (wins_with_total_contribution(instance, winner, 0.0)) {
    return 0.0;
  }
  double lo = 0.0;
  double hi = declared;
  const int iterations = auction::multi_task::RewardOptions{}.binary_search_iterations;
  for (int iter = 0; iter < iterations; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (wins_with_total_contribution(instance, winner, mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace

GreedyResult solve_greedy_scan(const MultiTaskInstance& instance, bool keep_partial) {
  instance.validate();
  const std::size_t n = instance.num_users();
  std::vector<double> residual = instance.requirement_contributions();
  std::vector<bool> selected(n, false);
  GreedyResult result;
  while (std::any_of(residual.begin(), residual.end(), unmet)) {
    // Ascending ids with a strict `>` break ratio ties toward the lower id.
    UserId best = -1;
    double best_ratio = 0.0;
    double best_effective = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (selected[i]) {
        continue;
      }
      const auto& bid = instance.users[i];
      const double effective = auction::multi_task::effective_contribution(bid, residual);
      if (effective <= 0.0) {
        continue;
      }
      const double ratio = effective / bid.cost;
      if (ratio > best_ratio) {
        best = static_cast<UserId>(i);
        best_ratio = ratio;
        best_effective = effective;
      }
    }
    if (best < 0) {
      // Stalled with unmet requirements: the instance is infeasible.
      if (!keep_partial) {
        return GreedyResult{};
      }
      for (std::size_t j = 0; j < residual.size(); ++j) {
        if (unmet(residual[j])) {
          result.uncovered_tasks.push_back(static_cast<auction::TaskIndex>(j));
        }
      }
      std::sort(result.allocation.winners.begin(), result.allocation.winners.end());
      result.allocation.total_cost = instance.cost_of(result.allocation.winners);
      return result;
    }
    const auto& bid = instance.users[static_cast<std::size_t>(best)];
    selected[static_cast<std::size_t>(best)] = true;
    result.steps.push_back({best, best_effective, best_ratio, {}});
    result.allocation.winners.push_back(best);
    for (std::size_t k = 0; k < bid.tasks.size(); ++k) {
      double& r = residual[static_cast<std::size_t>(bid.tasks[k])];
      r = std::max(0.0, r - common::contribution_from_pos(bid.pos[k]));
    }
  }
  result.allocation.feasible = true;
  std::sort(result.allocation.winners.begin(), result.allocation.winners.end());
  result.allocation.total_cost = instance.cost_of(result.allocation.winners);
  return result;
}

double critical_contribution(const MultiTaskInstance& instance, UserId winner,
                             CriticalBidRule rule) {
  MCS_EXPECTS(winner >= 0 && static_cast<std::size_t>(winner) < instance.num_users(),
              "user id out of range");
  switch (rule) {
    case CriticalBidRule::kPaperIterationMin:
      return iteration_min_critical(instance, winner);
    case CriticalBidRule::kBinarySearch:
      return binary_search_critical(instance, winner);
  }
  throw common::PreconditionError("unknown critical-bid rule");
}

auction::WinnerReward compute_reward(const MultiTaskInstance& instance, UserId winner,
                                     double alpha, CriticalBidRule rule) {
  MCS_EXPECTS(alpha > 0.0, "reward scaling factor must be positive");
  auction::WinnerReward result;
  result.user = winner;
  result.critical_contribution = critical_contribution(instance, winner, rule);
  result.reward.critical_pos = common::pos_from_contribution(result.critical_contribution);
  result.reward.cost = instance.users[static_cast<std::size_t>(winner)].cost;
  result.reward.alpha = alpha;
  return result;
}

auction::MechanismOutcome run_multi_task_mechanism(const MultiTaskInstance& instance,
                                                   const auction::MechanismConfig& config) {
  MCS_EXPECTS(config.alpha > 0.0, "reward scaling factor must be positive");
  const auto greedy = solve_greedy_scan(instance, config.multi_task.partial_coverage);
  auction::MechanismOutcome outcome;
  outcome.allocation = greedy.allocation;
  if (!outcome.allocation.feasible) {
    // A partial cover reports its prefix and unmet tasks but pays nothing.
    outcome.uncovered_tasks = greedy.uncovered_tasks;
    outcome.degraded = !outcome.allocation.winners.empty();
    return outcome;
  }
  for (const UserId winner : outcome.allocation.winners) {
    outcome.rewards.push_back(
        compute_reward(instance, winner, config.alpha, config.multi_task.critical_bid_rule));
  }
  return outcome;
}

}  // namespace mcs::reference
