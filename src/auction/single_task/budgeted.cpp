#include "auction/single_task/budgeted.hpp"

#include <algorithm>
#include <cmath>

#include "auction/single_task/dp_knapsack.hpp"
#include "common/check.hpp"
#include "common/math.hpp"

namespace mcs::auction::single_task {

BudgetedCoverage max_coverage_for_budget(const SingleTaskInstance& instance, double budget,
                                         double cost_granularity) {
  instance.validate();
  MCS_EXPECTS(budget > 0.0, "budget must be positive");
  MCS_EXPECTS(cost_granularity > 0.0 && cost_granularity <= 1.0,
              "cost granularity must lie in (0, 1]");

  const double mu = budget * cost_granularity;
  const auto scaled_budget = static_cast<std::int64_t>(std::floor(budget / mu));

  // Rounding costs UP keeps every reported selection within the true budget.
  std::vector<KnapsackItem> items;
  std::vector<UserId> item_user;
  items.reserve(instance.num_users());
  for (std::size_t k = 0; k < instance.num_users(); ++k) {
    const coverage::Amount amount =
        coverage::quantize(instance.contribution(static_cast<UserId>(k)));
    if (amount == 0) {
      continue;  // never helps coverage
    }
    const auto scaled = static_cast<std::int64_t>(std::ceil(instance.bids[k].cost / mu));
    if (scaled > scaled_budget) {
      continue;  // cannot fit alone
    }
    items.push_back({amount, scaled});
    item_user.push_back(static_cast<UserId>(k));
  }

  const auto solution = solve_max_knapsack(items, scaled_budget);
  BudgetedCoverage result;
  result.allocation.feasible = true;  // the empty selection is always valid
  for (std::size_t item : solution.items) {
    result.allocation.winners.push_back(item_user[item]);
  }
  std::sort(result.allocation.winners.begin(), result.allocation.winners.end());
  result.allocation.total_cost = instance.cost_of(result.allocation.winners);
  MCS_ENSURES(result.allocation.total_cost <= budget + 1e-9,
              "budgeted selection exceeded the budget");
  result.achieved_pos =
      common::pos_from_contribution(instance.contribution_of(result.allocation.winners));
  return result;
}

}  // namespace mcs::auction::single_task
