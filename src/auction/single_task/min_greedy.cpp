#include "auction/single_task/min_greedy.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.hpp"

namespace mcs::auction::single_task {

Allocation solve_min_greedy(const SingleTaskInstance& instance, const common::Deadline& deadline,
                            obs::PhaseCounters* counters) {
  return solve_min_greedy(instance, BidColumns::from_single_task(instance), deadline, counters);
}

Allocation solve_min_greedy(const SingleTaskInstance& instance, const BidColumns& columns,
                            const common::Deadline& deadline, obs::PhaseCounters* counters) {
  instance.validate();
  MCS_EXPECTS(columns.size() == instance.num_users(), "columns must snapshot this instance");
  Allocation result;
  if (!instance.is_feasible()) {
    return result;
  }
  const coverage::Amount threshold = coverage::threshold(instance.requirement_contribution());
  const auto n = instance.num_users();

  // The columns ARE the per-id rows the density sort and both scans
  // consume: q ranks users, its quantized amount decides coverage.
  const std::span<const double> contributions = columns.q_span();
  const std::span<const coverage::Amount> amounts = columns.amount_span();
  const std::span<const double> costs = columns.cost_span();

  // Density order: contribution per unit cost, descending; ties by id.
  std::vector<UserId> order(n);
  std::iota(order.begin(), order.end(), UserId{0});
  std::sort(order.begin(), order.end(), [&](UserId a, UserId b) {
    const double da = contributions[static_cast<std::size_t>(a)] /
                      costs[static_cast<std::size_t>(a)];
    const double db = contributions[static_cast<std::size_t>(b)] /
                      costs[static_cast<std::size_t>(b)];
    if (da != db) {
      return da > db;
    }
    return a < b;
  });

  // Greedy fill until feasible. `prefix_cover` trails `covered` by the last
  // pick (saturating sums cannot be undone by subtraction).
  std::vector<UserId> greedy;
  coverage::Amount covered = 0;
  coverage::Amount prefix_cover = 0;
  std::size_t last_pick_position = 0;
  for (std::size_t k = 0; k < n; ++k) {
    deadline.check("min-greedy cover scan");
    if (counters != nullptr) {
      ++counters->deadline_polls;
    }
    const coverage::Amount amount = amounts[static_cast<std::size_t>(order[k])];
    if (amount == 0) {
      continue;
    }
    if (counters != nullptr) {
      ++counters->rounds;
    }
    greedy.push_back(order[k]);
    prefix_cover = covered;
    covered = coverage::add(covered, amount);
    last_pick_position = k;
    if (covered >= threshold) {
      break;
    }
  }
  // The fill visits every user with a positive amount, and is_feasible()
  // sums exactly those amounts, so the fill ends covered.
  MCS_ENSURES(covered >= threshold, "a feasible instance must be coverable greedily");
  const double greedy_cost = instance.cost_of(greedy);

  // Swap variant: drop the final pick and close the residual with the single
  // cheapest user able to cover it alone.
  double swap_cost = std::numeric_limits<double>::infinity();
  std::vector<UserId> swap_set;
  std::vector<UserId> prefix(greedy.begin(), greedy.end() - 1);
  std::vector<char> in_prefix(n, 0);
  for (UserId user : prefix) {
    in_prefix[static_cast<std::size_t>(user)] = 1;
  }
  UserId best_closer = -1;
  double best_closer_cost = std::numeric_limits<double>::infinity();
  for (std::size_t k = last_pick_position; k < n; ++k) {
    deadline.check("min-greedy swap scan");
    if (counters != nullptr) {
      ++counters->deadline_polls;
    }
    const UserId user = order[k];
    if (in_prefix[static_cast<std::size_t>(user)] != 0) {
      continue;
    }
    const double cost = costs[static_cast<std::size_t>(user)];
    if (coverage::add(prefix_cover, amounts[static_cast<std::size_t>(user)]) >= threshold &&
        cost < best_closer_cost) {
      best_closer = user;
      best_closer_cost = cost;
    }
  }
  if (best_closer >= 0) {
    prefix.push_back(best_closer);
    swap_cost = instance.cost_of(prefix);
    swap_set = std::move(prefix);
  }

  result.feasible = true;
  if (swap_cost < greedy_cost) {
    result.winners = std::move(swap_set);
    result.total_cost = swap_cost;
  } else {
    result.winners = std::move(greedy);
    result.total_cost = greedy_cost;
  }
  std::sort(result.winners.begin(), result.winners.end());
  return result;
}

}  // namespace mcs::auction::single_task
