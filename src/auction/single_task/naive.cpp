#include "auction/single_task/naive.hpp"

#include <algorithm>
#include <numeric>

#include "auction/coverage.hpp"
#include "common/check.hpp"

namespace mcs::auction::single_task {

namespace {

Allocation fill_in_order(const SingleTaskInstance& instance, const std::vector<UserId>& order) {
  Allocation result;
  if (!instance.is_feasible()) {
    return result;
  }
  const coverage::Amount threshold = coverage::threshold(instance.requirement_contribution());
  coverage::Amount covered = 0;
  for (UserId user : order) {
    const coverage::Amount amount = coverage::quantize(instance.contribution(user));
    if (amount == 0) {
      continue;
    }
    result.winners.push_back(user);
    covered = coverage::add(covered, amount);
    if (covered >= threshold) {
      break;
    }
  }
  MCS_ENSURES(covered >= threshold, "feasible instance must be coverable in any positive order");
  result.feasible = true;
  std::sort(result.winners.begin(), result.winners.end());
  result.total_cost = instance.cost_of(result.winners);
  return result;
}

}  // namespace

Allocation solve_cheapest_first(const SingleTaskInstance& instance) {
  instance.validate();
  std::vector<UserId> order(instance.num_users());
  std::iota(order.begin(), order.end(), UserId{0});
  std::sort(order.begin(), order.end(), [&](UserId a, UserId b) {
    const double ca = instance.bids[static_cast<std::size_t>(a)].cost;
    const double cb = instance.bids[static_cast<std::size_t>(b)].cost;
    if (ca != cb) {
      return ca < cb;
    }
    return a < b;
  });
  return fill_in_order(instance, order);
}

Allocation solve_random_order(const SingleTaskInstance& instance, common::Rng& rng) {
  instance.validate();
  std::vector<UserId> order(instance.num_users());
  std::iota(order.begin(), order.end(), UserId{0});
  for (std::size_t k = order.size(); k > 1; --k) {
    std::swap(order[k - 1], order[static_cast<std::size_t>(
                                rng.uniform_int(0, static_cast<std::int64_t>(k) - 1))]);
  }
  return fill_in_order(instance, order);
}

}  // namespace mcs::auction::single_task
