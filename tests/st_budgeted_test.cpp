// Tests for the max-knapsack form of Algorithm 1 and the budgeted-coverage
// API: hand cases, budget safety, and optimality against brute force.
#include "auction/single_task/budgeted.hpp"

#include <gtest/gtest.h>

#include "auction/single_task/dp_knapsack.hpp"
#include "common/check.hpp"
#include "common/math.hpp"
#include "test_util.hpp"

namespace mcs::auction::single_task {
namespace {

/// A contribution in the DP's fixed-point units.
coverage::Amount units(double q) { return coverage::quantize(q); }

TEST(MaxKnapsack, EmptySetForZeroBudget) {
  const std::vector<KnapsackItem> items{{units(1.0), 3}};
  const auto solution = solve_max_knapsack(items, 0);
  EXPECT_TRUE(solution.items.empty());
  EXPECT_EQ(solution.total_contribution, 0);
}

TEST(MaxKnapsack, PicksTheBestAffordableItem) {
  const std::vector<KnapsackItem> items{{units(2.0), 6}, {units(1.5), 3}, {units(1.0), 3}};
  const auto solution = solve_max_knapsack(items, 5);
  EXPECT_EQ(solution.items, (std::vector<std::size_t>{1}));  // the 1.5 fits, 2.0 doesn't
}

TEST(MaxKnapsack, CombinesItemsUnderTheBudget) {
  const std::vector<KnapsackItem> items{{units(2.0), 6}, {units(1.5), 3}, {units(1.0), 3}};
  const auto solution = solve_max_knapsack(items, 6);
  // {1, 2}: contribution 2.5 at cost 6 beats {0}: 2.0 at cost 6.
  EXPECT_EQ(solution.items, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(solution.total_contribution, units(2.5));
  EXPECT_EQ(solution.total_scaled_cost, 6);
}

TEST(MaxKnapsack, FreeItemsAlwaysIncluded) {
  const std::vector<KnapsackItem> items{{units(0.5), 0}, {units(1.0), 10}};
  const auto solution = solve_max_knapsack(items, 3);
  EXPECT_EQ(solution.items, (std::vector<std::size_t>{0}));
}

TEST(MaxKnapsack, RejectsNegativeInputs) {
  EXPECT_THROW(solve_max_knapsack(std::vector<KnapsackItem>{{units(1.0), 1}}, -1),
               common::PreconditionError);
  EXPECT_THROW(solve_max_knapsack(std::vector<KnapsackItem>{{-1, 1}}, 1),
               common::PreconditionError);
}

class MaxKnapsackProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxKnapsackProperty, MatchesBruteForce) {
  common::Rng rng(GetParam());
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
  std::vector<KnapsackItem> items;
  items.reserve(n);
  std::int64_t total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    items.push_back({units(rng.uniform(0.0, 1.0)), rng.uniform_int(0, 30)});
    total += items.back().scaled_cost;
  }
  const std::int64_t budget = rng.uniform_int(0, total);

  coverage::Amount best = 0;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::int64_t cost = 0;
    coverage::Amount contribution = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (mask & (1u << k)) {
        cost += items[k].scaled_cost;
        contribution = coverage::add(contribution, items[k].contribution);
      }
    }
    if (cost <= budget) {
      best = std::max(best, contribution);
    }
  }
  const auto solution = solve_max_knapsack(items, budget);
  EXPECT_EQ(solution.total_contribution, best);
  EXPECT_LE(solution.total_scaled_cost, budget);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxKnapsackProperty, ::testing::Range<std::uint64_t>(1100, 1130));

TEST(BudgetedCoverage, StaysWithinBudgetAndReportsPos) {
  const auto instance = test::random_single_task(15, 0.8, 3);
  const auto result = max_coverage_for_budget(instance, 20.0);
  EXPECT_TRUE(result.allocation.feasible);
  EXPECT_LE(result.allocation.total_cost, 20.0 + 1e-9);
  EXPECT_NEAR(result.achieved_pos,
              common::pos_from_contribution(
                  instance.contribution_of(result.allocation.winners)),
              1e-12);
}

TEST(BudgetedCoverage, MoreBudgetNeverHurts) {
  const auto instance = test::random_single_task(15, 0.8, 7);
  double previous = -1.0;
  for (double budget : {5.0, 10.0, 20.0, 40.0, 80.0}) {
    const auto result = max_coverage_for_budget(instance, budget);
    EXPECT_GE(result.achieved_pos, previous - 1e-9) << "budget " << budget;
    previous = result.achieved_pos;
  }
}

TEST(BudgetedCoverage, HugeBudgetBuysEveryUsefulUser) {
  const auto instance = test::random_single_task(10, 0.8, 9);
  const auto result = max_coverage_for_budget(instance, 1e6);
  EXPECT_EQ(result.allocation.winners.size(), instance.num_users());
}

TEST(BudgetedCoverage, MatchesBruteForceOnFineGrid) {
  const auto instance = test::random_single_task(10, 0.8, 11);
  const double budget = 25.0;
  // Brute force over true costs.
  double best = 0.0;
  for (std::uint32_t mask = 0; mask < (1u << instance.num_users()); ++mask) {
    double cost = 0.0;
    double q = 0.0;
    for (std::size_t k = 0; k < instance.num_users(); ++k) {
      if (mask & (1u << k)) {
        cost += instance.bids[k].cost;
        q += instance.contribution(static_cast<UserId>(k));
      }
    }
    if (cost <= budget) {
      best = std::max(best, q);
    }
  }
  const auto result = max_coverage_for_budget(instance, budget, 1e-5);
  EXPECT_NEAR(instance.contribution_of(result.allocation.winners), best, 1e-3);
}

TEST(BudgetedCoverage, RejectsBadArguments) {
  const auto instance = test::random_single_task(5, 0.5, 1);
  EXPECT_THROW(max_coverage_for_budget(instance, 0.0), common::PreconditionError);
  EXPECT_THROW(max_coverage_for_budget(instance, 10.0, 0.0), common::PreconditionError);
  EXPECT_THROW(max_coverage_for_budget(instance, 10.0, 2.0), common::PreconditionError);
}

}  // namespace
}  // namespace mcs::auction::single_task
