// Unit and property tests for Algorithm 1 (Pareto-pruned DP for the minimum
// knapsack): hand-checked cases, dominance behaviour, and optimality against
// exhaustive search on random instances.
#include "auction/single_task/dp_knapsack.hpp"

#include <limits>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace mcs::auction::single_task {
namespace {

using coverage::Amount;

/// A contribution (or requirement) in the DP's fixed-point units.
Amount units(double q) { return coverage::quantize(q); }

TEST(DpKnapsack, EmptyItemsCoverZeroRequirement) {
  const auto solution = solve_min_knapsack({}, 0);
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(solution->items.empty());
  EXPECT_EQ(solution->total_scaled_cost, 0);
}

TEST(DpKnapsack, EmptyItemsCannotCoverPositiveRequirement) {
  EXPECT_FALSE(solve_min_knapsack({}, units(1.0)).has_value());
}

TEST(DpKnapsack, SingleItemExactCover) {
  const std::vector<KnapsackItem> items{{units(1.5), 7}};
  const auto solution = solve_min_knapsack(items, units(1.5));
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->items, (std::vector<std::size_t>{0}));
  EXPECT_EQ(solution->total_scaled_cost, 7);
}

TEST(DpKnapsack, PicksCheaperOfTwoCoveringItems) {
  const std::vector<KnapsackItem> items{{units(2.0), 9}, {units(2.0), 4}};
  const auto solution = solve_min_knapsack(items, units(1.5));
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->items, (std::vector<std::size_t>{1}));
}

TEST(DpKnapsack, CombinesItemsWhenNoSingleCover) {
  const std::vector<KnapsackItem> items{{units(1.0), 3}, {units(1.0), 4}, {units(2.5), 10}};
  const auto solution = solve_min_knapsack(items, units(2.0));
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->items, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(solution->total_scaled_cost, 7);
}

TEST(DpKnapsack, InfeasibleWhenTotalContributionShort) {
  const std::vector<KnapsackItem> items{{units(0.4), 1}, {units(0.4), 1}};
  EXPECT_FALSE(solve_min_knapsack(items, units(1.0)).has_value());
}

TEST(DpKnapsack, ZeroCostItemsAreFree) {
  const std::vector<KnapsackItem> items{{units(0.5), 0}, {units(0.5), 0}, {units(1.0), 5}};
  const auto solution = solve_min_knapsack(items, units(1.0));
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->total_scaled_cost, 0);
  EXPECT_EQ(solution->items, (std::vector<std::size_t>{0, 1}));
}

TEST(DpKnapsack, SaturatedContributionCoversAlone) {
  const std::vector<KnapsackItem> items{
      {units(std::numeric_limits<double>::infinity()), 3}, {units(0.5), 1}};
  const auto solution = solve_min_knapsack(items, units(10.0));
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->items, (std::vector<std::size_t>{0}));
}

TEST(DpKnapsack, ContributionsCapAtRequirement) {
  const std::vector<KnapsackItem> items{{units(5.0), 2}};
  const auto solution = solve_min_knapsack(items, units(1.0));
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->total_contribution, units(1.0));  // capped
}

TEST(DpKnapsack, RejectsNegativeInputs) {
  EXPECT_THROW(solve_min_knapsack(std::vector<KnapsackItem>{{-1, 1}}, units(1.0)),
               common::PreconditionError);
  EXPECT_THROW(solve_min_knapsack(std::vector<KnapsackItem>{{units(0.1), -1}}, units(1.0)),
               common::PreconditionError);
  EXPECT_THROW(solve_min_knapsack(
                   std::vector<KnapsackItem>{{coverage::kSaturated + 1, 1}}, units(1.0)),
               common::PreconditionError);
  EXPECT_THROW(solve_min_knapsack({}, -1), common::PreconditionError);
}

/// Exhaustive reference: min scaled cost subset covering the requirement.
std::int64_t brute_force_cost(const std::vector<KnapsackItem>& items, Amount requirement) {
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (std::uint32_t mask = 0; mask < (1u << items.size()); ++mask) {
    std::int64_t cost = 0;
    Amount contribution = 0;
    for (std::size_t k = 0; k < items.size(); ++k) {
      if (mask & (1u << k)) {
        cost += items[k].scaled_cost;
        contribution = coverage::add(contribution, items[k].contribution);
      }
    }
    if (contribution >= requirement) {
      best = std::min(best, cost);
    }
  }
  return best;
}

class DpRandomInstances : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DpRandomInstances, MatchesBruteForce) {
  common::Rng rng(GetParam());
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
  std::vector<KnapsackItem> items;
  items.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    items.push_back({units(rng.uniform(0.0, 1.0)), rng.uniform_int(0, 50)});
  }
  const Amount requirement = units(rng.uniform(0.1, 4.0));

  const auto solution = solve_min_knapsack(items, requirement);
  const auto reference = brute_force_cost(items, requirement);
  if (reference == std::numeric_limits<std::int64_t>::max()) {
    EXPECT_FALSE(solution.has_value());
  } else {
    ASSERT_TRUE(solution.has_value());
    EXPECT_EQ(solution->total_scaled_cost, reference);
    // The reported set must actually realize the reported cost and cover.
    std::int64_t cost = 0;
    Amount contribution = 0;
    for (std::size_t item : solution->items) {
      cost += items[item].scaled_cost;
      contribution = coverage::add(contribution, items[item].contribution);
    }
    EXPECT_EQ(cost, solution->total_scaled_cost);
    EXPECT_GE(contribution, requirement);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpRandomInstances, ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace mcs::auction::single_task
