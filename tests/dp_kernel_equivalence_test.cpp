// Differential suite pinning the columns frontier-DP kernel to the scalar
// oracle (auction::DpKernel, DESIGN.md §8): on randomized and adversarial
// item lists, min_knapsack_frontier / solve_min_knapsack / solve_max_knapsack
// must return bit-for-bit identical frontiers, subsets, costs, and
// contributions under both kernels — the two implementations perform the
// identical comparisons on the identical integers, so ANY divergence is a
// kernel bug. Carries the `perf-eq` label so the sanitizer presets run it
// too.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "auction/single_task/dp_knapsack.hpp"
#include "auction/single_task/fptas.hpp"
#include "bench_shapes.hpp"
#include "common/deadline.hpp"
#include "common/rng.hpp"

namespace mcs::auction::single_task {
namespace {

using coverage::Amount;

/// A contribution (or requirement) in the DP's fixed-point units.
Amount units(double q) { return coverage::quantize(q); }

/// A declared PoS of 1.
constexpr Amount kCertain = coverage::kSaturated;

/// The cost-capped min-knapsack contract, under one kernel: a cap at or
/// above the uncapped cover returns the uncapped solution bit for bit
/// (items, total cost, contribution, so tie-breaks too), and a cap below it
/// returns nullopt. An infeasible list stays infeasible under any cap.
void expect_capped_solve_matches(const std::vector<KnapsackItem>& items, Amount requirement,
                                 DpKernel kernel, const std::string& label) {
  const auto uncapped = solve_min_knapsack(items, requirement, {}, kernel);
  if (!uncapped.has_value()) {
    for (const std::int64_t cap : {std::int64_t{0}, std::int64_t{1000},
                                   std::numeric_limits<std::int64_t>::max()}) {
      EXPECT_FALSE(solve_min_knapsack(items, requirement, {}, kernel, cap).has_value())
          << label << " cap " << cap;
    }
    return;
  }
  const std::int64_t cover = uncapped->total_scaled_cost;
  for (const std::int64_t cap :
       {cover, cover + 1, 2 * cover + 5, std::numeric_limits<std::int64_t>::max()}) {
    const auto capped = solve_min_knapsack(items, requirement, {}, kernel, cap);
    ASSERT_TRUE(capped.has_value()) << label << " cap " << cap;
    EXPECT_EQ(capped->items, uncapped->items) << label << " cap " << cap;
    EXPECT_EQ(capped->total_scaled_cost, uncapped->total_scaled_cost) << label << " cap " << cap;
    EXPECT_EQ(capped->total_contribution, uncapped->total_contribution)
        << label << " cap " << cap;
  }
  if (cover > 0) {
    for (const std::int64_t cap : {std::int64_t{0}, cover / 2, cover - 1}) {
      EXPECT_FALSE(solve_min_knapsack(items, requirement, {}, kernel, cap).has_value())
          << label << " cap " << cap << " below cover " << cover;
    }
  }
}

/// Bitwise comparison of every surface the two kernels expose for one item
/// list: the frontier, the min-knapsack solution (uncapped and capped), and
/// (when the items fit the budgeted form's preconditions) the max-knapsack
/// solution.
void expect_kernels_agree(const std::vector<KnapsackItem>& items, Amount requirement,
                          std::int64_t budget, const std::string& label) {
  const auto frontier_columns =
      min_knapsack_frontier(items, requirement, {}, DpKernel::kColumns);
  const auto frontier_oracle =
      min_knapsack_frontier(items, requirement, {}, DpKernel::kScalarOracle);
  ASSERT_EQ(frontier_columns.size(), frontier_oracle.size()) << label;
  for (std::size_t k = 0; k < frontier_columns.size(); ++k) {
    EXPECT_EQ(frontier_columns[k].scaled_cost, frontier_oracle[k].scaled_cost)
        << label << " entry " << k;
    EXPECT_EQ(frontier_columns[k].contribution, frontier_oracle[k].contribution)
        << label << " entry " << k;
  }

  const auto min_columns = solve_min_knapsack(items, requirement, {}, DpKernel::kColumns);
  const auto min_oracle = solve_min_knapsack(items, requirement, {}, DpKernel::kScalarOracle);
  ASSERT_EQ(min_columns.has_value(), min_oracle.has_value()) << label;
  if (min_columns.has_value()) {
    EXPECT_EQ(min_columns->items, min_oracle->items) << label;
    EXPECT_EQ(min_columns->total_scaled_cost, min_oracle->total_scaled_cost) << label;
    EXPECT_EQ(min_columns->total_contribution, min_oracle->total_contribution) << label;
  }
  expect_capped_solve_matches(items, requirement, DpKernel::kColumns, label + " columns");
  expect_capped_solve_matches(items, requirement, DpKernel::kScalarOracle, label + " oracle");

  const auto max_columns = solve_max_knapsack(items, budget, DpKernel::kColumns);
  const auto max_oracle = solve_max_knapsack(items, budget, DpKernel::kScalarOracle);
  EXPECT_EQ(max_columns.items, max_oracle.items) << label;
  EXPECT_EQ(max_columns.total_scaled_cost, max_oracle.total_scaled_cost) << label;
  EXPECT_EQ(max_columns.total_contribution, max_oracle.total_contribution) << label;
}

TEST(DpKernelEquivalence, RandomizedItemListsMatchBitForBit) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    common::Rng rng(seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 24));
    std::vector<KnapsackItem> items;
    items.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      KnapsackItem item;
      // Zero costs and duplicate costs on purpose: cost ties exercise the
      // old-first merge rule, the exact spot where a kernel could diverge.
      item.scaled_cost = rng.uniform_int(0, 40);
      // ~1 in 12 items declares PoS 1 (a saturated contribution).
      item.contribution = rng.uniform_int(0, 11) == 0 ? kCertain : units(rng.uniform(0.0, 3.0));
      items.push_back(item);
    }
    const Amount requirement = units(rng.uniform(0.0, 6.0));
    const std::int64_t budget = rng.uniform_int(0, 80);
    expect_kernels_agree(items, requirement, budget, "seed " + std::to_string(seed));
  }
}

TEST(DpKernelEquivalence, AdversarialAllZeroCosts) {
  // Every subset costs 0: the frontier collapses onto cost 0 and survival is
  // decided purely by the dominance prune's `> best` comparisons.
  std::vector<KnapsackItem> items;
  for (int k = 0; k < 8; ++k) {
    items.push_back({units(0.25 * k), 0});
  }
  expect_kernels_agree(items, units(0.9), 0, "all-zero costs");
}

TEST(DpKernelEquivalence, AdversarialSaturatedContributions) {
  // PoS-1 declarations: saturated contributions hit the min(cap, ...) fold
  // (they stay saturated only under the budgeted form's saturated cap; a
  // requirement caps them to the requirement). Mixing both exercises the
  // capped and uncapped folds.
  std::vector<KnapsackItem> items = {
      {kCertain, 5}, {units(1.0), 3}, {kCertain, 5}, {units(0.5), 0}};
  expect_kernels_agree(items, units(2.0), 10, "saturated contributions");
  expect_kernels_agree(items, 0, 13, "saturated contributions, zero requirement");
}

TEST(DpKernelEquivalence, AdversarialCostTiesAndDuplicates) {
  // Many identical (cost, contribution) pairs: every merge step hits the
  // old-first `<=` tie rule and most extensions are dominance-pruned.
  std::vector<KnapsackItem> items(10, KnapsackItem{units(1.0), 7});
  items.push_back({units(2.0), 7});
  expect_kernels_agree(items, units(5.0), 21, "duplicate items");
}

TEST(DpKernelEquivalence, EmptyItemListMatches) {
  expect_kernels_agree({}, units(1.0), 0, "empty items");
  expect_kernels_agree({}, 0, 0, "empty items, zero requirement");
}

TEST(DpKernelEquivalence, ExpiredDeadlineThrowsInBothKernels) {
  // An already-expired budget must surface as DeadlineExceeded from the
  // first sweep iteration of EITHER kernel — the degraded ladder upstream
  // depends on the throw, so the columns kernel may not outrun the poll.
  const std::vector<KnapsackItem> items = {{units(1.0), 1}, {units(2.0), 2}};
  const Amount requirement = units(2.0);
  const auto expired = common::Deadline::after(-1.0);
  EXPECT_THROW(min_knapsack_frontier(items, requirement, expired, DpKernel::kColumns),
               common::DeadlineExceeded);
  EXPECT_THROW(min_knapsack_frontier(items, requirement, expired, DpKernel::kScalarOracle),
               common::DeadlineExceeded);
  EXPECT_THROW(solve_min_knapsack(items, requirement, expired, DpKernel::kColumns),
               common::DeadlineExceeded);
  EXPECT_THROW(solve_min_knapsack(items, requirement, expired, DpKernel::kScalarOracle),
               common::DeadlineExceeded);
  // No items -> no sweep iterations -> no poll: both kernels return the root
  // frontier instead of throwing, exactly like the oracle always has.
  EXPECT_EQ(min_knapsack_frontier({}, requirement, expired, DpKernel::kColumns).size(), 1u);
  EXPECT_EQ(min_knapsack_frontier({}, requirement, expired, DpKernel::kScalarOracle).size(), 1u);
}

TEST(DpKernelEquivalence, SolveFptasMatchesAcrossKernelsOnBenchShapes) {
  // End-to-end winner determination on the memory_scaling bench shape: the
  // kernel knob must be invisible in the allocation.
  for (const std::size_t n : {12, 30, 60}) {
    for (const std::uint64_t seed : {3ull, 4ull}) {
      const auto instance = bench_shapes::single_task_scaling_instance(n, seed);
      const auto columns = solve_fptas(instance, 0.3, {}, nullptr, DpKernel::kColumns);
      const auto oracle = solve_fptas(instance, 0.3, {}, nullptr, DpKernel::kScalarOracle);
      EXPECT_EQ(columns.feasible, oracle.feasible) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(columns.winners, oracle.winners) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(columns.total_cost, oracle.total_cost) << "n=" << n << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace mcs::auction::single_task
