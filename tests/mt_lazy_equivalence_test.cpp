// The asserted invariant behind the lazy-greedy hot path: CELF-style lazy
// winner determination, the CSR view, and the exclusion/override overlays
// must be BIT-identical — same winners, same steps, same tie-breaks, exact
// doubles — to the paper-literal full rescan on materialized instance copies
// (the independent oracle in src/reference/). Several hundred seeded random
// instances, deliberately including tie-heavy (quantized costs and PoS so
// many users share exact ratios) and degenerate zero-contribution
// populations, are checked across every layer: solve_greedy vs
// reference::solve_greedy_scan, masked re-solves vs without_user /
// with_declared_total_contribution copies, both critical-bid rules, and the
// end-to-end mechanism.
#include <gtest/gtest.h>

#include <vector>

#include "auction/multi_task/greedy.hpp"
#include "auction/multi_task/mechanism.hpp"
#include "auction/multi_task/reward.hpp"
#include "auction/multi_task/view.hpp"
#include "common/rng.hpp"
#include "reference/multi_task.hpp"
#include "test_util.hpp"

namespace mcs::auction::multi_task {
namespace {

/// Tie-heavy population: costs and PoS drawn from tiny quantized sets, plus
/// duplicated users, so many ratios collide exactly and the lowest-id
/// tie-break carries the selection order.
MultiTaskInstance tie_heavy_instance(std::uint64_t seed) {
  common::Rng rng(seed);
  const auto t = static_cast<std::size_t>(rng.uniform_int(1, 4));
  const auto n = static_cast<std::size_t>(rng.uniform_int(4, 12));
  MultiTaskInstance instance;
  instance.requirement_pos.assign(t, 0.5);
  const double costs[] = {1.0, 2.0, 4.0};
  const double pos[] = {0.25, 0.5};
  for (std::size_t i = 0; i < n; ++i) {
    MultiTaskUserBid bid;
    bid.cost = costs[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    for (std::size_t j = 0; j < t; ++j) {
      if (rng.uniform(0.0, 1.0) < 0.6) {
        bid.tasks.push_back(static_cast<TaskIndex>(j));
        bid.pos.push_back(pos[static_cast<std::size_t>(rng.uniform_int(0, 1))]);
      }
    }
    if (bid.tasks.empty()) {
      bid.tasks.push_back(0);
      bid.pos.push_back(pos[0]);
    }
    instance.users.push_back(bid);
    if (rng.uniform(0.0, 1.0) < 0.3) {
      instance.users.push_back(bid);  // exact duplicate: a guaranteed tie
    }
  }
  return instance;
}

/// Degenerate population: a slice of the users declares PoS 0 on every task
/// (zero contribution), so the greedy must skip them and the override
/// overlay must reproduce the uniform-share branch.
MultiTaskInstance zero_contribution_instance(std::uint64_t seed) {
  auto instance = test::random_multi_task(10, 3, 0.5, seed);
  common::Rng rng(seed ^ 0xabcd);
  for (auto& user : instance.users) {
    if (rng.uniform(0.0, 1.0) < 0.3) {
      for (double& p : user.pos) {
        p = 0.0;
      }
    }
  }
  return instance;
}

/// The three instance families each seed exercises.
std::vector<MultiTaskInstance> instances_for(std::uint64_t seed) {
  common::Rng rng(seed ^ 0x5eed);
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 14));
  const auto t = static_cast<std::size_t>(rng.uniform_int(1, 5));
  return {test::random_multi_task(n, t, rng.uniform(0.2, 0.8), seed),
          tie_heavy_instance(seed), zero_contribution_instance(seed)};
}

class LazyEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LazyEquivalence, LazyMatchesReferenceScan) {
  for (const auto& instance : instances_for(GetParam())) {
    test::expect_identical_greedy(solve_greedy(instance),
                                  reference::solve_greedy_scan(instance));
    // keep_partial covers the stall path on infeasible instances.
    test::expect_identical_greedy(solve_greedy(instance, GreedyOptions{.keep_partial = true}),
                                  reference::solve_greedy_scan(instance, /*keep_partial=*/true));
  }
}

// Masked exclusion (lazy, on the shared view) vs a materialized without_user
// copy (reference scan): crossing both axes in one comparison checks that
// the layers compose. The copy's ids at or above the removed user shift down
// by one; map them back before comparing.
TEST_P(LazyEquivalence, MaskedExclusionMatchesWithoutUserCopy) {
  for (const auto& instance : instances_for(GetParam())) {
    const auto view = MultiTaskView::from_instance(instance);
    for (UserId user = 0; user < static_cast<UserId>(instance.num_users()); ++user) {
      const auto masked = solve_greedy(view, ViewOverlay::without(user));
      const auto copied = reference::solve_greedy_scan(instance.without_user(user));
      test::expect_identical_greedy(masked, copied, [user](UserId reduced) {
        return reduced >= user ? reduced + 1 : reduced;
      });
    }
  }
}

TEST_P(LazyEquivalence, MaskedOverrideMatchesDeclaredContributionCopy) {
  for (const auto& instance : instances_for(GetParam())) {
    const auto view = MultiTaskView::from_instance(instance);
    common::Rng rng(GetParam() ^ 0x0f0f);
    for (UserId user = 0; user < static_cast<UserId>(instance.num_users()); ++user) {
      const double total = instance.users[static_cast<std::size_t>(user)].total_contribution();
      for (const double declared :
           {0.0, total * 0.5, total, total * 2.0, rng.uniform(0.0, 3.0)}) {
        const auto overlay = ViewOverlay::with_declared_total_contribution(view, user, declared);
        const auto masked = solve_greedy(view, overlay);
        const auto copied = reference::solve_greedy_scan(
            instance.with_declared_total_contribution(user, declared));
        test::expect_identical_greedy(masked, copied);
      }
    }
  }
}

constexpr RewardOptions kMaskedLazy[] = {
    {.rule = CriticalBidRule::kPaperIterationMin},
    {.rule = CriticalBidRule::kBinarySearch},
};

class RewardEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RewardEquivalence, CriticalBidsMatchUnderBothRules) {
  for (const auto& instance : instances_for(GetParam())) {
    const auto result = solve_greedy(instance);
    if (!result.allocation.feasible) {
      continue;
    }
    const auto view = MultiTaskView::from_instance(instance);
    for (UserId winner : result.allocation.winners) {
      for (const auto& masked_options : kMaskedLazy) {
        // Exact equality between the production probes (via the shared-view
        // overload and the instance one) and the reference's copied probes.
        const double masked = critical_contribution(view, winner, masked_options);
        const double copied =
            reference::critical_contribution(instance, winner, masked_options.rule);
        EXPECT_EQ(masked, copied) << "winner " << winner;
        EXPECT_EQ(critical_contribution(instance, winner, masked_options), masked)
            << "winner " << winner;
        const auto masked_reward = compute_reward(view, winner, masked_options);
        const auto copied_reward =
            reference::compute_reward(instance, winner, masked_options.alpha, masked_options.rule);
        EXPECT_EQ(masked_reward.critical_contribution, copied_reward.critical_contribution);
        EXPECT_EQ(masked_reward.reward.critical_pos, copied_reward.reward.critical_pos);
        EXPECT_EQ(masked_reward.reward.cost, copied_reward.reward.cost);
      }
    }
  }
}

TEST_P(RewardEquivalence, MechanismOutcomeMatchesReferenceConfiguration) {
  for (const bool partial : {false, true}) {
    auction::MechanismConfig config;
    config.multi_task.partial_coverage = partial;
    for (const auto& instance : instances_for(GetParam())) {
      test::expect_identical_outcome(run_mechanism(instance, config),
                                     reference::run_multi_task_mechanism(instance, config));
    }
  }
}

// 100 seeds × 3 instance families = 300 instances through the greedy-layer
// equivalences; the reward-layer equivalence re-solves the cover thousands
// of times per instance, so it sweeps a smaller range.
INSTANTIATE_TEST_SUITE_P(Seeds, LazyEquivalence, ::testing::Range<std::uint64_t>(0, 100));
INSTANTIATE_TEST_SUITE_P(Seeds, RewardEquivalence, ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace mcs::auction::multi_task
