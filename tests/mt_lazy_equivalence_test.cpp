// The asserted invariant behind the lazy-greedy hot path: CELF-style lazy
// winner determination, the CSR view, the override overlay and the resumed
// without-user runs must be BIT-identical — same winners, same steps, same
// tie-breaks, exact doubles — to the paper-literal full rescan on
// materialized instance copies (the independent oracle in src/reference/). Several hundred seeded random
// instances, deliberately including tie-heavy (quantized costs and PoS so
// many users share exact ratios) and degenerate zero-contribution
// populations, are checked across every layer: solve_greedy vs
// reference::solve_greedy_scan, without-user runs resumed from a recorded
// main run vs without_user copies, masked re-solves vs
// with_declared_total_contribution copies, both critical-bid rules, and the
// end-to-end mechanism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <vector>

#include "auction/multi_task/greedy.hpp"
#include "auction/multi_task/mechanism.hpp"
#include "auction/multi_task/reward.hpp"
#include "auction/multi_task/view.hpp"
#include "common/check.hpp"
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

/// Knife-edge population: task 1's column sums to its requirement Q_1 to
/// within a few ulps, on either side, or falls short by a sliver around the
/// residual floor — inside the margin of the column-total certificate, so an
/// early-stopped without-i run is not certified and must run on to decide
/// its own feasibility. Users a and b bid on task 1 only; an optional
/// sliver user adds a contribution near the margin or the floor to task 1
/// and bids on task 0 too; the rest bid on task 0, some duplicated so that
/// ratios tie exactly where the main run picks them.
MultiTaskInstance knife_edge_instance(std::uint64_t seed) {
  common::Rng rng(seed);
  MultiTaskInstance instance;
  const double t1 = rng.uniform(0.4, 0.8);
  instance.requirement_pos = {rng.uniform(0.3, 0.6), t1};
  const double costs[] = {1.0, 2.0, 3.0};
  const auto cost = [&] { return costs[static_cast<std::size_t>(rng.uniform_int(0, 2))]; };
  // (1 − p_a)(1 − p_b) = 1 − t1 makes q_a + q_b = Q_1 in exact arithmetic;
  // a shortfall and a nudge of a few ulps place the computed sum on either
  // side of Q_1 and of the residual floor.
  const double p_a = rng.uniform(0.1, t1 - 0.1);
  const double shortfalls[] = {0.0, 0.0, 5e-13, 3e-12};
  const double q_b = common::contribution_from_pos(t1) - common::contribution_from_pos(p_a) -
                     shortfalls[static_cast<std::size_t>(rng.uniform_int(0, 3))];
  double p_b = -std::expm1(-q_b);
  const auto nudge = rng.uniform_int(-4, 4);
  for (std::int64_t k = 0; k < std::abs(nudge); ++k) {
    p_b = std::nextafter(p_b, nudge > 0 ? 1.0 : 0.0);
  }
  instance.users.push_back({{1}, {p_a}, cost()});
  instance.users.push_back({{1}, {p_b}, cost()});
  const double slivers[] = {0.0, 1e-15, 4e-15, 1e-13, 4e-12};
  const double sliver = slivers[static_cast<std::size_t>(rng.uniform_int(0, 4))];
  if (sliver > 0.0) {
    instance.users.push_back({{0, 1}, {rng.uniform(0.1, 0.5), -std::expm1(-sliver)}, cost()});
  }
  const auto others = rng.uniform_int(2, 6);
  for (std::int64_t k = 0; k < others; ++k) {
    const MultiTaskUserBid bid{{0}, {rng.uniform(0.1, 0.5)}, cost()};
    instance.users.push_back(bid);
    if (rng.uniform(0.0, 1.0) < 0.3) {
      instance.users.push_back(bid);
    }
  }
  // Vary which ids a and b get, so tie-breaks meet them from both sides.
  const auto shift = rng.uniform_int(0, static_cast<std::int64_t>(instance.users.size()) - 1);
  std::rotate(instance.users.begin(), instance.users.begin() + shift, instance.users.end());
  return instance;
}

/// Every user followed by an exact copy: whenever the main run picks a
/// user, her copy ties her ratio in that round, so the without-user run
/// resumed there picks the copy.
MultiTaskInstance duplicated(const MultiTaskInstance& instance) {
  MultiTaskInstance copy;
  copy.requirement_pos = instance.requirement_pos;
  for (const auto& bid : instance.users) {
    copy.users.push_back(bid);
    copy.users.push_back(bid);
  }
  return copy;
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

/// A without-user run as one GreedyResult: the borrowed prefix, then the
/// resumed suffix, closed out like a plain solve_greedy (empty when it
/// stalls).
GreedyResult as_result(const MultiTaskView& view, const WithoutRun& run) {
  if (!run.feasible) {
    return {};
  }
  GreedyResult result;
  result.steps.assign(run.prefix.begin(), run.prefix.end());
  result.steps.insert(result.steps.end(), run.suffix.begin(), run.suffix.end());
  for (const auto& step : result.steps) {
    result.allocation.winners.push_back(step.selected);
  }
  std::sort(result.allocation.winners.begin(), result.allocation.winners.end());
  result.allocation.feasible = true;
  result.allocation.total_cost = view.cost_of(result.allocation.winners);
  return result;
}

// Every user's without-user run, resumed from the recorded main run (lazy,
// on the shared view), vs a materialized without_user copy (reference scan):
// crossing both axes in one comparison checks that the layers compose. The
// copy's ids at or above the removed user shift down by one; map them back
// before comparing. The early-stopped run (the binary-search rule's) must be
// a step-for-step prefix of the full one, residuals included, with the same
// feasibility.
TEST_P(LazyEquivalence, ResumedWithoutRunsMatchWithoutUserCopy) {
  for (const auto& instance : instances_for(GetParam())) {
    const auto view = MultiTaskView::from_instance(instance);
    // keep_partial keeps a stalled main run's steps to resume from.
    const auto main = record_greedy(view, GreedyOptions{.keep_partial = true});
    const GreedyOptions record{.record_residuals = true};
    for (UserId user = 0; user < static_cast<UserId>(instance.num_users()); ++user) {
      const auto full = solve_greedy_without(view, main, user, record);
      const auto copied = reference::solve_greedy_scan(instance.without_user(user));
      test::expect_identical_greedy(as_result(view, full), copied, [user](UserId reduced) {
        return reduced >= user ? reduced + 1 : reduced;
      });
      const auto stopped = solve_greedy_without(view, main, user, record,
                                                /*stop_once_covered=*/true);
      EXPECT_EQ(stopped.feasible, full.feasible) << "user " << user;
      EXPECT_EQ(stopped.prefix.size(), full.prefix.size()) << "user " << user;
      ASSERT_LE(stopped.suffix.size(), full.suffix.size()) << "user " << user;
      for (std::size_t s = 0; s < stopped.suffix.size(); ++s) {
        EXPECT_EQ(stopped.suffix[s].selected, full.suffix[s].selected) << "user " << user;
        EXPECT_EQ(stopped.suffix[s].ratio, full.suffix[s].ratio) << "user " << user;
        EXPECT_EQ(stopped.suffix[s].residual_before, full.suffix[s].residual_before)
            << "user " << user;
      }
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

/// The critical bid `compute` returns, or nullopt when it rejects the user
/// with a PreconditionError.
template <typename Compute>
std::optional<double> critical_or_rejected(Compute compute) {
  try {
    return compute();
  } catch (const common::PreconditionError&) {
    return std::nullopt;
  }
}

// Critical bids taken from one recorded main run (the mechanism's path) on
// knife-edge and duplicated instances equal the reference's copied
// re-solves bit for bit: the binary search for every winner (pivotal ones,
// the round-0 pick and the last pick among them) and the paper rule for
// every user, winners and losers alike, on infeasible instances too.
TEST(ResumedCriticalBids, KnifeEdgeAndTiedInstancesMatchReference) {
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  std::size_t pivotal = 0;
  std::size_t non_pivotal = 0;
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    for (const auto& instance :
         {knife_edge_instance(seed), duplicated(tie_heavy_instance(seed)),
          duplicated(test::random_multi_task(6, 3, 0.5, seed))}) {
      const auto view = MultiTaskView::from_instance(instance);
      // keep_partial keeps a stalled main run's steps, as the standalone
      // critical_contribution records it.
      const auto main = record_greedy(view, GreedyOptions{.keep_partial = true});
      for (UserId user = 0; user < static_cast<UserId>(instance.num_users()); ++user) {
        EXPECT_EQ(critical_contribution(view, main, user,
                                        {.rule = CriticalBidRule::kPaperIterationMin}),
                  reference::critical_contribution(instance, user,
                                                   CriticalBidRule::kPaperIterationMin))
            << "seed " << seed << " user " << user;
      }
      if (!main.result.allocation.feasible) {
        ++infeasible;
        continue;
      }
      ++feasible;
      for (const UserId winner : main.result.allocation.winners) {
        // On a knife edge the q → PoS → q round trip of a winner's own
        // declaration can lose her the cover; both sides then reject her.
        EXPECT_EQ(critical_or_rejected([&] { return critical_contribution(view, main, winner); }),
                  critical_or_rejected([&] {
                    return reference::critical_contribution(instance, winner,
                                                            CriticalBidRule::kBinarySearch);
                  }))
            << "seed " << seed << " winner " << winner;
        const bool alone = reference::solve_greedy_scan(instance.without_user(winner))
                               .allocation.feasible;
        ++(alone ? non_pivotal : pivotal);
      }
    }
  }
  // The sweep must reach every regime it exists for.
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(infeasible, 0u);
  EXPECT_GT(pivotal, 0u);
  EXPECT_GT(non_pivotal, 0u);
}

// 100 seeds × 3 instance families = 300 instances through the greedy-layer
// equivalences; the reward-layer equivalence re-solves the cover thousands
// of times per instance, so it sweeps a smaller range.
INSTANTIATE_TEST_SUITE_P(Seeds, LazyEquivalence, ::testing::Range<std::uint64_t>(0, 100));
INSTANTIATE_TEST_SUITE_P(Seeds, RewardEquivalence, ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace mcs::auction::multi_task
