// Unit and property tests for the multi-task reward scheme: Algorithm 5's
// iteration-minimum critical bid (paper-literal rule), the binary-search
// critical bid this library defaults to, the pivotal-user rule, individual
// rationality, and empirical strategy-proofness (Theorem 4). Includes a
// regression test documenting the reproduction finding that the paper's rule
// understates the win threshold (see reward.hpp).
#include "auction/multi_task/reward.hpp"

#include <gtest/gtest.h>

#include "auction/multi_task/greedy.hpp"
#include "common/check.hpp"
#include "common/math.hpp"
#include "test_util.hpp"

namespace mcs::auction::multi_task {
namespace {

constexpr RewardOptions kPaperRule{.alpha = 10.0, .rule = CriticalBidRule::kPaperIterationMin};
constexpr RewardOptions kSearchRule{.alpha = 10.0, .rule = CriticalBidRule::kBinarySearch};

TEST(MtCriticalBid, PaperRuleMatchesHandComputation) {
  // One task, requirement q(0.6). Without user 0, greedy selects user 1
  // (ratio q(0.5)/2) in iteration one, then user 2; the per-iteration
  // candidates for user 0 (cost 1) are (1/c_k)·effective_k and Algorithm 5
  // takes their minimum.
  MultiTaskInstance instance;
  instance.requirement_pos = {0.6};
  instance.users = {
      {{0}, {0.55}, 1.0},
      {{0}, {0.5}, 2.0},
      {{0}, {0.5}, 2.5},
  };
  const double q_bar = critical_contribution(instance, 0, kPaperRule);

  const double big_q = common::contribution_from_pos(0.6);
  const double q_half = common::contribution_from_pos(0.5);
  const double candidate_1 = (1.0 / 2.0) * std::min(big_q, q_half);
  const double candidate_2 = (1.0 / 2.5) * std::min(big_q - q_half, q_half);
  EXPECT_NEAR(q_bar, std::min(candidate_1, candidate_2), 1e-12);
}

TEST(MtCriticalBid, BinarySearchFindsTheActualWinThreshold) {
  MultiTaskInstance instance;
  instance.requirement_pos = {0.6};
  instance.users = {
      {{0}, {0.55}, 1.0},
      {{0}, {0.5}, 2.0},
      {{0}, {0.5}, 2.5},
  };
  const double q_bar = critical_contribution(instance, 0, kSearchRule);
  // Just below the threshold user 0 loses; at/above it she wins.
  const auto below = solve_greedy(instance.with_declared_total_contribution(0, q_bar * 0.999));
  EXPECT_FALSE(below.allocation.feasible && below.allocation.contains(0));
  const auto above = solve_greedy(instance.with_declared_total_contribution(0, q_bar * 1.001));
  EXPECT_TRUE(above.allocation.feasible && above.allocation.contains(0));
}

TEST(MtCriticalBid, PivotalUserHasZeroCriticalBidUnderBothRules) {
  MultiTaskInstance instance;
  instance.requirement_pos = {0.5};
  instance.users = {
      {{0}, {0.6}, 2.0},  // pivotal: nobody else can cover
      {{0}, {0.1}, 1.0},
  };
  EXPECT_DOUBLE_EQ(critical_contribution(instance, 0, kPaperRule), 0.0);
  EXPECT_DOUBLE_EQ(critical_contribution(instance, 0, kSearchRule), 0.0);
}

TEST(MtCriticalBid, BinarySearchAtMostDeclaredAndAboveZero) {
  const auto instance = test::random_multi_task(12, 4, 0.5, 9);
  const auto result = solve_greedy(instance);
  ASSERT_TRUE(result.allocation.feasible);
  for (UserId winner : result.allocation.winners) {
    const double q_bar = critical_contribution(instance, winner, kSearchRule);
    EXPECT_GE(q_bar, 0.0);
    EXPECT_LE(q_bar,
              instance.users[static_cast<std::size_t>(winner)].total_contribution() + 1e-9);
  }
}

TEST(MtCriticalBid, RejectsBadUser) {
  const auto instance = test::random_multi_task(5, 2, 0.4, 1);
  EXPECT_THROW(critical_contribution(instance, 99, kPaperRule), common::PreconditionError);
}

TEST(MtReward, FieldsAreConsistent) {
  MultiTaskInstance instance;
  instance.requirement_pos = {0.6};
  instance.users = {
      {{0}, {0.55}, 1.0},
      {{0}, {0.5}, 2.0},
      {{0}, {0.5}, 2.5},
  };
  const auto reward = compute_reward(instance, 0, kSearchRule);
  EXPECT_EQ(reward.user, 0);
  EXPECT_DOUBLE_EQ(reward.reward.cost, 1.0);
  EXPECT_DOUBLE_EQ(reward.reward.alpha, 10.0);
  EXPECT_NEAR(reward.reward.critical_pos,
              common::pos_from_contribution(reward.critical_contribution), 1e-12);
  EXPECT_THROW(compute_reward(instance, 0, RewardOptions{.alpha = 0.0}),
               common::PreconditionError);
}

TEST(MtReward, WinnersAreIndividuallyRationalUnderBothRules) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto instance = test::random_multi_task(12, 4, 0.5, seed);
    const auto result = solve_greedy(instance);
    if (!result.allocation.feasible) {
      continue;
    }
    for (UserId winner : result.allocation.winners) {
      const double true_any =
          instance.users[static_cast<std::size_t>(winner)].any_success_probability();
      for (const auto& options : {kPaperRule, kSearchRule}) {
        const auto reward = compute_reward(instance, winner, options);
        EXPECT_GE(reward.reward.expected_utility(true_any), -1e-6)
            << "seed " << seed << " winner " << winner;
      }
    }
  }
}

/// Sweeps contribution-scaling misreports for every user and returns the
/// largest utility gain over truthful play (positive = manipulation pays).
double best_manipulation_gain(const MultiTaskInstance& instance, const RewardOptions& options) {
  const auto truthful = solve_greedy(instance);
  if (!truthful.allocation.feasible) {
    return 0.0;
  }
  double best_gain = 0.0;
  for (UserId user = 0; user < static_cast<UserId>(instance.num_users()); ++user) {
    const double true_any =
        instance.users[static_cast<std::size_t>(user)].any_success_probability();
    double truthful_utility = 0.0;
    if (truthful.allocation.contains(user)) {
      truthful_utility =
          compute_reward(instance, user, options).reward.expected_utility(true_any);
    }
    const double total = instance.users[static_cast<std::size_t>(user)].total_contribution();
    for (double scale : {0.25, 0.5, 1.5, 2.5, 6.0}) {
      const auto lied = instance.with_declared_total_contribution(user, total * scale);
      const auto allocation = solve_greedy(lied);
      double lied_utility = 0.0;
      if (allocation.allocation.feasible && allocation.allocation.contains(user)) {
        lied_utility = compute_reward(lied, user, options).reward.expected_utility(true_any);
      }
      best_gain = std::max(best_gain, lied_utility - truthful_utility);
    }
  }
  return best_gain;
}

class MultiTaskTruthfulness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiTaskTruthfulness, BinarySearchRuleResistsAllSweptMisreports) {
  const auto instance = test::random_multi_task(10, 4, 0.5, GetParam());
  EXPECT_LE(best_manipulation_gain(instance, kSearchRule), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiTaskTruthfulness, ::testing::Range<std::uint64_t>(700, 715));

TEST(MtRewardFinding, PaperRuleAdmitsProfitableInflation) {
  // Reproduction finding: under the paper-literal Algorithm 5 critical bid, a
  // high-contribution loser profits from inflating her declaration (the
  // without-i run's late iterations understate her real win threshold). The
  // binary-search rule closes the loophole on the same instance. Seed 700 is
  // one of several random instances exhibiting the gap.
  const auto instance = test::random_multi_task(10, 4, 0.5, 700);
  EXPECT_GT(best_manipulation_gain(instance, kPaperRule), 0.1);
  EXPECT_LE(best_manipulation_gain(instance, kSearchRule), 1e-5);
}

}  // namespace
}  // namespace mcs::auction::multi_task
