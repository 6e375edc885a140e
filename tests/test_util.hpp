// Shared helpers for the test suites: deterministic random auction instances
// and tiny brute-force reference solvers used to validate the optimized
// algorithms on every instance small enough to enumerate.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "auction/coverage.hpp"
#include "auction/instance.hpp"
#include "auction/multi_task/greedy.hpp"
#include "auction/types.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"

namespace mcs::test {

/// Random single-task instance: n users, costs in [1, 10], PoS in [0.05,
/// pos_hi], requirement `t`.
inline auction::SingleTaskInstance random_single_task(std::size_t n, double t,
                                                      std::uint64_t seed,
                                                      double pos_hi = 0.5) {
  common::Rng rng(seed);
  auction::SingleTaskInstance instance;
  instance.requirement_pos = t;
  instance.bids.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    instance.bids.push_back({rng.uniform(1.0, 10.0), rng.uniform(0.05, pos_hi)});
  }
  return instance;
}

/// Random multi-task single-minded instance: n users over t tasks, each user
/// demanding 1..max_set tasks with PoS in [0.05, pos_hi].
inline auction::MultiTaskInstance random_multi_task(std::size_t n, std::size_t t,
                                                    double requirement, std::uint64_t seed,
                                                    std::size_t max_set = 5,
                                                    double pos_hi = 0.5) {
  common::Rng rng(seed);
  auction::MultiTaskInstance instance;
  instance.requirement_pos.assign(t, requirement);
  instance.users.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auction::MultiTaskUserBid bid;
    bid.cost = rng.uniform(1.0, 10.0);
    const auto size = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(std::min(max_set, t))));
    std::vector<bool> chosen(t, false);
    for (std::size_t k = 0; k < size; ++k) {
      chosen[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(t) - 1))] =
          true;
    }
    for (std::size_t j = 0; j < t; ++j) {
      if (chosen[j]) {
        bid.tasks.push_back(static_cast<auction::TaskIndex>(j));
        bid.pos.push_back(rng.uniform(0.05, pos_hi));
      }
    }
    instance.users.push_back(std::move(bid));
  }
  return instance;
}

/// Exhaustive minimum-cost covering subset of a single-task instance, or
/// nullopt when infeasible, under the solvers' exact coverage predicate
/// (auction/coverage.hpp). O(2^n); keep n <= ~16.
inline std::optional<std::vector<auction::UserId>> brute_force(
    const auction::SingleTaskInstance& instance) {
  namespace coverage = auction::coverage;
  const auto n = instance.num_users();
  const coverage::Amount threshold = coverage::threshold(instance.requirement_contribution());
  double best_cost = std::numeric_limits<double>::infinity();
  std::optional<std::vector<auction::UserId>> best;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    double cost = 0.0;
    coverage::Amount contribution = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (mask & (1u << k)) {
        cost += instance.bids[k].cost;
        contribution = coverage::add(
            contribution,
            coverage::quantize(instance.contribution(static_cast<auction::UserId>(k))));
      }
    }
    if (contribution >= threshold && cost < best_cost) {
      best_cost = cost;
      std::vector<auction::UserId> set;
      for (std::size_t k = 0; k < n; ++k) {
        if (mask & (1u << k)) {
          set.push_back(static_cast<auction::UserId>(k));
        }
      }
      best = std::move(set);
    }
  }
  return best;
}

/// Exhaustive minimum-cost covering subset of a multi-task instance, or
/// nullopt when infeasible. O(2^n · t); keep n <= ~16.
inline std::optional<std::vector<auction::UserId>> brute_force(
    const auction::MultiTaskInstance& instance) {
  const auto n = instance.num_users();
  double best_cost = std::numeric_limits<double>::infinity();
  std::optional<std::vector<auction::UserId>> best;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<auction::UserId> set;
    for (std::size_t k = 0; k < n; ++k) {
      if (mask & (1u << k)) {
        set.push_back(static_cast<auction::UserId>(k));
      }
    }
    if (!instance.covers(set)) {
      continue;
    }
    const double cost = instance.cost_of(set);
    if (cost < best_cost) {
      best_cost = cost;
      best = std::move(set);
    }
  }
  return best;
}

/// Asserts two greedy runs are BIT-identical: same winners, same step order,
/// same tie-breaks, and exact (==, not near) doubles. `map_id` translates
/// `b`'s user ids into `a`'s space (identity by default; used when `b` ran on
/// a without_user copy whose ids above the removed user shifted down).
template <typename MapId>
inline void expect_identical_greedy(const auction::multi_task::GreedyResult& a,
                                    const auction::multi_task::GreedyResult& b, MapId map_id) {
  ASSERT_EQ(a.allocation.feasible, b.allocation.feasible);
  ASSERT_EQ(a.allocation.winners.size(), b.allocation.winners.size());
  for (std::size_t k = 0; k < a.allocation.winners.size(); ++k) {
    EXPECT_EQ(a.allocation.winners[k], map_id(b.allocation.winners[k])) << "winner slot " << k;
  }
  EXPECT_EQ(a.allocation.total_cost, b.allocation.total_cost);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t s = 0; s < a.steps.size(); ++s) {
    EXPECT_EQ(a.steps[s].selected, map_id(b.steps[s].selected)) << "step " << s;
    EXPECT_EQ(a.steps[s].effective_contribution, b.steps[s].effective_contribution)
        << "step " << s;
    EXPECT_EQ(a.steps[s].ratio, b.steps[s].ratio) << "step " << s;
  }
  EXPECT_EQ(a.uncovered_tasks, b.uncovered_tasks);
  EXPECT_EQ(a.timed_out, b.timed_out);
}

inline void expect_identical_greedy(const auction::multi_task::GreedyResult& a,
                                    const auction::multi_task::GreedyResult& b) {
  expect_identical_greedy(a, b, [](auction::UserId id) { return id; });
}

/// Asserts two mechanism outcomes are bit-identical, rewards included.
inline void expect_identical_outcome(const auction::MechanismOutcome& a,
                                     const auction::MechanismOutcome& b) {
  ASSERT_EQ(a.allocation.feasible, b.allocation.feasible);
  EXPECT_EQ(a.allocation.winners, b.allocation.winners);
  EXPECT_EQ(a.allocation.total_cost, b.allocation.total_cost);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.uncovered_tasks, b.uncovered_tasks);
  ASSERT_EQ(a.rewards.size(), b.rewards.size());
  for (std::size_t k = 0; k < a.rewards.size(); ++k) {
    EXPECT_EQ(a.rewards[k].user, b.rewards[k].user) << "reward slot " << k;
    EXPECT_EQ(a.rewards[k].critical_contribution, b.rewards[k].critical_contribution)
        << "reward slot " << k;
    EXPECT_EQ(a.rewards[k].reward.critical_pos, b.rewards[k].reward.critical_pos)
        << "reward slot " << k;
    EXPECT_EQ(a.rewards[k].reward.cost, b.rewards[k].reward.cost) << "reward slot " << k;
    EXPECT_EQ(a.rewards[k].reward.alpha, b.rewards[k].reward.alpha) << "reward slot " << k;
  }
}

}  // namespace mcs::test
