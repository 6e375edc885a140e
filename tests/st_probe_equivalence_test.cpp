// Differential pin for the single-task critical-bid fast path
// (ProbeStrategy::kDpReuse): across hundreds of randomized instances —
// varied cost/PoS shapes, both winner rules, an ε grid — the reused-DP
// probe answers must reproduce the full-solve oracle BIT-identically:
// same winners, same critical contributions, same rewards, as exact
// double equality, not tolerances. Any divergence prints the (shape,
// seed, epsilon, rule) tuple needed to replay it. The knife-edge cases at
// the end place coverage sums within a few fixed-point units of the
// integer threshold (auction/coverage.hpp), where a solver that summed or
// compared differently from the others would show; they also pin the
// predicate itself.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "auction/single_task/fptas.hpp"
#include "auction/single_task/mechanism.hpp"
#include "auction/single_task/min_greedy.hpp"
#include "auction/single_task/reward.hpp"
#include "bench_shapes.hpp"
#include "common/distributions.hpp"
#include "common/rng.hpp"
#include "obs/telemetry.hpp"
#include "test_util.hpp"

namespace mcs::auction::single_task {
namespace {

constexpr std::size_t kShapes = 5;

const char* shape_name(std::size_t shape) {
  switch (shape) {
    case 0: return "uniform";
    case 1: return "high-pos";
    case 2: return "tie-heavy";
    case 3: return "bimodal-cost";
    default: return "knife-edge";
  }
}

// One instance per (shape, seed): five qualitatively different cost/PoS
// landscapes so the differential sweep exercises scaled-cost ties, capped
// contributions, near-infeasible requirements, and plain random mixes.
SingleTaskInstance make_instance(std::size_t shape, std::uint64_t seed) {
  switch (shape) {
    case 0:
      return test::random_single_task(9, 0.8, seed);
    case 1:
      // Large contributions (PoS up to 0.97): single users can cover the
      // requirement alone and the DP cap at the requirement is hit often.
      return test::random_single_task(8, 0.9, seed, /*pos_hi=*/0.97);
    case 2: {
      // Tie-heavy: few distinct costs and PoS values, so the (cost, id)
      // sort, the scaled costs, and the scaled-value argmin all tie; the
      // fast path must reproduce every order-dependent tie-break (or
      // detect the ambiguity and re-solve).
      common::Rng rng(seed * 2654435761ULL + 17);
      SingleTaskInstance instance;
      instance.requirement_pos = 0.85;
      for (std::size_t k = 0; k < 10; ++k) {
        const double cost = 1.0 + static_cast<double>(rng.uniform_int(0, 2));
        const double pos = 0.1 + 0.15 * static_cast<double>(rng.uniform_int(0, 2));
        instance.bids.push_back({cost, pos});
      }
      return instance;
    }
    case 3: {
      // Bimodal costs: a cheap dense cluster plus expensive outliers, so
      // μ_k varies a lot across subproblems and the winner's sorted slot
      // lands at both extremes.
      common::Rng rng(seed * 1099511628211ULL + 3);
      SingleTaskInstance instance;
      instance.requirement_pos = 0.75;
      for (std::size_t k = 0; k < 9; ++k) {
        const bool cheap = rng.uniform(0.0, 1.0) < 0.5;
        instance.bids.push_back(
            {cheap ? rng.uniform(0.5, 1.5) : rng.uniform(20.0, 40.0), rng.uniform(0.05, 0.4)});
      }
      return instance;
    }
    default: {
      // Knife-edge: requirement close to the full set's coverage, so
      // probes sit near the feasibility boundary.
      auto instance = test::random_single_task(8, 0.5, seed ^ 0x9e3779b97f4a7c15ULL);
      double total = 0.0;
      for (const auto& bid : instance.bids) {
        total += common::contribution_from_pos(bid.pos);
      }
      instance.requirement_pos = common::pos_from_contribution(total * 0.93);
      return instance;
    }
  }
}

class ProbeEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProbeEquivalence, FastPathMatchesOracleBitIdentically) {
  // 5 shapes x 16 seeds per shard x 5 shards = 400 differential instances.
  const std::uint64_t shard = GetParam();
  for (std::size_t shape = 0; shape < kShapes; ++shape) {
    for (std::uint64_t local = 0; local < 16; ++local) {
      const std::uint64_t seed = shard * 16 + local;
      const auto instance = make_instance(shape, seed);
      for (const WinnerRule rule : {WinnerRule::kFptas, WinnerRule::kMinGreedy}) {
        for (const double epsilon : {0.5, 0.12}) {
          SCOPED_TRACE(std::string("shape=") + shape_name(shape) + " seed=" +
                       std::to_string(seed) + " epsilon=" + std::to_string(epsilon) + " rule=" +
                       (rule == WinnerRule::kFptas ? "fptas" : "min-greedy"));
          const auto allocation = rule == WinnerRule::kFptas
                                      ? solve_fptas(instance, epsilon)
                                      : solve_min_greedy(instance);
          if (!allocation.feasible) {
            continue;
          }
          RewardOptions fast{.alpha = 10.0,
                             .epsilon = epsilon,
                             .winner_rule = rule,
                             .probe_strategy = ProbeStrategy::kDpReuse};
          RewardOptions oracle = fast;
          oracle.probe_strategy = ProbeStrategy::kFullSolve;
          for (const UserId winner : allocation.winners) {
            obs::PhaseCounters fast_counters;
            obs::PhaseCounters oracle_counters;
            fast.counters = &fast_counters;
            oracle.counters = &oracle_counters;
            // One compute_reward per strategy: it runs the critical-bid
            // search once, and every assertion below reads that call.
            const auto fast_reward = compute_reward(instance, winner, fast);
            const auto oracle_reward = compute_reward(instance, winner, oracle);
            EXPECT_EQ(fast_reward.critical_contribution, oracle_reward.critical_contribution)
                << "winner " << winner;
            EXPECT_EQ(fast_reward.reward.critical_pos, oracle_reward.reward.critical_pos)
                << "winner " << winner;
            // Accounting invariant of the fast path: every probe is either
            // answered from the reused frontiers or by a counted fallback.
            if (rule == WinnerRule::kFptas) {
              EXPECT_EQ(fast_counters.dp_reuse_hits + fast_counters.dp_reuse_fallbacks,
                        fast_counters.probes)
                  << "winner " << winner;
            } else {
              EXPECT_EQ(fast_counters.dp_reuse_hits + fast_counters.dp_reuse_fallbacks, 0u)
                  << "winner " << winner;
            }
            EXPECT_EQ(oracle_counters.dp_reuse_hits + oracle_counters.dp_reuse_fallbacks, 0u)
                << "winner " << winner;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ProbeEquivalence, ::testing::Range<std::uint64_t>(0, 5));

// ---- Differential at scale ------------------------------------------------
//
// The instances above have n <= 12. The shapes below reach n = 60, where
// covers hold a handful of users out of dozens (Table II shape), many
// users (many cheap low-PoS users), or free items (zero scaled costs).

/// Every winner's critical contribution and reward, fast path against the
/// full-solve oracle, as exact doubles.
void expect_rewards_match_oracle(const SingleTaskInstance& instance, double epsilon,
                                 const std::string& label) {
  SCOPED_TRACE(label + " epsilon=" + std::to_string(epsilon));
  const auto allocation = solve_fptas(instance, epsilon);
  ASSERT_TRUE(allocation.feasible);
  RewardOptions fast{.alpha = 10.0, .epsilon = epsilon};
  RewardOptions oracle = fast;
  oracle.probe_strategy = ProbeStrategy::kFullSolve;
  for (const UserId winner : allocation.winners) {
    obs::PhaseCounters counters;
    fast.counters = &counters;
    const auto fast_reward = compute_reward(instance, winner, fast);
    const auto oracle_reward = compute_reward(instance, winner, oracle);
    EXPECT_EQ(fast_reward.critical_contribution, oracle_reward.critical_contribution)
        << "winner " << winner;
    EXPECT_EQ(fast_reward.reward.critical_pos, oracle_reward.reward.critical_pos)
        << "winner " << winner;
    EXPECT_EQ(fast_reward.reward.on_success(), oracle_reward.reward.on_success())
        << "winner " << winner;
    EXPECT_EQ(fast_reward.reward.on_failure(), oracle_reward.reward.on_failure())
        << "winner " << winner;
    EXPECT_EQ(counters.dp_reuse_hits + counters.dp_reuse_fallbacks, counters.probes)
        << "winner " << winner;
  }
}

TEST(ProbeEquivalenceAtScale, TableTwoShapeMatchesOracle) {
  for (const std::size_t n : {40, 60}) {
    for (const double epsilon : {0.1, 0.5}) {
      expect_rewards_match_oracle(bench_shapes::single_task_scaling_instance(n, 7 + n), epsilon,
                                  "table-ii n=" + std::to_string(n));
    }
  }
}

TEST(ProbeEquivalenceAtScale, ManyCheapUsersMatchOracle) {
  // PoS 0.02-0.06 against a 0.6 requirement: a cover needs ~23 of the 36
  // users.
  common::Rng rng(4242);
  SingleTaskInstance instance;
  instance.requirement_pos = 0.6;
  for (std::size_t k = 0; k < 36; ++k) {
    instance.bids.push_back({common::sample_truncated_normal(rng, 15.0, 2.24, 0.5, 40.0),
                             rng.uniform(0.02, 0.06)});
  }
  for (const double epsilon : {0.1, 0.5}) {
    expect_rewards_match_oracle(instance, epsilon, "many-cheap");
  }
}

TEST(ProbeEquivalenceAtScale, ZeroScaledCostsMatchOracle) {
  // Three near-free users among Table II costs: floor(c_j / mu_k) is 0 in
  // the larger subproblems, so covers of equal scaled cost abound.
  auto instance = bench_shapes::single_task_scaling_instance(40, 99);
  for (std::size_t k = 0; k < 3; ++k) {
    instance.bids[5 * k + 1].cost = 0.01;
  }
  for (const double epsilon : {0.1, 0.5}) {
    expect_rewards_match_oracle(instance, epsilon, "zero-scaled-cost");
  }
}

TEST(ProbeEquivalence, EndToEndMechanismOutcomesAreBitIdentical) {
  // The same differential at the mechanism facade level: the full outcome
  // (winners, every reward field, degradation flags) of a default-config
  // run must equal a kFullSolve run, with parallel rewards on.
  for (std::uint64_t seed = 500; seed < 520; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto instance = test::random_single_task(12, 0.85, seed, /*pos_hi=*/0.6);
    auction::MechanismConfig fast_config;
    fast_config.single_task.epsilon = 0.4;
    auction::MechanismConfig oracle_config = fast_config;
    oracle_config.single_task.probe_strategy = ProbeStrategy::kFullSolve;
    test::expect_identical_outcome(run_mechanism(instance, fast_config),
                                   run_mechanism(instance, oracle_config));
  }
}

TEST(ProbeEquivalence, FrontierOnlyPathYieldsIdenticalFrontierEntries) {
  // The probe context consumes frontiers through min_knapsack_frontier,
  // which under DpKernel::kColumns skips parent bookkeeping entirely (no
  // reconstruction is ever requested on that path). Skipping the side pool
  // must not perturb a single surviving state: on the same item lists the
  // differential suites probe with, every frontier entry — scaled cost AND
  // capped contribution — must equal the scalar oracle's.
  for (std::size_t shape = 0; shape < kShapes; ++shape) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      SCOPED_TRACE(std::string("shape=") + shape_name(shape) + " seed=" + std::to_string(seed));
      const auto instance = make_instance(shape, seed);
      for (const double mu : {0.05, 0.4}) {
        std::vector<KnapsackItem> items;
        items.reserve(instance.bids.size());
        for (const auto& bid : instance.bids) {
          items.push_back({coverage::quantize(common::contribution_from_pos(bid.pos)),
                           static_cast<std::int64_t>(bid.cost / mu)});
        }
        const coverage::Amount requirement =
            coverage::threshold(instance.requirement_contribution());
        const auto columns =
            min_knapsack_frontier(items, requirement, {}, DpKernel::kColumns);
        const auto oracle =
            min_knapsack_frontier(items, requirement, {}, DpKernel::kScalarOracle);
        ASSERT_EQ(columns.size(), oracle.size()) << "mu=" << mu;
        for (std::size_t k = 0; k < columns.size(); ++k) {
          EXPECT_EQ(columns[k].scaled_cost, oracle[k].scaled_cost) << "mu=" << mu << " entry " << k;
          EXPECT_EQ(columns[k].contribution, oracle[k].contribution)
              << "mu=" << mu << " entry " << k;
        }
      }
    }
  }
}

TEST(ProbeEquivalence, FastPathIsDeterministicAcrossRepeatsAndTelemetry) {
  // Same config, same instance => same outcome, telemetry on or off (the
  // obs determinism contract extended to the fast path's fallback pattern).
  const auto instance = test::random_single_task(12, 0.8, 77);
  auction::MechanismConfig config;
  const auto baseline = run_mechanism(instance, config);
  test::expect_identical_outcome(baseline, run_mechanism(instance, config));
  const obs::ScopedTelemetry scope(true);
  test::expect_identical_outcome(baseline, run_mechanism(instance, config));
}

// ---- Knife-edge coverage -------------------------------------------------
//
// Every single-task solver decides coverage with one integer predicate,
// Σ quantize(q_i) >= threshold(Q) (auction/coverage.hpp). The cases below put
// sums exactly at, just below and just above the threshold, declare PoS 1,
// force exact scaled-cost ties and sit on exact-math boundaries; the default
// configuration, full-solve probes, and full-solve probes on the scalar DP
// kernel (the benchmark's oracle pair) must still agree bit for bit.

using coverage::Amount;

/// Runs the three configurations and asserts identical outcomes; returns the
/// default configuration's reward counters.
obs::PhaseCounters expect_configs_agree(const SingleTaskInstance& instance, double epsilon,
                                        const std::string& label) {
  SCOPED_TRACE(label + " epsilon=" + std::to_string(epsilon));
  auction::MechanismConfig fast;
  fast.single_task.epsilon = epsilon;
  auction::MechanismConfig full = fast;
  full.single_task.probe_strategy = ProbeStrategy::kFullSolve;
  auction::MechanismConfig scalar = full;
  scalar.single_task.dp_kernel = DpKernel::kScalarOracle;
  const obs::ScopedTelemetry telemetry(true);
  const auto outcome = run_mechanism(instance, fast);
  test::expect_identical_outcome(outcome, run_mechanism(instance, full));
  test::expect_identical_outcome(outcome, run_mechanism(instance, scalar));
  const obs::PhaseCounters& counters = outcome.telemetry.rewards;
  EXPECT_EQ(counters.dp_reuse_hits + counters.dp_reuse_fallbacks, counters.probes);
  return counters;
}

/// The smallest requirement PoS whose integer threshold reaches `target`
/// (bisection over the PoS doubles). Near the PoS values used here one ulp
/// moves the threshold by far less than a unit, so it lands on `target`.
double requirement_for_threshold(Amount target) {
  double lo = 0.0;
  double hi = 1.0;
  for (double mid = 0.5; mid > lo && mid < hi; mid = lo + 0.5 * (hi - lo)) {
    if (coverage::threshold(common::contribution_from_pos(mid)) >= target) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

TEST(KnifeEdgeCoverage, SumsWithinUnitsOfTheThresholdAgreeAcrossConfigs) {
  // Thresholds at a subset's exact sum and n units either side, for the
  // three lowest ids (a cover the DP must find or reject) and for everyone
  // (the feasibility check itself).
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto instance = test::random_single_task(9, 0.5, 900 + seed, /*pos_hi=*/0.4);
    const auto columns = instance.make_columns();
    const std::vector<UserId> first_three = {0, 1, 2};
    Amount three = 0;
    Amount everyone = 0;
    for (std::size_t k = 0; k < columns.size(); ++k) {
      everyone = coverage::add(everyone, columns.amount[k]);
      three = k < 3 ? coverage::add(three, columns.amount[k]) : three;
    }
    const auto n = static_cast<Amount>(instance.num_users());
    for (const Amount base : {three, everyone}) {
      for (const Amount delta : {-n, Amount{-1}, Amount{0}, Amount{1}, n}) {
        const std::string label = "seed=" + std::to_string(seed) +
                                  (base == three ? " first-three" : " everyone") +
                                  " delta=" + std::to_string(delta);
        instance.requirement_pos = requirement_for_threshold(base + delta);
        ASSERT_EQ(coverage::threshold(instance.requirement_contribution()), base + delta)
            << label;
        if (base == three) {
          EXPECT_EQ(instance.covers(first_three), delta <= 0) << label;
        } else {
          EXPECT_EQ(instance.is_feasible(), delta <= 0) << label;
        }
        for (const double epsilon : {0.1, 0.5}) {
          expect_configs_agree(instance, epsilon, label);
        }
      }
    }
  }
}

TEST(KnifeEdgeCoverage, CertainUsersAgreeAcrossConfigs) {
  // A declared PoS of 1 quantizes to the saturated amount: it covers alone,
  // and its critical-bid search bisects over an infinite declaration.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto instance = test::random_single_task(8, 0.9, 950 + seed);
    instance.bids[seed % 8].pos = 1.0;
    if (seed % 2 == 1) {
      instance.bids[(seed + 3) % 8].pos = 1.0;
    }
    ASSERT_TRUE(instance.is_feasible());
    for (const double epsilon : {0.1, 0.5}) {
      expect_configs_agree(instance, epsilon, "certain seed=" + std::to_string(seed));
    }
  }
}

TEST(KnifeEdgeCoverage, ScaledCostTiesReSolveAndAgree) {
  // Equal costs and PoS: any two users cover, one does not, so a winner's
  // with- and without-winner covers tie and only the oracle DP's state
  // order decides membership. The fast path must re-solve those ties — and
  // nothing else.
  obs::PhaseCounters total;
  for (const std::size_t n : {4, 6, 9}) {
    SingleTaskInstance instance;
    instance.requirement_pos = 0.7;
    for (std::size_t k = 0; k < n; ++k) {
      instance.bids.push_back({1.0 + static_cast<double>(k % 2), 0.5});
    }
    for (const double epsilon : {0.1, 0.5}) {
      total += expect_configs_agree(instance, epsilon, "ties n=" + std::to_string(n));
    }
  }
  EXPECT_GT(total.dp_reuse_exact_solves, 0u);
  EXPECT_LE(total.dp_reuse_exact_solves, total.dp_reuse_fallbacks);
}

TEST(KnifeEdgeCoverage, ExactMathBoundaryStaysCovered) {
  // Two PoS-0.5 users meet a 0.75 requirement exactly in real arithmetic;
  // the threshold's tolerance keeps them a cover under the floors.
  SingleTaskInstance instance;
  instance.requirement_pos = 0.75;
  instance.bids = {{2.0, 0.5}, {3.0, 0.5}, {4.0, 0.3}, {9.0, 0.7}};
  EXPECT_TRUE(instance.covers({0, 1}));
  EXPECT_FALSE(instance.covers({0, 2}));
  EXPECT_FALSE(instance.covers({3}));
  EXPECT_EQ(solve_fptas(instance, 0.1).winners, (std::vector<UserId>{0, 1}));
  EXPECT_EQ(solve_min_greedy(instance).winners, (std::vector<UserId>{0, 1}));
  for (const double epsilon : {0.1, 0.5}) {
    expect_configs_agree(instance, epsilon, "exact-math boundary");
  }
}

TEST(CoveragePredicate, QuantizationIsMonotoneAndSaturates) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  common::Rng rng(31);
  for (int k = 0; k < 2000; ++k) {
    const double a = rng.uniform(0.0, 40.0);
    const double b = rng.uniform(0.0, 40.0);
    EXPECT_LE(coverage::quantize(std::min(a, b)), coverage::quantize(std::max(a, b)));
    EXPECT_LE(coverage::quantize(a), coverage::quantize(std::nextafter(a, kInf)));
  }
  EXPECT_EQ(coverage::quantize(0.0), 0);
  EXPECT_EQ(coverage::quantize(1.0), Amount{1} << coverage::kFractionBits);
  EXPECT_EQ(coverage::quantize(kInf), coverage::kSaturated);
  EXPECT_EQ(coverage::quantize(1e300), coverage::kSaturated);
  EXPECT_EQ(coverage::quantize(common::contribution_from_pos(1.0)), coverage::kSaturated);

  EXPECT_EQ(coverage::add(coverage::kSaturated, coverage::kSaturated), coverage::kSaturated);
  EXPECT_EQ(coverage::add(coverage::kSaturated - 1, 2), coverage::kSaturated);
  for (int k = 0; k < 2000; ++k) {
    // Operands up to half the saturation value, so some sums saturate.
    const auto draw = [&] { return rng.uniform_int(0, coverage::kSaturated / 2); };
    const Amount a = draw();
    const Amount b = draw();
    const Amount c = draw();
    EXPECT_EQ(coverage::add(coverage::add(a, b), c), coverage::add(a, coverage::add(b, c)));
  }

  // A positive requirement always needs a positive contribution.
  EXPECT_EQ(coverage::threshold(1e-12), 1);
  EXPECT_EQ(coverage::threshold(kInf), coverage::kSaturated);
}

TEST(CoveragePredicate, MatchesToleranceAwayFromTheEdge) {
  // Farther than a few units from the tolerance edge, the integer predicate
  // equals approx_ge on the id-order double sum: the threshold applies the
  // same 1e-9 relative tolerance once.
  std::size_t covered = 0;
  std::size_t short_of = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    common::Rng rng(seed + 7000);
    const auto instance = test::random_single_task(
        10, 0.3 + 0.1 * static_cast<double>(seed % 7), seed + 7100, /*pos_hi=*/0.6);
    const double requirement = instance.requirement_contribution();
    const double edge = requirement - common::kDefaultEps * std::max(1.0, requirement);
    for (int draw = 0; draw < 40; ++draw) {
      std::vector<UserId> users;
      double sum = 0.0;
      for (std::size_t k = 0; k < instance.num_users(); ++k) {
        if (rng.uniform(0.0, 1.0) < 0.5) {
          users.push_back(static_cast<UserId>(k));
          sum += instance.contribution(static_cast<UserId>(k));
        }
      }
      if (std::abs(sum - edge) < 1e-9) {
        continue;  // the edge band, where the floors may decide differently
      }
      const bool expected = common::approx_ge(sum, requirement);
      EXPECT_EQ(instance.covers(users), expected) << "seed=" << seed << " draw=" << draw;
      ++(expected ? covered : short_of);
    }
  }
  EXPECT_GT(covered, 100u);
  EXPECT_GT(short_of, 100u);
}

}  // namespace
}  // namespace mcs::auction::single_task
