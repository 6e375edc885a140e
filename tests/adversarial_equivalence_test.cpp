// Differential coverage on hostile inputs: the attack-harness instance
// generator (tied costs, near-boundary requirements, zero-PoS tails, mixed
// cost magnitudes, DP-noised reports) pushed through the fast≡oracle pairs
// the certified suites pin on benign samplers —
//   single task: (kDpReuse, kColumns)  ≡  (kFullSolve, kScalarOracle)
//   multi task:  lazy heap + masked probes  ≡  reference::run_multi_task_mechanism
//                (full rescan + copied-instance probes, src/reference/)
// Outcomes must be BIT-identical (test::expect_identical_outcome), exactly
// as st_probe_equivalence_test / mt_lazy_equivalence_test assert on their
// own shapes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "auction/multi_task/mechanism.hpp"
#include "auction/single_task/mechanism.hpp"
#include "reference/multi_task.hpp"
#include "sim/adversary.hpp"
#include "test_util.hpp"

namespace mcs {
namespace {

auction::MechanismConfig fast_config() {
  auction::MechanismConfig config;  // the defaults ARE the fast paths
  return config;
}

auction::MechanismConfig oracle_config() {
  auction::MechanismConfig config;
  config.single_task.probe_strategy = auction::ProbeStrategy::kFullSolve;
  config.single_task.dp_kernel = auction::DpKernel::kScalarOracle;
  return config;
}

struct HostileCase {
  sim::HostileShape shape;
  double epsilon;  ///< 0 = raw hostile instance, > 0 = DP-noised reports
};

class AdversarialEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {
 protected:
  static HostileCase hostile_case(int index) {
    const auto shape = sim::kHostileShapes[static_cast<std::size_t>(index) %
                                           sim::kHostileShapes.size()];
    const double epsilon = index < static_cast<int>(sim::kHostileShapes.size()) ? 0.0 : 0.5;
    return {shape, epsilon};
  }
};

TEST_P(AdversarialEquivalence, SingleTaskFastMatchesOracleOnHostileInputs) {
  const auto [seed, index] = GetParam();
  const auto c = hostile_case(index);
  auto instance = sim::hostile_single_task(12, c.shape, seed);
  if (c.epsilon > 0.0) {
    sim::AttackConfig atk;
    atk.seed = seed;
    atk.privacy.epsilon = c.epsilon;
    instance = sim::noised_reports(atk, instance, /*round=*/index);
  }
  const std::string replay = std::string("replay: seed=") + std::to_string(seed) +
                             " shape=" + sim::to_string(c.shape) +
                             " epsilon=" + std::to_string(c.epsilon) + " family=single";
  SCOPED_TRACE(replay);
  const auto fast = auction::single_task::run_mechanism(instance, fast_config());
  const auto oracle = auction::single_task::run_mechanism(instance, oracle_config());
  test::expect_identical_outcome(fast, oracle);
}

TEST_P(AdversarialEquivalence, MultiTaskLazyMatchesReferenceOnHostileInputs) {
  const auto [seed, index] = GetParam();
  const auto c = hostile_case(index);
  auto instance = sim::hostile_multi_task(12, 4, c.shape, seed);
  if (c.epsilon > 0.0) {
    sim::AttackConfig atk;
    atk.seed = seed;
    atk.privacy.epsilon = c.epsilon;
    instance = sim::noised_reports(atk, instance, /*round=*/index);
  }
  const std::string replay = std::string("replay: seed=") + std::to_string(seed) +
                             " shape=" + sim::to_string(c.shape) +
                             " epsilon=" + std::to_string(c.epsilon) + " family=multi";
  SCOPED_TRACE(replay);
  const auto fast = auction::multi_task::run_mechanism(instance, fast_config());
  const auto oracle = reference::run_multi_task_mechanism(instance, fast_config());
  test::expect_identical_outcome(fast, oracle);
}

TEST_P(AdversarialEquivalence, SybilAndShadedInstancesStayBitIdentical) {
  // The collusion probes rerun the mechanisms on split and shaded variants;
  // those derived instances must keep the fast≡oracle pin too.
  const auto [seed, index] = GetParam();
  const auto c = hostile_case(index);
  const auto truth = sim::hostile_single_task(10, c.shape, seed ^ 0x5b11ULL);
  const std::string replay = std::string("replay: seed=") + std::to_string(seed) +
                             " shape=" + sim::to_string(c.shape) + " probe=derived";
  SCOPED_TRACE(replay);

  const auto split = sim::split_identity(truth, 0, 3);
  test::expect_identical_outcome(
      auction::single_task::run_mechanism(split.instance, fast_config()),
      auction::single_task::run_mechanism(split.instance, oracle_config()));

  auto shaded = truth;
  for (auction::UserId member = 0; member < 2; ++member) {
    shaded = shaded.with_declared_contribution(member, 0.5 * truth.contribution(member));
  }
  test::expect_identical_outcome(
      auction::single_task::run_mechanism(shaded, fast_config()),
      auction::single_task::run_mechanism(shaded, oracle_config()));
}

INSTANTIATE_TEST_SUITE_P(
    HostileShapes, AdversarialEquivalence,
    ::testing::Combine(::testing::Range<std::uint64_t>(12000, 12008),
                       ::testing::Range(0, 2 * static_cast<int>(sim::kHostileShapes.size()))));

}  // namespace
}  // namespace mcs
