// End-to-end integration tests: the full pipeline from synthetic city to
// settled auctions, asserting the paper's headline properties on a small
// workload — feasible allocations meet PoS requirements, winners are
// individually rational, and the empirical execution agrees with analytics.
#include <gtest/gtest.h>

#include "auction/single_task/mechanism.hpp"
#include "auction/multi_task/mechanism.hpp"
#include "sim/execution.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"

namespace mcs {
namespace {

class PipelineFixture : public ::testing::Test {
 protected:
  static const sim::Workload& workload() {
    static const sim::Workload instance = [] {
      sim::WorkloadConfig config;
      config.city.num_taxis = 60;
      config.city.num_days = 8;
      config.city.trips_per_day = 20;
      return sim::Workload(config);
    }();
    return instance;
  }
};

TEST_F(PipelineFixture, WorkloadMaterializes) {
  EXPECT_GT(workload().users().size(), 40u);
  EXPECT_GT(workload().dataset().size(), 10000u);
  EXPECT_EQ(workload().fleet().taxis().size(), 60u);
}

TEST_F(PipelineFixture, SingleTaskAuctionEndToEnd) {
  sim::ScenarioParams params;  // T = 0.8
  common::Rng rng(42);
  const auto cells = sim::popular_cells(workload().users());
  ASSERT_FALSE(cells.empty());
  const auto scenario =
      sim::build_single_task(workload().users(), cells.front(), 30, params, rng);
  ASSERT_TRUE(scenario.has_value());
  if (!scenario->instance.is_feasible()) {
    GTEST_SKIP() << "sampled population cannot reach T=0.8";
  }

  const auto outcome = auction::single_task::run_mechanism(
      scenario->instance, {.alpha = 10.0, .single_task = {.epsilon = 0.5}});
  // is_feasible() and the FPTAS decide coverage with the same exact sums.
  ASSERT_TRUE(outcome.allocation.feasible);
  // Requirement met.
  EXPECT_GE(sim::achieved_pos(scenario->instance, outcome.allocation.winners),
            params.pos_requirement - 1e-9);
  // Individual rationality.
  EXPECT_TRUE(sim::individually_rational(
      sim::expected_utilities(scenario->instance, outcome)));
  // Empirical PoS agrees with the analytic value.
  common::Rng sim_rng(43);
  const double empirical =
      sim::empirical_task_pos(scenario->instance, outcome.allocation.winners, 50000, sim_rng);
  EXPECT_NEAR(empirical, sim::achieved_pos(scenario->instance, outcome.allocation.winners),
              0.01);
}

TEST_F(PipelineFixture, MultiTaskAuctionEndToEnd) {
  sim::ScenarioParams params;
  params.pos_requirement = 0.6;
  common::Rng rng(44);
  const auto scenario =
      sim::build_feasible_multi_task(workload().users(), 8, 40, params, rng, 40);
  ASSERT_TRUE(scenario.has_value());

  const auto outcome =
      auction::multi_task::run_mechanism(scenario->instance, {.alpha = 10.0});
  ASSERT_TRUE(outcome.allocation.feasible);
  const auto achieved = sim::achieved_pos(scenario->instance, outcome.allocation.winners);
  for (std::size_t j = 0; j < achieved.size(); ++j) {
    EXPECT_GE(achieved[j], scenario->instance.requirement_pos[j] - 1e-9) << "task " << j;
  }
  EXPECT_TRUE(sim::individually_rational(
      sim::expected_utilities(scenario->instance, outcome)));

  // Settlement: one simulated round pays every winner exactly one branch.
  common::Rng sim_rng(45);
  const auto run = sim::simulate(scenario->instance, outcome.allocation.winners, sim_rng);
  const double payout = sim::settle_payout(outcome, run.winner_any_success);
  double manual = 0.0;
  for (std::size_t k = 0; k < outcome.rewards.size(); ++k) {
    manual += run.winner_any_success[k] ? outcome.rewards[k].reward.on_success()
                                        : outcome.rewards[k].reward.on_failure();
  }
  EXPECT_NEAR(payout, manual, 1e-9);
}

TEST_F(PipelineFixture, DerivedPosProfileMatchesFig4Shape) {
  const auto values = mobility::all_pos_values(workload().users());
  ASSERT_GT(values.size(), 100u);
  std::size_t below_02 = 0;
  for (double v : values) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    below_02 += v <= 0.2 ? 1 : 0;
  }
  // Fig 4: most of the PoS mass sits in [0, 0.2].
  EXPECT_GT(static_cast<double>(below_02) / static_cast<double>(values.size()), 0.7);
}

TEST_F(PipelineFixture, WorkloadIsReproducible) {
  sim::WorkloadConfig config;
  config.city.num_taxis = 20;
  config.city.num_days = 3;
  config.city.trips_per_day = 10;
  const sim::Workload a(config);
  const sim::Workload b(config);
  ASSERT_EQ(a.users().size(), b.users().size());
  for (std::size_t k = 0; k < a.users().size(); ++k) {
    EXPECT_EQ(a.users()[k].taxi, b.users()[k].taxi);
    EXPECT_EQ(a.users()[k].current_cell, b.users()[k].current_cell);
    EXPECT_EQ(a.users()[k].task_pos, b.users()[k].task_pos);
  }
}

}  // namespace
}  // namespace mcs
