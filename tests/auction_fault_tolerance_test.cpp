// Fault isolation and graceful degradation: a batch holding a throwing
// instance, a deadline-exceeding instance, and healthy instances must
// complete with the healthy outcomes bit-identical to the strict path and
// the poisoned slots carrying structured statuses; single-task timeouts fall
// back to Min-Greedy when degradation is enabled; infeasible multi-task
// rounds can report partial coverage with the uncovered task set.
//
// The deadline-exceeding instance is sized so its FPTAS run costs well over
// an order of magnitude more than the wall-clock budget on any plausible
// machine (n = 800 at epsilon = 0.05 measures seconds against a 0.25 s
// budget), while the healthy instances finish in microseconds; cooperative
// deadline polling caps the timed-out slot's cost near the budget itself.
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "auction/engine.hpp"
#include "auction/multi_task/mechanism.hpp"
#include "auction/single_task/mechanism.hpp"
#include "auction/single_task/min_greedy.hpp"
#include "common/deadline.hpp"
#include "test_util.hpp"

namespace mcs::auction {
namespace {

void expect_identical(const MechanismOutcome& actual, const MechanismOutcome& expected) {
  ASSERT_EQ(actual.allocation.feasible, expected.allocation.feasible);
  ASSERT_EQ(actual.allocation.winners, expected.allocation.winners);
  EXPECT_EQ(actual.allocation.total_cost, expected.allocation.total_cost);
  EXPECT_EQ(actual.degraded, expected.degraded);
  EXPECT_EQ(actual.uncovered_tasks, expected.uncovered_tasks);
  ASSERT_EQ(actual.rewards.size(), expected.rewards.size());
  for (std::size_t k = 0; k < actual.rewards.size(); ++k) {
    EXPECT_EQ(actual.rewards[k].user, expected.rewards[k].user);
    EXPECT_EQ(actual.rewards[k].critical_contribution,
              expected.rewards[k].critical_contribution);
    EXPECT_EQ(actual.rewards[k].reward.critical_pos, expected.rewards[k].reward.critical_pos);
    EXPECT_EQ(actual.rewards[k].reward.cost, expected.rewards[k].reward.cost);
    EXPECT_EQ(actual.rewards[k].reward.alpha, expected.rewards[k].reward.alpha);
  }
}

SingleTaskInstance throwing_instance() {
  SingleTaskInstance poisoned;
  poisoned.requirement_pos = 0.8;
  poisoned.bids = {{-1.0, 0.3}, {2.0, 0.4}};  // negative cost fails validate()
  return poisoned;
}

SingleTaskInstance slow_instance() { return test::random_single_task(800, 0.9, 7, 0.3); }

TEST(FaultTolerance, MixedBatchIsolatesPoisonedSlots) {
  const MechanismConfig config{.alpha = 10.0,
                               .time_budget_seconds = 0.25,
                               .degrade_on_timeout = false,
                               .single_task = {.epsilon = 0.05}};
  std::vector<AuctionInstance> batch;
  batch.emplace_back(test::random_single_task(12, 0.8, 101));
  batch.emplace_back(throwing_instance());
  batch.emplace_back(test::random_multi_task(14, 4, 0.6, 102));
  batch.emplace_back(slow_instance());
  batch.emplace_back(test::random_single_task(12, 0.8, 103));

  const Engine engine(EngineOptions{.workers = 3});
  const auto slots = engine.run_isolated(batch, config);
  ASSERT_EQ(slots.size(), batch.size());

  EXPECT_EQ(slots[1].status, AuctionStatus::kFailed);
  EXPECT_FALSE(slots[1].ok());
  EXPECT_FALSE(slots[1].error.empty());
  EXPECT_TRUE(slots[1].outcome.allocation.winners.empty());

  EXPECT_EQ(slots[3].status, AuctionStatus::kTimedOut);
  EXPECT_FALSE(slots[3].ok());
  EXPECT_NE(slots[3].error.find("wall-clock budget exhausted"), std::string::npos);
  EXPECT_TRUE(slots[3].outcome.allocation.winners.empty());

  // Healthy slots end kOk and bit-identical to the strict serial path.
  for (std::size_t k : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    ASSERT_EQ(slots[k].status, AuctionStatus::kOk) << "slot " << k;
    EXPECT_TRUE(slots[k].ok());
    EXPECT_TRUE(slots[k].error.empty());
    if (const auto* single = std::get_if<SingleTaskInstance>(&batch[k])) {
      expect_identical(slots[k].outcome, single_task::run_mechanism(*single, config));
    } else {
      expect_identical(slots[k].outcome,
                       multi_task::run_mechanism(std::get<MultiTaskInstance>(batch[k]), config));
    }
  }
}

TEST(FaultTolerance, StrictRunStillRethrowsTheFirstFailureByIndex) {
  std::vector<AuctionInstance> batch;
  batch.emplace_back(test::random_single_task(10, 0.8, 111));
  batch.emplace_back(throwing_instance());
  const Engine engine(EngineOptions{.workers = 2});
  EXPECT_THROW(engine.run(batch), common::PreconditionError);
}

TEST(FaultTolerance, IsolationMatchesAcrossWorkerCounts) {
  const MechanismConfig config{.alpha = 10.0, .single_task = {.epsilon = 0.5}};
  std::vector<AuctionInstance> batch;
  batch.emplace_back(test::random_single_task(12, 0.8, 121));
  batch.emplace_back(throwing_instance());
  batch.emplace_back(test::random_multi_task(12, 4, 0.6, 122));
  const Engine serial(EngineOptions{.workers = 1});
  const auto reference = serial.run_isolated(batch, config);
  for (std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    const Engine engine(EngineOptions{.workers = workers});
    const auto slots = engine.run_isolated(batch, config);
    ASSERT_EQ(slots.size(), reference.size());
    for (std::size_t k = 0; k < slots.size(); ++k) {
      EXPECT_EQ(slots[k].status, reference[k].status);
      EXPECT_EQ(slots[k].error, reference[k].error);
      expect_identical(slots[k].outcome, reference[k].outcome);
    }
  }
}

TEST(FaultTolerance, SingleTaskTimeoutDegradesToMinGreedy) {
  // The FPTAS rung runs full-solve critical-bid probes, so its overrun does
  // not depend on how fast the DP-reuse fast path answers them (the default
  // configuration takes 0.04-0.05 s here and FITS the 0.25 s budget). A
  // Pareto-frontier DP is bounded by its non-dominated states, not by 1/ε,
  // so ε alone cannot force the timeout. Measured unbudgeted on a 4-core
  // host (Release): winner determination 13 ms; the rung 2.2-3.5 s with the
  // default reward workers (9-14x the budget) and 5.0-5.3 s serial; one
  // winner's ~50-probe search alone 0.55-0.71 s (2-3x), the floor on any
  // core count. The instance is kept at n = 200 so the Min-Greedy retry
  // (which honours its own fresh deadline, critical-bid probes included)
  // finishes well inside the budget even under the sanitizer presets.
  const auto instance = test::random_single_task(200, 0.9, 7, 0.3);
  const MechanismConfig config{.alpha = 10.0,
                               .time_budget_seconds = 0.25,
                               .degrade_on_timeout = true,
                               .single_task = {.probe_strategy = ProbeStrategy::kFullSolve}};
  const Engine engine(EngineOptions{.workers = 2});
  const auto slot = engine.run_one_isolated(instance, config);
  ASSERT_EQ(slot.status, AuctionStatus::kDegraded);
  EXPECT_TRUE(slot.ok());
  EXPECT_TRUE(slot.error.empty());
  EXPECT_TRUE(slot.outcome.degraded);
  const auto greedy = single_task::solve_min_greedy(instance);
  ASSERT_TRUE(greedy.feasible);
  EXPECT_EQ(slot.outcome.allocation.winners, greedy.winners);
  EXPECT_EQ(slot.outcome.allocation.total_cost, greedy.total_cost);
  EXPECT_EQ(slot.outcome.rewards.size(), greedy.winners.size());
}

TEST(FaultTolerance, TinyBudgetWithoutDegradationTimesOutDeterministically) {
  const MechanismConfig config{.alpha = 10.0,
                               .time_budget_seconds = 1e-9,
                               .degrade_on_timeout = false,
                               .single_task = {.epsilon = 0.5}};
  const Engine engine(EngineOptions{.workers = 2});
  const auto single = engine.run_one_isolated(test::random_single_task(12, 0.8, 131), config);
  EXPECT_EQ(single.status, AuctionStatus::kTimedOut);
  const auto multi = engine.run_one_isolated(test::random_multi_task(12, 4, 0.6, 132), config);
  EXPECT_EQ(multi.status, AuctionStatus::kTimedOut);
}

TEST(FaultTolerance, PartialCoverageReportsUncoveredTasks) {
  // Task 1 appears in nobody's bid set, so the cover must stall; with
  // partial coverage the winner prefix and the unmet task are reported, and
  // no rewards are paid (a partial cover has no critical bids).
  MultiTaskInstance instance;
  instance.requirement_pos = {0.5, 0.5};
  instance.users.push_back({.tasks = {0}, .pos = {0.8}, .cost = 1.0});
  instance.users.push_back({.tasks = {0}, .pos = {0.3}, .cost = 2.0});

  MechanismConfig config{.alpha = 10.0};
  config.multi_task.partial_coverage = true;
  const Engine engine;
  const auto slot = engine.run_one_isolated(instance, config);
  ASSERT_EQ(slot.status, AuctionStatus::kDegraded);
  EXPECT_TRUE(slot.outcome.degraded);
  EXPECT_FALSE(slot.outcome.allocation.feasible);
  EXPECT_EQ(slot.outcome.allocation.winners, std::vector<UserId>{0});
  EXPECT_EQ(slot.outcome.allocation.total_cost, 1.0);
  EXPECT_EQ(slot.outcome.uncovered_tasks, std::vector<TaskIndex>{1});
  EXPECT_TRUE(slot.outcome.rewards.empty());

  // Default (no partial coverage) keeps the historical all-or-nothing shape.
  const auto strict = multi_task::run_mechanism(instance, MechanismConfig{.alpha = 10.0});
  EXPECT_FALSE(strict.allocation.feasible);
  EXPECT_TRUE(strict.allocation.winners.empty());
  EXPECT_FALSE(strict.degraded);
  EXPECT_TRUE(strict.uncovered_tasks.empty());
}

TEST(FaultTolerance, AstronomicalTimeBudgetsNeverExpire) {
  // A huge "effectively unlimited" budget must not overflow the clock's
  // integer tick count into an already-expired deadline.
  for (double seconds : {1e18, 1e300, std::numeric_limits<double>::infinity()}) {
    const auto deadline = common::Deadline::after(seconds);
    EXPECT_FALSE(deadline.expired()) << "budget " << seconds;
    EXPECT_NO_THROW(deadline.check("astronomical budget"));
    EXPECT_GT(deadline.remaining_seconds(), 1e9);
  }
  EXPECT_FALSE(common::Deadline::from_budget(1e18).expired());
  // Sane budgets are still enforced.
  EXPECT_TRUE(common::Deadline::after(0.0).expired());
  EXPECT_FALSE(common::Deadline::after(60.0).expired());
}

TEST(FaultTolerance, StatusNamesAreStable) {
  EXPECT_STREQ(to_string(AuctionStatus::kOk), "ok");
  EXPECT_STREQ(to_string(AuctionStatus::kDegraded), "degraded");
  EXPECT_STREQ(to_string(AuctionStatus::kTimedOut), "timed-out");
  EXPECT_STREQ(to_string(AuctionStatus::kFailed), "failed");
}

TEST(FaultTolerance, EmptyBatchYieldsEmptySlots) {
  const Engine engine;
  EXPECT_TRUE(engine.run_isolated(std::vector<AuctionInstance>{}).empty());
}

}  // namespace
}  // namespace mcs::auction
