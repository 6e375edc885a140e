// Tests for the fork-join utility: order preservation, serial/parallel
// agreement, exception propagation, and the mechanism integration.
#include "common/parallel.hpp"

#include <atomic>
#include <stdexcept>

#include <gtest/gtest.h>

#include "auction/single_task/mechanism.hpp"
#include "auction/multi_task/mechanism.hpp"
#include "test_util.hpp"

namespace mcs::common {
namespace {

TEST(ParallelMap, PreservesIndexOrder) {
  const auto results =
      parallel_map<int>(100, [](std::size_t index) { return static_cast<int>(index * index); },
                        4);
  ASSERT_EQ(results.size(), 100u);
  for (std::size_t k = 0; k < results.size(); ++k) {
    EXPECT_EQ(results[k], static_cast<int>(k * k));
  }
}

TEST(ParallelMap, EmptyAndSingleton) {
  EXPECT_TRUE(parallel_map<int>(0, [](std::size_t) { return 1; }, 4).empty());
  const auto one = parallel_map<int>(1, [](std::size_t) { return 42; }, 4);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 42);
}

TEST(ParallelMap, MatchesSerialExecution) {
  const auto serial =
      parallel_map<double>(64, [](std::size_t index) { return 1.0 / (1.0 + index); }, 1);
  const auto parallel =
      parallel_map<double>(64, [](std::size_t index) { return 1.0 / (1.0 + index); }, 8);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelMap, AllIndicesVisitedExactlyOnce) {
  std::vector<std::atomic<int>> visits(257);
  parallel_map<int>(257,
                    [&](std::size_t index) {
                      ++visits[index];
                      return 0;
                    },
                    6);
  for (const auto& count : visits) {
    EXPECT_EQ(count.load(), 1);
  }
}

TEST(ParallelMap, PropagatesTheFirstExceptionByIndex) {
  const auto boom = [](std::size_t index) -> int {
    if (index == 3 || index == 40) {
      throw std::runtime_error("boom " + std::to_string(index));
    }
    return 0;
  };
  try {
    parallel_map<int>(64, boom, 4);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "boom 3");
  }
}

TEST(ParallelMap, RejectsZeroWorkers) {
  EXPECT_THROW(parallel_map<int>(4, [](std::size_t) { return 0; }, 0), PreconditionError);
}

TEST(ParallelRewards, SingleTaskParallelEqualsSerial) {
  const auto instance = test::random_single_task(20, 0.8, 33);
  auction::MechanismConfig config{.alpha = 10.0, .single_task = {.epsilon = 0.5}};
  config.reward_workers = 1;
  const auto serial = auction::single_task::run_mechanism(instance, config);
  config.reward_workers = 0;  // the hardware default
  const auto parallel = auction::single_task::run_mechanism(instance, config);
  ASSERT_EQ(serial.rewards.size(), parallel.rewards.size());
  for (std::size_t k = 0; k < serial.rewards.size(); ++k) {
    EXPECT_EQ(serial.rewards[k].user, parallel.rewards[k].user);
    EXPECT_DOUBLE_EQ(serial.rewards[k].critical_contribution,
                     parallel.rewards[k].critical_contribution);
  }
}

TEST(ParallelRewards, MultiTaskParallelEqualsSerial) {
  const auto instance = test::random_multi_task(18, 5, 0.6, 35);
  auction::MechanismConfig config{.alpha = 10.0};
  config.reward_workers = 1;
  const auto serial = auction::multi_task::run_mechanism(instance, config);
  config.reward_workers = 0;  // the hardware default
  const auto parallel = auction::multi_task::run_mechanism(instance, config);
  ASSERT_EQ(serial.rewards.size(), parallel.rewards.size());
  for (std::size_t k = 0; k < serial.rewards.size(); ++k) {
    EXPECT_EQ(serial.rewards[k].user, parallel.rewards[k].user);
    EXPECT_DOUBLE_EQ(serial.rewards[k].critical_contribution,
                     parallel.rewards[k].critical_contribution);
  }
}

}  // namespace
}  // namespace mcs::common
