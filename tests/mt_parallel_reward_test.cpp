// The parallel critical-bid path of the multi-task mechanism: per-winner
// probes fan out across common::ThreadPool::shared() while sharing one
// read-only CSR view, and assemble in submission order. These suites carry
// the `parallel` ctest label so the TSan/ASan presets re-run exactly them —
// the shared-view reads from many workers are what the tsan preset must
// prove race-free. Determinism is asserted by comparing against the fully
// serial path (reward_workers = 1), which must be bit-identical.
#include <gtest/gtest.h>

#include "auction/multi_task/mechanism.hpp"
#include "common/parallel.hpp"
#include "common/thread_pool.hpp"
#include "test_util.hpp"

namespace mcs::auction::multi_task {
namespace {

TEST(MtParallelReward, ParallelRewardsAreBitIdenticalToSerial) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto instance = test::random_multi_task(40, 8, 0.6, seed);
    auction::MechanismConfig serial;
    serial.reward_workers = 1;
    auction::MechanismConfig parallel;
    parallel.reward_workers = 4;
    test::expect_identical_outcome(run_mechanism(instance, serial),
                                   run_mechanism(instance, parallel));
  }
}

TEST(MtParallelReward, ParallelProbesShareOneViewAcrossBothRules) {
  const auto instance = test::random_multi_task(30, 6, 0.6, 11);
  for (const auto rule : {CriticalBidRule::kBinarySearch, CriticalBidRule::kPaperIterationMin}) {
    auction::MechanismConfig serial;
    serial.reward_workers = 1;
    serial.multi_task.critical_bid_rule = rule;
    auction::MechanismConfig parallel = serial;
    parallel.reward_workers = common::default_worker_count();
    test::expect_identical_outcome(run_mechanism(instance, serial),
                                   run_mechanism(instance, parallel));
  }
}

TEST(MtParallelReward, WorkersReadOneRecordedMainRunConcurrently) {
  // Every winner's without-i run resumes from the same recorded main run —
  // its steps, residuals and heap events — read by all pool workers at once.
  // A race on it would show as a diff against the standalone path, which
  // records its own main run per call (and as a TSan report under tsan).
  const auto instance = test::random_multi_task(200, 16, 0.6, 31);
  const auto view = MultiTaskView::from_instance(instance);
  const auto main = record_greedy(view);
  ASSERT_TRUE(main.result.allocation.feasible);
  const auto& winners = main.result.allocation.winners;
  for (const auto rule : {CriticalBidRule::kBinarySearch, CriticalBidRule::kPaperIterationMin}) {
    const RewardOptions options{.rule = rule};
    const auto shared = common::parallel_map<WinnerReward>(
        winners.size(),
        [&](std::size_t index) { return compute_reward(view, main, winners[index], options); },
        4);
    for (std::size_t k = 0; k < winners.size(); ++k) {
      EXPECT_EQ(shared[k].critical_contribution,
                compute_reward(view, winners[k], options).critical_contribution)
          << "winner " << winners[k];
    }
  }
}

TEST(MtParallelReward, RepeatedParallelRunsAreStable) {
  // Hammer the pool: the same auction resolved many times must never drift —
  // a race on the shared view or the result slots would show up as a diff
  // (and as a TSan report under the tsan preset).
  const auto instance = test::random_multi_task(25, 5, 0.6, 21);
  const auction::MechanismConfig config;  // reward_workers = 0: the hardware default
  const auto first = run_mechanism(instance, config);
  for (int rep = 0; rep < 8; ++rep) {
    test::expect_identical_outcome(first, run_mechanism(instance, config));
  }
}

}  // namespace
}  // namespace mcs::auction::multi_task
