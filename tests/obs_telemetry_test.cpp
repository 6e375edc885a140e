// Tests for the mcs::obs telemetry substrate: the process-wide enable
// switch, the sharded metric Registry (lock-free write path, merged
// snapshots, concurrent snapshot-during-add), the per-mechanism
// MechanismTelemetry records both mechanism families populate, and the
// engine/pool metrics. The determinism contract is asserted end to end:
// running the same instance with telemetry enabled and disabled yields
// bit-identical allocations and rewards — only the telemetry fields differ.
// Carries the `obs` label so the tsan and asan-ubsan presets include it
// (the thread-shard merge must be sanitizer-clean).
#include "obs/telemetry.hpp"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "auction/engine.hpp"
#include "auction/multi_task/mechanism.hpp"
#include "auction/single_task/mechanism.hpp"
#include "common/thread_pool.hpp"
#include "test_util.hpp"

namespace mcs::obs {
namespace {

TEST(Telemetry, ScopedTelemetryRestoresThePreviousState) {
  const bool initial = enabled();
  {
    const ScopedTelemetry on(true);
    EXPECT_TRUE(enabled());
    {
      const ScopedTelemetry off(false);
      EXPECT_FALSE(enabled());
    }
    EXPECT_TRUE(enabled());
  }
  EXPECT_EQ(enabled(), initial);
}

TEST(Telemetry, PhaseTimerUnarmedReadsZero) {
  const PhaseTimer unarmed(false);
  EXPECT_EQ(unarmed.seconds(), 0.0);
  const PhaseTimer armed(true);
  EXPECT_GE(armed.seconds(), 0.0);
}

TEST(Telemetry, PhaseCountersMergeFieldwise) {
  PhaseCounters a{.probes = 1, .deadline_polls = 2, .rounds = 3,
                  .heap_reevaluations = 4, .bisection_steps = 5,
                  .dp_reuse_hits = 6, .dp_reuse_fallbacks = 7, .dp_reuse_exact_solves = 8};
  const PhaseCounters b{.probes = 10, .deadline_polls = 20, .rounds = 30,
                        .heap_reevaluations = 40, .bisection_steps = 50,
                        .dp_reuse_hits = 60, .dp_reuse_fallbacks = 70,
                        .dp_reuse_exact_solves = 80};
  a += b;
  EXPECT_EQ(a.probes, 11u);
  EXPECT_EQ(a.deadline_polls, 22u);
  EXPECT_EQ(a.rounds, 33u);
  EXPECT_EQ(a.heap_reevaluations, 44u);
  EXPECT_EQ(a.bisection_steps, 55u);
  EXPECT_EQ(a.dp_reuse_hits, 66u);
  EXPECT_EQ(a.dp_reuse_fallbacks, 77u);
  EXPECT_EQ(a.dp_reuse_exact_solves, 88u);
}

TEST(Telemetry, MechanismTelemetryAggregationOrsEnabled) {
  MechanismTelemetry total;  // default: disabled, all zero
  MechanismTelemetry round;
  round.enabled = true;
  round.winner_determination_seconds = 0.25;
  round.rewards_seconds = 0.5;
  round.degraded_events = 1;
  round.winner_determination.rounds = 7;
  round.rewards.probes = 9;
  total += round;
  total += MechanismTelemetry{};  // a disabled round must not clear the flag
  EXPECT_TRUE(total.enabled);
  EXPECT_DOUBLE_EQ(total.winner_determination_seconds, 0.25);
  EXPECT_DOUBLE_EQ(total.rewards_seconds, 0.5);
  EXPECT_EQ(total.degraded_events, 1u);
  EXPECT_EQ(total.winner_determination.rounds, 7u);
  EXPECT_EQ(total.rewards.probes, 9u);
}

TEST(Telemetry, MechanismRecordJsonHasStableKeys) {
  MechanismTelemetry record;
  record.enabled = true;
  record.degraded_events = 2;
  record.winner_determination.probes = 3;
  record.rewards.dp_reuse_exact_solves = 68;
  const std::string json = to_json(record);
  for (const char* key :
       {"\"enabled\"", "\"winner_determination_seconds\"", "\"rewards_seconds\"",
        "\"degraded_events\"", "\"winner_determination\"", "\"rewards\"", "\"probes\"",
        "\"deadline_polls\"", "\"rounds\"", "\"heap_reevaluations\"", "\"bisection_steps\"",
        "\"dp_reuse_hits\"", "\"dp_reuse_fallbacks\"", "\"dp_reuse_exact_solves\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing from " << json;
  }
  EXPECT_NE(json.find("\"degraded_events\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dp_reuse_exact_solves\":68"), std::string::npos) << json;
}

TEST(Registry, MetricRegistrationIsIdempotent) {
  Registry registry;
  const auto a = registry.metric("test.counter");
  const auto b = registry.metric("test.counter");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.metric("test.other"), a);
}

TEST(Registry, AddAndSnapshotRoundTrip) {
  Registry registry;
  const auto counter = registry.metric("test.counter");
  const auto gauge = registry.metric("test.gauge");
  registry.add(counter, 3);
  registry.add(counter, 4);
  registry.add(gauge, 5);
  registry.add(gauge, -2);  // gauges take signed deltas; the sum is the level
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.value_of("test.counter"), 7);
  EXPECT_EQ(snapshot.value_of("test.gauge"), 3);
  EXPECT_EQ(snapshot.value_of("test.unregistered"), 0);
  ASSERT_EQ(snapshot.values.size(), 2u);  // registration order
  EXPECT_EQ(snapshot.values[0].first, "test.counter");
  EXPECT_EQ(snapshot.values[1].first, "test.gauge");
}

TEST(Registry, ResetZeroesValuesButKeepsNames) {
  Registry registry;
  const auto counter = registry.metric("test.counter");
  registry.add(counter, 42);
  registry.reset();
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.values.size(), 1u);
  EXPECT_EQ(snapshot.value_of("test.counter"), 0);
  EXPECT_EQ(registry.metric("test.counter"), counter);
}

TEST(Registry, RegistrationBeyondTheShardWidthThrows) {
  Registry registry;
  for (std::size_t k = 0; k < Registry::kMaxMetrics; ++k) {
    registry.metric("test.metric." + std::to_string(k));
  }
  EXPECT_THROW(registry.metric("test.one-too-many"), std::runtime_error);
}

TEST(Registry, SnapshotJsonListsEveryMetric) {
  Registry registry;
  registry.add(registry.metric("a"), 1);
  registry.add(registry.metric("b"), -2);
  const std::string json = registry.snapshot().to_json();
  EXPECT_NE(json.find("\"a\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"b\":-2"), std::string::npos) << json;
}

TEST(Registry, ThreadShardsMergeToTheExactTotal) {
  Registry registry;
  const auto counter = registry.metric("test.cross-thread");
  common::ThreadPool pool(4);
  constexpr std::size_t kIndices = 1000;
  pool.for_each_index(kIndices, [&](std::size_t index) {
    registry.add(counter, static_cast<std::int64_t>(index % 3 + 1));
  });
  std::int64_t expected = 0;
  for (std::size_t index = 0; index < kIndices; ++index) {
    expected += static_cast<std::int64_t>(index % 3 + 1);
  }
  EXPECT_EQ(registry.snapshot().value_of("test.cross-thread"), expected);
}

TEST(Registry, SnapshotDuringConcurrentAddsIsSanitizerClean) {
  // Snapshots race benignly with adds by design (relaxed atomic cells): the
  // value observed mid-run is a momentary view, but the final merged total
  // must be exact and TSan must see no data race.
  Registry registry;
  const auto counter = registry.metric("test.concurrent");
  common::ThreadPool pool(3);
  std::atomic<bool> stop{false};
  auto snapshots = pool.submit([&] {
    std::int64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::int64_t now = registry.snapshot().value_of("test.concurrent");
      EXPECT_GE(now, last);  // monotonic counter: merged view never regresses
      last = now;
    }
    return last;
  });
  pool.for_each_index(2000, [&](std::size_t) { registry.add(counter, 1); },
                      /*max_workers=*/2);
  stop.store(true, std::memory_order_relaxed);
  EXPECT_LE(snapshots.get(), 2000);
  EXPECT_EQ(registry.snapshot().value_of("test.concurrent"), 2000);
}

TEST(MechanismTelemetryPopulation, SingleTaskRecordsBothPhases) {
  const auto instance = mcs::test::random_single_task(20, 0.8, 7);
  const auction::MechanismConfig config{.alpha = 10.0, .single_task = {.epsilon = 0.3}};

  const ScopedTelemetry off(false);
  const auto plain = auction::single_task::run_mechanism(instance, config);
  EXPECT_FALSE(plain.telemetry.enabled);
  EXPECT_EQ(plain.telemetry.winner_determination.rounds, 0u);

  const ScopedTelemetry on(true);
  const auto instrumented = auction::single_task::run_mechanism(instance, config);
  mcs::test::expect_identical_outcome(instrumented, plain);  // determinism contract
  ASSERT_TRUE(instrumented.allocation.feasible);
  EXPECT_TRUE(instrumented.telemetry.enabled);
  EXPECT_EQ(instrumented.telemetry.degraded_events, 0u);
  EXPECT_GT(instrumented.telemetry.winner_determination.rounds, 0u);
  EXPECT_GT(instrumented.telemetry.winner_determination.deadline_polls, 0u);
  // Each winner's critical search issues at least one probe and bisects.
  EXPECT_GE(instrumented.telemetry.rewards.probes, instrumented.rewards.size());
  EXPECT_GT(instrumented.telemetry.rewards.bisection_steps, 0u);
  EXPECT_GE(instrumented.telemetry.winner_determination_seconds, 0.0);
  EXPECT_GE(instrumented.telemetry.rewards_seconds, 0.0);
}

TEST(MechanismTelemetryPopulation, MultiTaskRecordsBothPhases) {
  const auto instance = mcs::test::random_multi_task(24, 6, 0.6, 11);
  const auction::MechanismConfig config{.alpha = 10.0};

  const ScopedTelemetry off(false);
  const auto plain = auction::multi_task::run_mechanism(instance, config);
  EXPECT_FALSE(plain.telemetry.enabled);

  const ScopedTelemetry on(true);
  const auto instrumented = auction::multi_task::run_mechanism(instance, config);
  mcs::test::expect_identical_outcome(instrumented, plain);
  ASSERT_TRUE(instrumented.allocation.feasible);
  EXPECT_TRUE(instrumented.telemetry.enabled);
  EXPECT_EQ(instrumented.telemetry.winner_determination.rounds,
            instrumented.allocation.winners.size());
  EXPECT_GT(instrumented.telemetry.winner_determination.heap_reevaluations, 0u);
  EXPECT_GE(instrumented.telemetry.rewards.probes, instrumented.rewards.size());
  EXPECT_GT(instrumented.telemetry.rewards.bisection_steps, 0u);
}

TEST(MechanismTelemetryPopulation, ParallelRewardCountersAreDeterministic) {
  // Per-worker counter blocks merged in index order: the totals must not
  // depend on worker count or scheduling.
  const auto instance = mcs::test::random_multi_task(30, 6, 0.6, 13);
  const auction::MechanismConfig config{.alpha = 10.0};
  const ScopedTelemetry on(true);
  const auto first = auction::multi_task::run_mechanism(instance, config);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto again = auction::multi_task::run_mechanism(instance, config);
    EXPECT_EQ(again.telemetry.rewards.probes, first.telemetry.rewards.probes);
    EXPECT_EQ(again.telemetry.rewards.bisection_steps, first.telemetry.rewards.bisection_steps);
    EXPECT_EQ(again.telemetry.rewards.deadline_polls, first.telemetry.rewards.deadline_polls);
  }
}

TEST(EngineMetrics, IsolatedBatchTalliesSlotStatuses) {
  auction::SingleTaskInstance poisoned;
  poisoned.requirement_pos = 0.8;
  poisoned.bids = {{-1.0, 0.3}, {2.0, 0.4}};  // negative cost fails validate()
  std::vector<auction::AuctionInstance> batch;
  batch.emplace_back(mcs::test::random_single_task(12, 0.8, 21));
  batch.emplace_back(poisoned);
  batch.emplace_back(mcs::test::random_multi_task(12, 4, 0.6, 22));

  const ScopedTelemetry on(true);
  auto& registry = Registry::global();
  const auto before = registry.snapshot();
  const auction::Engine engine(auction::EngineOptions{.workers = 2});
  const auto slots = engine.run_isolated(batch, auction::MechanismConfig{.alpha = 10.0});
  ASSERT_EQ(slots.size(), 3u);
  const auto after = registry.snapshot();
  EXPECT_EQ(after.value_of("engine.batches") - before.value_of("engine.batches"), 1);
  EXPECT_EQ(after.value_of("engine.auctions") - before.value_of("engine.auctions"), 3);
  EXPECT_EQ(after.value_of("engine.slots_ok") - before.value_of("engine.slots_ok"), 2);
  EXPECT_EQ(after.value_of("engine.slots_failed") - before.value_of("engine.slots_failed"), 1);
}

TEST(PoolMetrics, ExecutedTasksAndQueueDepthBalance) {
  const ScopedTelemetry on(true);
  auto& registry = Registry::global();
  const auto before = registry.snapshot();
  {
    common::ThreadPool pool(2);
    pool.for_each_index(64, [](std::size_t) {});
  }  // pool joined: every enqueued task has executed
  const auto after = registry.snapshot();
  const auto executed =
      after.value_of("pool.tasks_executed") - before.value_of("pool.tasks_executed");
  const auto enqueued =
      after.value_of("pool.tasks_enqueued") - before.value_of("pool.tasks_enqueued");
  EXPECT_GT(executed, 0);
  EXPECT_EQ(executed, enqueued);
  // Both gauges return to their pre-run level once the pool drains.
  EXPECT_EQ(after.value_of("pool.queue_depth"), before.value_of("pool.queue_depth"));
  EXPECT_EQ(after.value_of("pool.busy_workers"), before.value_of("pool.busy_workers"));
}

}  // namespace
}  // namespace mcs::obs
