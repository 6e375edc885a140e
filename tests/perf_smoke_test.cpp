// Fast perf-smoke gate (seconds, not minutes): runs both scaling suites'
// shapes at tiny sizes and asserts each optimized path — the multi-task one
// (lazy greedy + masked re-solves + parallel rewards) and the single-task
// critical-bid DP-reuse fast path — agrees with its oracle (the independent
// full-rescan, copied-probe mechanism in src/reference/, and full-solve
// probes) END TO END —
// the same invariant bench/perf_mechanisms measures at n up to 400, wired
// into every preset's ctest run so a correctness regression in the hot path
// can never hide behind a green unit suite. Carries the `parallel` label so
// the tsan and asan-ubsan presets (which filter on that label) include it.
// No timing assertions: sanitizer builds are legitimately slow. Work is
// gated on deterministic counters instead — here, the lazy greedy's heap
// re-evaluations against the full rescan's exact count, the reward phase's
// resumed without-i runs against full ones, heap allocations of
// the sharded round's column partition, counted on every thread through the
// replaced global operator new below, and the single-task fast path's exact
// re-solves and fallbacks per probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <new>
#include <utility>

#include "auction/multi_task/greedy.hpp"
#include "auction/multi_task/mechanism.hpp"
#include "auction/single_task/mechanism.hpp"
#include "bench_shapes.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/telemetry.hpp"
#include "reference/multi_task.hpp"
#include "service/shard.hpp"
#include "sim/adversary.hpp"
#include "test_util.hpp"

// ---------------------------------------------------------------------------
// All-thread allocation counter: while g_counting is set, every operator new
// on any thread (pool workers included) bumps g_allocations.
// ---------------------------------------------------------------------------

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_allocate(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}

void* counted_allocate(std::size_t size, std::align_val_t alignment) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto align = static_cast<std::size_t>(alignment);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + align - 1) / align * align;
  if (void* block = std::aligned_alloc(align, rounded)) {
    return block;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_allocate(size); }
void* operator new[](std::size_t size) { return counted_allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_allocate(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_allocate(size, alignment);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, std::align_val_t) noexcept { std::free(block); }
void operator delete[](void* block, std::align_val_t) noexcept { std::free(block); }
void operator delete(void* block, std::size_t, std::align_val_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t, std::align_val_t) noexcept { std::free(block); }

namespace mcs::auction::multi_task {
namespace {

TEST(PerfSmoke, LazyAndReferenceMechanismsAgreeAcrossTinyScalingSweep) {
  const auction::MechanismConfig lazy;  // defaults: masked probes + parallel rewards
  std::size_t feasible = 0;
  for (const std::size_t n : {10, 20, 40}) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      const auto instance = bench_shapes::scaling_instance(n, /*tasks=*/6, seed, 0.6);
      const auto start = std::chrono::steady_clock::now();
      const auto optimized = run_mechanism(instance, lazy);
      const std::chrono::duration<double> lazy_elapsed =
          std::chrono::steady_clock::now() - start;
      const auto baseline = reference::run_multi_task_mechanism(instance, lazy);
      test::expect_identical_outcome(optimized, baseline);
      feasible += optimized.allocation.feasible ? 1 : 0;
      std::cout << "[perf-smoke] n=" << n << " seed=" << seed << " winners="
                << optimized.allocation.winners.size() << " lazy_ms="
                << lazy_elapsed.count() * 1e3 << "\n";
    }
  }
  // The reward (critical-bid) phase only runs on feasible covers; the sweep
  // must exercise it, not just winner determination.
  EXPECT_GT(feasible, 0u);
}

TEST(PerfSmoke, LazyGreedyReevaluationsStayBounded) {
  // The deterministic case for the CELF heap: a full rescan evaluates every
  // unselected user each round, Σ_{r<rounds} (n − r) gains in all, while the
  // lazy heap recomputes only entries that surface stale. On the scaling
  // shapes below the lazy count sits 7.1–19.8× under the rescan's; the gate
  // asks for 5×. Small shapes (n = 40, 6 tasks: ~4×) are not gated.
  for (const auto& [n, tasks] : {std::pair<std::size_t, std::size_t>{300, 50}, {2000, 128}}) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      const auto instance = bench_shapes::scaling_instance(n, tasks, seed);
      obs::PhaseCounters counters;
      const auto result = solve_greedy(instance, GreedyOptions{.counters = &counters});
      ASSERT_TRUE(result.allocation.feasible) << "n=" << n << " seed=" << seed;
      const std::uint64_t rounds = counters.rounds;
      ASSERT_EQ(rounds, result.steps.size());
      const std::uint64_t rescan_evaluations = rounds * n - rounds * (rounds - 1) / 2;
      std::cout << "[perf-smoke] lazy greedy n=" << n << " tasks=" << tasks << " seed=" << seed
                << " heap_reevaluations=" << counters.heap_reevaluations
                << " rescan_evaluations=" << rescan_evaluations << "\n";
      EXPECT_LE(counters.heap_reevaluations * 5, rescan_evaluations)
          << "n=" << n << " seed=" << seed;
    }
  }
}

/// The round_flat traffic shape at test size: task j in cell j, every
/// user's tasks inside one residue class mod 16, each class task taken with
/// probability 1/2 (perfbench's and bench/service_load's residue-pure round).
MultiTaskInstance residue_pure_instance(std::size_t users, std::uint64_t seed) {
  constexpr std::size_t kTasks = 128;
  constexpr std::int64_t kGroups = 16;
  MultiTaskInstance instance;
  instance.requirement_pos.assign(kTasks, 0.35);
  common::Rng rng(seed);
  for (std::size_t i = 0; i < users; ++i) {
    MultiTaskUserBid bid;
    bid.cost = rng.uniform(5.0, 25.0);
    const auto group = static_cast<std::size_t>(rng.uniform_int(0, kGroups - 1));
    for (std::size_t j = group; j < kTasks; j += kGroups) {
      if (rng.uniform(0.0, 1.0) < 0.5) {
        bid.tasks.push_back(static_cast<TaskIndex>(j));
        bid.pos.push_back(rng.uniform(0.1, 0.5));
      }
    }
    if (bid.tasks.empty()) {
      bid.tasks.push_back(static_cast<TaskIndex>(group));
      bid.pos.push_back(rng.uniform(0.1, 0.5));
    }
    instance.users.push_back(std::move(bid));
  }
  return instance;
}

TEST(PerfSmoke, ResumedWithoutRunsDoLessThanFullOnes) {
  // The multi-task reward phase's work gate. Each winner's without-i run
  // resumes from the main run at her round and stops once her tasks are
  // covered, so the phase's heap re-evaluations must stay a fixed fraction
  // of what one full without-i solve per winner makes. Measured ratios
  // (seeds 1 and 2): 0.42 and 0.37 on the residue-pure shape, 0.69 and 0.67
  // on the scaling shape; the bounds sit just above them.
  struct Shape {
    const char* name;
    MultiTaskInstance (*make)(std::uint64_t);
    double max_ratio;
  };
  const Shape shapes[] = {
      {"residue-pure 2000x128", [](std::uint64_t seed) { return residue_pure_instance(2000, seed); },
       0.45},
      {"scaling 2000x128",
       [](std::uint64_t seed) { return bench_shapes::scaling_instance(2000, 128, seed); }, 0.72},
  };
  auction::MechanismConfig serial;
  serial.reward_workers = 1;
  for (const Shape& shape : shapes) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      const auto instance = shape.make(seed);
      const obs::ScopedTelemetry telemetry(true);
      const auto outcome = run_mechanism(instance, serial);
      ASSERT_TRUE(outcome.allocation.feasible) << shape.name << " seed=" << seed;
      obs::PhaseCounters full;
      for (const UserId winner : outcome.allocation.winners) {
        solve_greedy(instance.without_user(winner), GreedyOptions{.counters = &full});
      }
      const auto& resumed = outcome.telemetry.rewards;
      const double ratio = static_cast<double>(resumed.heap_reevaluations) /
                           static_cast<double>(full.heap_reevaluations);
      const double winners = static_cast<double>(outcome.allocation.winners.size());
      std::cout << "[perf-smoke] without-i runs, " << shape.name << " seed=" << seed
                << " winners=" << winners << " reevaluations/winner full="
                << static_cast<double>(full.heap_reevaluations) / winners
                << " resumed=" << static_cast<double>(resumed.heap_reevaluations) / winners
                << " rounds/winner full=" << static_cast<double>(full.rounds) / winners
                << " resumed=" << static_cast<double>(resumed.rounds) / winners
                << " ratio=" << ratio << "\n";
      EXPECT_LE(ratio, shape.max_ratio) << shape.name << " seed=" << seed;
    }
  }
}

TEST(PerfSmoke, SingleTaskFastProbesAgreeWithOracleAcrossTinyScalingSweep) {
  // The single-task counterpart of the gate above: on the exact shape
  // bench/perf_mechanisms measures at n up to 400, the critical-bid DP-reuse
  // fast path (the default) must agree with the full-solve oracle END TO
  // END — winners, critical bids, rewards, degradation flags — at tiny n,
  // every ctest run, under every preset. Also checks the fast path's probe
  // accounting: each probe is a reuse hit or a counted fallback, never
  // unaccounted.
  auction::MechanismConfig fast;  // default: ProbeStrategy::kDpReuse
  fast.single_task.epsilon = 0.5;
  auction::MechanismConfig oracle = fast;
  oracle.single_task.probe_strategy = ProbeStrategy::kFullSolve;
  std::size_t feasible = 0;
  for (const std::size_t n : {10, 20, 40}) {
    for (const std::uint64_t seed : {21ull, 22ull}) {
      const auto instance = bench_shapes::single_task_scaling_instance(n, seed);
      const obs::ScopedTelemetry telemetry(true);
      const auto start = std::chrono::steady_clock::now();
      const auto optimized = single_task::run_mechanism(instance, fast);
      const std::chrono::duration<double> fast_elapsed =
          std::chrono::steady_clock::now() - start;
      const auto baseline = single_task::run_mechanism(instance, oracle);
      test::expect_identical_outcome(optimized, baseline);
      feasible += optimized.allocation.feasible ? 1 : 0;
      if (optimized.allocation.feasible) {
        const auto& rewards = optimized.telemetry.rewards;
        EXPECT_EQ(rewards.dp_reuse_hits + rewards.dp_reuse_fallbacks, rewards.probes)
            << "n=" << n << " seed=" << seed;
        EXPECT_EQ(baseline.telemetry.rewards.dp_reuse_hits +
                      baseline.telemetry.rewards.dp_reuse_fallbacks,
                  0u)
            << "n=" << n << " seed=" << seed;
      }
      std::cout << "[perf-smoke] single-task n=" << n << " seed=" << seed << " winners="
                << optimized.allocation.winners.size() << " fast_ms="
                << fast_elapsed.count() * 1e3 << "\n";
    }
  }
  // The reward (critical-bid) phase only runs on feasible covers; the sweep
  // must exercise it, not just winner determination.
  EXPECT_GT(feasible, 0u);
}

TEST(PerfSmoke, SingleTaskFastPathWorkPerProbeStaysBounded) {
  // Deterministic work gate for the critical-bid fast path on the
  // benchmark's own shape (n = 200, default config, fast path only). With
  // exact integer coverage sums a probe re-solves a subproblem DP only on an
  // exact scaled-cost tie between its with- and without-winner covers (at
  // most one per probe), and falls back to a full solve only above the
  // declaration, so both counts per probe are the regression signal a timer
  // on a shared host would miss. Seeds 1000-1015 make 0 exact solves and 0
  // fallbacks in 3250 probes; the bounds sit just above 0 on the two seeds
  // below (at most 3 of their 400 probes).
  constexpr double kMaxExactSolvesPerProbe = 0.01;
  constexpr double kMaxFallbacksPerProbe = 0.01;
  const auction::MechanismConfig config;
  obs::PhaseCounters rewards;
  for (const std::uint64_t seed : {1000ull, 1001ull}) {
    const auto instance = bench_shapes::single_task_scaling_instance(200, seed);
    const obs::ScopedTelemetry telemetry(true);
    const auto outcome = single_task::run_mechanism(instance, config);
    ASSERT_TRUE(outcome.allocation.feasible) << "seed=" << seed;
    rewards += outcome.telemetry.rewards;
  }
  ASSERT_GT(rewards.probes, 0u);
  EXPECT_EQ(rewards.dp_reuse_hits + rewards.dp_reuse_fallbacks, rewards.probes);
  const double probes = static_cast<double>(rewards.probes);
  const double exact_per_probe = static_cast<double>(rewards.dp_reuse_exact_solves) / probes;
  const double fallbacks_per_probe = static_cast<double>(rewards.dp_reuse_fallbacks) / probes;
  std::cout << "[perf-smoke] single-task n=200 probes=" << rewards.probes
            << " exact_solves_per_probe=" << exact_per_probe
            << " fallbacks_per_probe=" << fallbacks_per_probe << "\n";
  EXPECT_LT(exact_per_probe, kMaxExactSolvesPerProbe);
  EXPECT_LT(fallbacks_per_probe, kMaxFallbacksPerProbe);
  EXPECT_LE(rewards.dp_reuse_exact_solves, rewards.dp_reuse_fallbacks);
}

TEST(PerfSmoke, ColumnsDpKernelAgreesWithScalarOracleEndToEnd) {
  // The Algorithm 1 kernel gate: the memory-engineered columns sweep (the
  // default DpKernel) must reproduce the retained scalar-oracle sweep END TO
  // END — winners, total cost, every critical bid and reward — on the exact
  // shape bench/memory_scaling measures at large n, every ctest run, under
  // every preset. The dedicated differential suite
  // (dp_kernel_equivalence_test) pins the frontiers themselves; this gate
  // makes sure no mechanism-level wiring can route around the pinned kernel.
  auction::MechanismConfig columns;  // default: DpKernel::kColumns
  columns.single_task.epsilon = 0.5;
  auction::MechanismConfig oracle = columns;
  oracle.single_task.dp_kernel = DpKernel::kScalarOracle;
  std::size_t feasible = 0;
  for (const std::size_t n : {10, 20, 40}) {
    for (const std::uint64_t seed : {31ull, 32ull}) {
      const auto instance = bench_shapes::single_task_scaling_instance(n, seed);
      const auto optimized = single_task::run_mechanism(instance, columns);
      const auto baseline = single_task::run_mechanism(instance, oracle);
      test::expect_identical_outcome(optimized, baseline);
      feasible += optimized.allocation.feasible ? 1 : 0;
    }
  }
  EXPECT_GT(feasible, 0u);
}

TEST(PerfSmoke, DisabledTelemetryIsFreeAndEnabledTelemetryOnlyAddsFields) {
  // The mcs::obs determinism contract, gated like the lazy-vs-reference
  // invariant above: with telemetry off the mechanism outcome is
  // bit-identical to the enabled run (only the telemetry fields differ), and
  // the disabled path must not be measurably slower than the enabled one —
  // best-of-5 each, with a generous noise floor, because sanitizer builds
  // and loaded CI machines are legitimately slow.
  const auto instance = bench_shapes::scaling_instance(40, 6, 5, 0.6);
  const auction::MechanismConfig config;
  auto best_of_5 = [&] {
    double best = std::numeric_limits<double>::infinity();
    MechanismOutcome outcome;
    for (int repeat = 0; repeat < 5; ++repeat) {
      const auto start = std::chrono::steady_clock::now();
      outcome = run_mechanism(instance, config);
      const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
      best = std::min(best, elapsed.count());
    }
    return std::pair{best, outcome};
  };
  obs::ScopedTelemetry off(false);
  const auto [disabled_seconds, plain] = best_of_5();
  EXPECT_FALSE(plain.telemetry.enabled);
  double enabled_seconds = 0.0;
  {
    const obs::ScopedTelemetry on(true);
    const auto [seconds, instrumented] = best_of_5();
    enabled_seconds = seconds;
    EXPECT_TRUE(instrumented.telemetry.enabled);
    test::expect_identical_outcome(instrumented, plain);
  }
  EXPECT_LE(disabled_seconds, enabled_seconds * 2.0 + 5e-3)
      << "disabled " << disabled_seconds * 1e3 << " ms vs enabled " << enabled_seconds * 1e3
      << " ms";
  std::cout << "[perf-smoke] telemetry disabled_ms=" << disabled_seconds * 1e3
            << " enabled_ms=" << enabled_seconds * 1e3 << "\n";
}

TEST(PerfSmoke, QuickAdversarialSweepStaysCleanOnTheoremAxes) {
  // The bench/adversarial_sweep --quick smoke, in-process: the attack
  // harness's tiny sweep must (a) keep every hostile-input auction
  // bit-identical across the fast and oracle configurations, and (b) report
  // zero SP/IR violations on the ε-disabled truthful baseline — the
  // Theorem 1/4 pins under hostile shapes. Noised rows may degrade (that is
  // the measurement); the theorem axes may not.
  const auto start = std::chrono::steady_clock::now();
  const auto result = sim::run_adversarial_sweep(sim::quick_sweep_config());
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.fast_oracle_mismatches, 0u);
  EXPECT_EQ(result.truthful_sp_violations, 0u);
  EXPECT_EQ(result.truthful_ir_violations, 0u);
  EXPECT_GT(result.auctions_run, 0u);
  std::cout << "[perf-smoke] adversarial quick sweep auctions=" << result.auctions_run
            << " elapsed_ms=" << elapsed.count() * 1e3 << "\n";
}

TEST(PerfSmoke, BothCriticalBidRulesSurviveTheSweep) {
  auction::MechanismConfig lazy;
  lazy.multi_task.critical_bid_rule = CriticalBidRule::kPaperIterationMin;
  const auto instance = bench_shapes::scaling_instance(20, 6, 3, 0.6);
  test::expect_identical_outcome(run_mechanism(instance, lazy),
                                 reference::run_multi_task_mechanism(instance, lazy));
}

/// A service_load-style round at 128 tasks in 16 residue classes, with ~7.5%
/// straddlers and ~3% empty-task users so every partition branch runs.
service::GeoRound partition_gate_round(std::size_t users, std::uint64_t seed) {
  constexpr std::size_t kTasks = 128;
  constexpr std::int64_t kGroups = 16;
  service::GeoRound round;
  round.instance.requirement_pos.assign(kTasks, 0.35);
  for (std::size_t j = 0; j < kTasks; ++j) {
    round.task_cells.push_back(static_cast<geo::CellId>(j));
  }
  common::Rng rng(seed);
  round.instance.users.resize(users);
  for (auto& bid : round.instance.users) {
    bid.cost = rng.uniform(5.0, 25.0);
    const double draw = rng.uniform(0.0, 1.0);
    if (draw < 0.03) {
      continue;
    }
    const auto group = rng.uniform_int(0, kGroups - 1);
    const auto other = draw < 0.105 ? (group + 1 + rng.uniform_int(0, kGroups - 2)) % kGroups
                                    : kGroups;
    for (std::int64_t j = 0; j < static_cast<std::int64_t>(kTasks); ++j) {
      if ((j % kGroups == group && rng.uniform(0.0, 1.0) < 0.5) || j == other) {
        bid.tasks.push_back(static_cast<TaskIndex>(j));
        bid.pos.push_back(rng.uniform(0.1, 0.5));
      }
    }
  }
  return round;
}

TEST(PerfSmoke, ColumnPartitionAllocationsDoNotGrowWithUsers) {
  // The sharded round's partition writes each shard's CSR columns with no
  // per-user allocation, so its allocation count (on every thread) is a
  // function of the shard and worker counts alone — the same at 10k and
  // 40k users. The AoS partition it replaced made ~6 per user. A fresh pool
  // per measurement keeps the pool's own queue bookkeeping identical.
  const obs::ScopedTelemetry off(false);
  const service::ShardMap map(16);
  auto allocations = [&](std::size_t users) {
    const auto round = partition_gate_round(users, 77);
    common::ThreadPool pool(4);
    g_allocations.store(0);
    g_counting.store(true);
    const auto partition = service::partition_views(round, map, pool);
    g_counting.store(false);
    EXPECT_EQ(partition.shards.size(), 16u);
    EXPECT_GT(partition.straddlers.size(), 0u);
    EXPECT_GT(partition.unassigned_users.size(), 0u);
    return g_allocations.load();
  };
  const auto small = allocations(10000);
  const auto large = allocations(40000);
  EXPECT_EQ(small, large);
  EXPECT_LT(large, 1000u);
  std::cout << "[perf-smoke] column partition allocations: " << small << " at 10k users, "
            << large << " at 40k\n";
}

}  // namespace
}  // namespace mcs::auction::multi_task
