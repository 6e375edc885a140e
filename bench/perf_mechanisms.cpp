// Google-benchmark microbenchmarks of the mechanism building blocks: the
// Algorithm 1 DP, the FPTAS winner determination across n and ε, the
// multi-task greedy, and both reward schemes — these quantify the complexity
// claims of Theorems 3 and 6 — plus the batched auction::Engine throughput
// suite (campaign-round auctions/sec at 1, 2, and N workers) and a
// fault-injection suite (run_isolated throughput as a growing fraction of
// the batch is poisoned or the wall-clock budget is exhausted). After the
// google-benchmark run, main() emits machine-readable JSON records — the
// multi-task scaling suite (lazy vs reference, winner-determination vs
// reward phase split, n up to 400), batched throughput, and fault-injection
// throughput, one object per line — to
// stdout and, when MCS_BENCH_JSON names a file path, to that file, so the
// bench trajectory can be tracked across commits. The single-task scaling
// suite (critical-bid DP-reuse fast path vs the full-solve oracle, one core)
// rides in the same JSON stream. Pass --benchmark_filter to restrict the
// microbenchmarks (e.g. --benchmark_filter=NONE emits only the JSON
// records).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "auction/engine.hpp"
#include "auction/single_task/dp_knapsack.hpp"
#include "auction/single_task/fptas.hpp"
#include "auction/single_task/mechanism.hpp"
#include "auction/multi_task/greedy.hpp"
#include "auction/multi_task/mechanism.hpp"
#include "auction/multi_task/reward.hpp"
#include "auction/multi_task/view.hpp"
#include "bench_shapes.hpp"
#include "common/distributions.hpp"
#include "common/rng.hpp"
#include "obs/telemetry.hpp"
#include "reference/multi_task.hpp"

namespace {

using namespace mcs;

/// The single-task population lives in bench/bench_shapes.hpp, shared with
/// tests/perf_smoke_test.cpp so the committed single-task scaling record and
/// the ctest fast≡oracle gate measure literally the same shape.
auction::SingleTaskInstance make_single(std::size_t n, std::uint64_t seed) {
  return bench_shapes::single_task_scaling_instance(n, seed);
}

/// The multi-task population lives in bench/bench_shapes.hpp, shared with
/// tests/perf_smoke_test.cpp so the committed scaling record and the ctest
/// gate measure literally the same shapes.
auction::MultiTaskInstance make_multi(std::size_t n, std::size_t t, std::uint64_t seed) {
  return bench_shapes::scaling_instance(n, t, seed);
}

void BM_KnapsackDp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(7);
  std::vector<auction::single_task::KnapsackItem> items;
  items.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    items.push_back({auction::coverage::quantize(rng.uniform(0.02, 0.4)), rng.uniform_int(1, 400)});
  }
  const auto requirement = auction::coverage::quantize(1.6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(auction::single_task::solve_min_knapsack(items, requirement));
  }
}
BENCHMARK(BM_KnapsackDp)->Arg(20)->Arg(50)->Arg(100)->Arg(200);

void BM_FptasWinnerDetermination(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double epsilon = static_cast<double>(state.range(1)) / 100.0;
  const auto instance = make_single(n, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(auction::single_task::solve_fptas(instance, epsilon));
  }
}
BENCHMARK(BM_FptasWinnerDetermination)
    ->Args({20, 50})
    ->Args({50, 50})
    ->Args({100, 50})
    ->Args({50, 10})
    ->Args({100, 10});

void BM_SingleTaskMechanismWithRewards(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool parallel = state.range(1) != 0;
  const auto instance = make_single(n, 13);
  auction::MechanismConfig config{.alpha = 10.0, .single_task = {.epsilon = 0.5}};
  config.reward_workers = parallel ? 0 : 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(auction::single_task::run_mechanism(instance, config));
  }
}
BENCHMARK(BM_SingleTaskMechanismWithRewards)
    ->Args({20, 0})
    ->Args({20, 1})
    ->Args({40, 0})
    ->Args({40, 1});

void BM_MultiTaskGreedy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto t = static_cast<std::size_t>(state.range(1));
  const bool reference = state.range(2) != 0;
  const auto instance = make_multi(n, t, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference ? reference::solve_greedy_scan(instance)
                                       : auction::multi_task::solve_greedy(instance));
  }
}
BENCHMARK(BM_MultiTaskGreedy)
    ->Args({30, 15, 0})
    ->Args({100, 15, 0})
    ->Args({100, 15, 1})
    ->Args({100, 50, 0})
    ->Args({300, 50, 0})
    ->Args({300, 50, 1});

// Serial rewards on both sides (the reference mechanism is always serial), so
// the /0 vs /1 rows compare algorithmic cost only.
void BM_MultiTaskMechanismWithRewards(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool reference = state.range(1) != 0;
  const auto instance = make_multi(n, 15, 19);
  const auction::MechanismConfig config{.alpha = 10.0, .reward_workers = 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference ? reference::run_multi_task_mechanism(instance, config)
                                       : auction::multi_task::run_mechanism(instance, config));
  }
}
BENCHMARK(BM_MultiTaskMechanismWithRewards)
    ->Args({30, 0})
    ->Args({60, 0})
    ->Args({60, 1})
    ->Args({100, 0})
    ->Args({100, 1});

// --- batched auction engine -------------------------------------------------

/// A campaign round's worth of auctions: the shape platform::run_campaign
/// submits, one multi-task auction per round, batched across rounds.
std::vector<auction::MultiTaskInstance> make_round_batch(std::size_t auctions, std::size_t users,
                                                         std::size_t tasks) {
  std::vector<auction::MultiTaskInstance> batch;
  batch.reserve(auctions);
  for (std::size_t k = 0; k < auctions; ++k) {
    batch.push_back(make_multi(users, tasks, 100 + k));
  }
  return batch;
}

void BM_BatchedEngineCampaignRounds(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const auto batch = make_round_batch(16, 60, 15);
  const auction::Engine engine(auction::EngineOptions{.workers = workers});
  const auction::MechanismConfig config{.alpha = 10.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(batch, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * batch.size()));
}
BENCHMARK(BM_BatchedEngineCampaignRounds)->Arg(1)->Arg(2)->Arg(8)->UseRealTime();

// --- fault-injection throughput ---------------------------------------------

/// A round batch with `poison_percent`% of the auctions replaced by invalid
/// instances (negative cost): the isolated engine must fail those slots
/// structurally while the healthy slots run at full speed.
std::vector<auction::MultiTaskInstance> make_poisoned_batch(std::size_t auctions,
                                                            std::size_t users,
                                                            std::size_t tasks,
                                                            std::size_t poison_percent) {
  auto batch = make_round_batch(auctions, users, tasks);
  const std::size_t poisoned = auctions * poison_percent / 100;
  for (std::size_t k = 0; k < poisoned; ++k) {
    // Spread the poison across the batch so every strided chunk sees some.
    batch[k * auctions / std::max<std::size_t>(poisoned, 1)].users[0].cost = -1.0;
  }
  return batch;
}

void BM_IsolatedEngineFaultInjection(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const auto poison_percent = static_cast<std::size_t>(state.range(1));
  const auto batch = make_poisoned_batch(16, 60, 15, poison_percent);
  const auction::Engine engine(auction::EngineOptions{.workers = workers});
  const auction::MechanismConfig config{.alpha = 10.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_isolated(batch, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * batch.size()));
}
BENCHMARK(BM_IsolatedEngineFaultInjection)
    ->Args({8, 0})
    ->Args({8, 25})
    ->Args({8, 50})
    ->UseRealTime();

/// Times engine.run over `reps` repetitions and returns the best
/// auctions/sec (best-of to shed scheduler noise).
double measure_auctions_per_sec(const auction::Engine& engine,
                                const std::vector<auction::MultiTaskInstance>& batch,
                                const auction::MechanismConfig& config, std::size_t reps) {
  double best = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(engine.run(batch, config));
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    best = std::max(best, static_cast<double>(batch.size()) / elapsed.count());
  }
  return best;
}

/// Best-of-`reps` wall time of `fn` in milliseconds (best-of to shed
/// scheduler noise).
template <typename Fn>
double best_elapsed_ms(std::size_t reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, elapsed.count());
  }
  return best;
}

/// The multi-task scaling suite: the production path vs the src/reference/
/// oracle at n ∈ {50,100,200,400}, split into the winner-determination and
/// reward (critical-bid) phases plus the end-to-end mechanism. Phases are
/// timed serially so the split reflects algorithmic cost, not scheduling;
/// so are the end-to-end rows (reward_workers = 1 on the production side; the
/// reference mechanism is always serial). The committed record backs the
/// >= 5x end-to-end bar at n = 400.
std::string build_multi_task_scaling_record() {
  constexpr std::size_t kTasks = 15;
  constexpr std::size_t kReps = 3;
  constexpr std::uint64_t kSeed = 42;
  const auction::MechanismConfig serial_config{.alpha = 10.0, .reward_workers = 1};

  std::ostringstream json;
  json << "{\"bench\":\"multi_task_scaling\",\"tasks\":" << kTasks << ",\"reps\":" << kReps
       << ",\"seed\":" << kSeed
       << ",\"available_cores\":" << std::max(1u, std::thread::hardware_concurrency())
       << ",\"critical_bid_rule\":\"binary_search\",\"results\":[";
  const std::size_t sizes[] = {50, 100, 200, 400};
  for (std::size_t k = 0; k < std::size(sizes); ++k) {
    const std::size_t n = sizes[k];
    const auto instance = make_multi(n, kTasks, kSeed);
    using auction::multi_task::RewardOptions;
    using auction::multi_task::ViewOverlay;

    // Phase 1: winner determination. The lazy heap runs against a prebuilt
    // view, so the one-off CSR build is reported on its own; the reference
    // rescan reads the AoS instance directly.
    const double view_build_ms = best_elapsed_ms(kReps, [&] {
      benchmark::DoNotOptimize(auction::multi_task::MultiTaskView::from_instance(instance));
    });
    const auto view = auction::multi_task::MultiTaskView::from_instance(instance);
    const double wd_lazy_ms = best_elapsed_ms(kReps, [&] {
      benchmark::DoNotOptimize(auction::multi_task::solve_greedy(view, ViewOverlay::none()));
    });
    const double wd_reference_ms = best_elapsed_ms(kReps, [&] {
      benchmark::DoNotOptimize(reference::solve_greedy_scan(instance));
    });

    // Phase 2: per-winner critical bids, serial for a clean split.
    const auto winners =
        auction::multi_task::solve_greedy(view, ViewOverlay::none()).allocation.winners;
    const RewardOptions masked_options{.alpha = 10.0};
    const double reward_lazy_ms = best_elapsed_ms(kReps, [&] {
      for (auction::UserId winner : winners) {
        benchmark::DoNotOptimize(
            auction::multi_task::compute_reward(view, winner, masked_options));
      }
    });
    const double reward_reference_ms = best_elapsed_ms(kReps, [&] {
      for (auction::UserId winner : winners) {
        benchmark::DoNotOptimize(reference::compute_reward(
            instance, winner, masked_options.alpha, masked_options.rule));
      }
    });

    // End to end: the full production and reference mechanisms.
    const double mech_lazy_ms = best_elapsed_ms(kReps, [&] {
      benchmark::DoNotOptimize(auction::multi_task::run_mechanism(instance, serial_config));
    });
    const double mech_reference_ms = best_elapsed_ms(kReps, [&] {
      benchmark::DoNotOptimize(reference::run_multi_task_mechanism(instance, serial_config));
    });

    json << (k > 0 ? "," : "") << "{\"users\":" << n << ",\"winners\":" << winners.size()
         << ",\"view_build_ms\":" << view_build_ms
         << ",\"winner_determination\":{\"lazy_ms\":" << wd_lazy_ms
         << ",\"reference_ms\":" << wd_reference_ms
         << ",\"speedup\":" << (wd_lazy_ms > 0.0 ? wd_reference_ms / wd_lazy_ms : 0.0)
         << "},\"rewards\":{\"lazy_masked_ms\":" << reward_lazy_ms
         << ",\"reference_copied_ms\":" << reward_reference_ms
         << ",\"speedup\":" << (reward_lazy_ms > 0.0 ? reward_reference_ms / reward_lazy_ms : 0.0)
         << "},\"mechanism\":{\"lazy_ms\":" << mech_lazy_ms
         << ",\"reference_ms\":" << mech_reference_ms << ",\"end_to_end_speedup\":"
         << (mech_lazy_ms > 0.0 ? mech_reference_ms / mech_lazy_ms : 0.0) << "}}";
  }
  json << "]}";
  return json.str();
}

/// The single-task scaling suite: the critical-bid fast path
/// (ProbeStrategy::kDpReuse) vs the full-solve oracle at n ∈ {50,100,200,400}
/// on the bench_shapes single-task population. Phases: winner determination
/// (identical in both configurations — the strategies only differ in the
/// reward search), then the per-winner critical-bid phase timed serially so
/// the split reflects algorithmic cost, then the end-to-end mechanism with
/// serial rewards (reward_workers = 1) — the committed record backs the
/// >= 5x end-to-end bar at n = 400 on one core. Each row also records the
/// fast path's probe accounting (dp_reuse_hits / dp_reuse_fallbacks) from an
/// instrumented run, so a silent fallback storm — which would erase the
/// speedup while staying bit-identical — is visible in the committed JSON.
std::string build_single_task_scaling_record() {
  constexpr double kEpsilon = 0.5;
  constexpr std::uint64_t kSeed = 21;
  const std::size_t sizes[] = {50, 100, 200, 400};

  std::ostringstream json;
  json << "{\"bench\":\"single_task_scaling\",\"epsilon\":" << kEpsilon << ",\"seed\":" << kSeed
       << ",\"available_cores\":" << std::max(1u, std::thread::hardware_concurrency())
       << ",\"reward_workers\":1,\"results\":[";
  for (std::size_t k = 0; k < std::size(sizes); ++k) {
    const std::size_t n = sizes[k];
    // The oracle's reward phase is ~50 full FPTAS solves per winner: at
    // n = 400 a single repetition is already tens of seconds, so the larger
    // sizes run fewer repetitions (best-of still sheds warm-up noise).
    const std::size_t reps = n <= 100 ? 3 : (n <= 200 ? 2 : 1);
    const auto instance = make_single(n, kSeed);
    using auction::single_task::RewardOptions;

    const double wd_ms = best_elapsed_ms(reps, [&] {
      benchmark::DoNotOptimize(auction::single_task::solve_fptas(instance, kEpsilon));
    });
    const auto allocation = auction::single_task::solve_fptas(instance, kEpsilon);

    const RewardOptions fast_options{.alpha = 10.0,
                                     .epsilon = kEpsilon,
                                     .probe_strategy = auction::ProbeStrategy::kDpReuse};
    RewardOptions oracle_options = fast_options;
    oracle_options.probe_strategy = auction::ProbeStrategy::kFullSolve;
    const double reward_fast_ms = best_elapsed_ms(reps, [&] {
      for (auction::UserId winner : allocation.winners) {
        benchmark::DoNotOptimize(
            auction::single_task::compute_reward(instance, winner, fast_options));
      }
    });
    const double reward_oracle_ms = best_elapsed_ms(reps, [&] {
      for (auction::UserId winner : allocation.winners) {
        benchmark::DoNotOptimize(
            auction::single_task::compute_reward(instance, winner, oracle_options));
      }
    });

    auction::MechanismConfig fast_config{.alpha = 10.0, .single_task = {.epsilon = kEpsilon}};
    fast_config.reward_workers = 1;
    auction::MechanismConfig oracle_config = fast_config;
    oracle_config.single_task.probe_strategy = auction::ProbeStrategy::kFullSolve;
    const double mech_fast_ms = best_elapsed_ms(reps, [&] {
      benchmark::DoNotOptimize(auction::single_task::run_mechanism(instance, fast_config));
    });
    const double mech_oracle_ms = best_elapsed_ms(reps, [&] {
      benchmark::DoNotOptimize(auction::single_task::run_mechanism(instance, oracle_config));
    });

    // Probe accounting of the fast path, from one instrumented run.
    obs::PhaseCounters reward_counters;
    {
      const obs::ScopedTelemetry telemetry(true);
      const auto outcome = auction::single_task::run_mechanism(instance, fast_config);
      reward_counters = outcome.telemetry.rewards;
    }

    json << (k > 0 ? "," : "") << "{\"users\":" << n
         << ",\"winners\":" << allocation.winners.size() << ",\"reps\":" << reps
         << ",\"winner_determination_ms\":" << wd_ms
         << ",\"rewards\":{\"dp_reuse_ms\":" << reward_fast_ms
         << ",\"full_solve_ms\":" << reward_oracle_ms
         << ",\"speedup\":" << (reward_fast_ms > 0.0 ? reward_oracle_ms / reward_fast_ms : 0.0)
         << ",\"probes\":" << reward_counters.probes
         << ",\"dp_reuse_hits\":" << reward_counters.dp_reuse_hits
         << ",\"dp_reuse_fallbacks\":" << reward_counters.dp_reuse_fallbacks
         << "},\"mechanism\":{\"dp_reuse_ms\":" << mech_fast_ms
         << ",\"full_solve_ms\":" << mech_oracle_ms << ",\"end_to_end_speedup\":"
         << (mech_fast_ms > 0.0 ? mech_oracle_ms / mech_fast_ms : 0.0) << "}}";
  }
  json << "]}";
  return json.str();
}

/// Campaign-round throughput across a worker sweep, plus the hardware
/// context needed to interpret the numbers. The sweep is clamped to the
/// available cores — a multi-worker row measured on fewer physical cores
/// records contention, not speedup — and the speedup ratio is only emitted
/// when the host actually has more than one core (otherwise the record says
/// so instead of committing a meaningless ~1.0).
std::string build_batched_throughput_record() {
  constexpr std::size_t kAuctions = 16;
  constexpr std::size_t kUsers = 60;
  constexpr std::size_t kTasks = 15;
  constexpr std::size_t kReps = 3;
  const auto batch = make_round_batch(kAuctions, kUsers, kTasks);
  const auction::MechanismConfig config{.alpha = 10.0};
  const std::size_t cores = std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::vector<std::size_t> worker_counts;
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const std::size_t clamped = std::min(workers, cores);
    if (worker_counts.empty() || worker_counts.back() != clamped) {
      worker_counts.push_back(clamped);
    }
  }

  std::ostringstream json;
  json << "{\"bench\":\"batched_engine_throughput\",\"auctions\":" << kAuctions
       << ",\"users_per_auction\":" << kUsers << ",\"tasks_per_auction\":" << kTasks
       << ",\"available_cores\":" << cores << ",\"results\":[";
  double workers1 = 0.0;
  double workers_max = 0.0;
  for (std::size_t k = 0; k < worker_counts.size(); ++k) {
    const std::size_t workers = worker_counts[k];
    const auction::Engine engine(auction::EngineOptions{.workers = workers});
    const double throughput = measure_auctions_per_sec(engine, batch, config, kReps);
    if (workers == 1) {
      workers1 = throughput;
    }
    workers_max = throughput;
    json << (k > 0 ? "," : "") << "{\"workers\":" << workers
         << ",\"auctions_per_sec\":" << throughput << "}";
  }
  json << "]";
  if (cores > 1 && worker_counts.size() > 1) {
    json << ",\"speedup_" << worker_counts.back() << "_vs_1\":"
         << (workers1 > 0.0 ? workers_max / workers1 : 0.0);
  } else {
    json << ",\"speedup_note\":\"single-core host: worker sweep clamped to 1, "
            "no parallel speedup is measurable\"";
  }
  json << "}";
  return json.str();
}

/// Times engine.run_isolated over `reps` repetitions, returning the best
/// auctions/sec plus per-status slot counts from the (deterministic) result.
struct IsolatedMeasurement {
  double auctions_per_sec = 0.0;
  std::size_t ok = 0;
  std::size_t degraded = 0;
  std::size_t timed_out = 0;
  std::size_t failed = 0;
};

IsolatedMeasurement measure_isolated(const auction::Engine& engine,
                                     const std::vector<auction::MultiTaskInstance>& batch,
                                     const auction::MechanismConfig& config, std::size_t reps) {
  IsolatedMeasurement measurement;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const auto slots = engine.run_isolated(batch, config);
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    measurement.auctions_per_sec = std::max(
        measurement.auctions_per_sec, static_cast<double>(batch.size()) / elapsed.count());
    if (rep == 0) {
      for (const auto& slot : slots) {
        switch (slot.status) {
          case auction::AuctionStatus::kOk: ++measurement.ok; break;
          case auction::AuctionStatus::kDegraded: ++measurement.degraded; break;
          case auction::AuctionStatus::kTimedOut: ++measurement.timed_out; break;
          case auction::AuctionStatus::kFailed: ++measurement.failed; break;
        }
      }
    }
  }
  return measurement;
}

/// Fault-injection throughput: the cost of fault isolation under increasing
/// poison rates (invalid instances -> kFailed slots) and under an exhausted
/// wall-clock budget (every slot kTimedOut). The interesting comparisons:
/// poison 0% vs the plain batched record (isolation overhead on healthy
/// batches should be noise), and the poisoned rows' throughput rising as
/// failed slots short-circuit.
std::string build_fault_injection_record() {
  constexpr std::size_t kAuctions = 16;
  constexpr std::size_t kUsers = 60;
  constexpr std::size_t kTasks = 15;
  constexpr std::size_t kWorkers = 8;
  constexpr std::size_t kReps = 3;
  const auction::Engine engine(auction::EngineOptions{.workers = kWorkers});
  const auction::MechanismConfig config{.alpha = 10.0};

  std::ostringstream json;
  json << "{\"bench\":\"fault_injection_throughput\",\"auctions\":" << kAuctions
       << ",\"users_per_auction\":" << kUsers << ",\"tasks_per_auction\":" << kTasks
       << ",\"workers\":" << kWorkers
       << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
       << ",\"results\":[";
  const std::size_t poison_percents[] = {0, 25, 50};
  for (std::size_t k = 0; k < std::size(poison_percents); ++k) {
    const std::size_t percent = poison_percents[k];
    const auto batch = make_poisoned_batch(kAuctions, kUsers, kTasks, percent);
    const auto m = measure_isolated(engine, batch, config, kReps);
    json << (k > 0 ? "," : "") << "{\"case\":\"poison_" << percent << "pct\""
         << ",\"auctions_per_sec\":" << m.auctions_per_sec << ",\"ok\":" << m.ok
         << ",\"degraded\":" << m.degraded << ",\"timed_out\":" << m.timed_out
         << ",\"failed\":" << m.failed << "}";
  }
  // Exhausted budget: every slot trips the cooperative deadline immediately.
  auction::MechanismConfig starved = config;
  starved.time_budget_seconds = 1e-9;
  starved.degrade_on_timeout = false;
  const auto batch = make_round_batch(kAuctions, kUsers, kTasks);
  const auto m = measure_isolated(engine, batch, starved, kReps);
  json << ",{\"case\":\"budget_exhausted\",\"auctions_per_sec\":" << m.auctions_per_sec
       << ",\"ok\":" << m.ok << ",\"degraded\":" << m.degraded
       << ",\"timed_out\":" << m.timed_out << ",\"failed\":" << m.failed << "}";
  json << "]}";
  return json.str();
}

/// Telemetry record: one instrumented campaign-round batch (8 auctions) with
/// mcs::obs enabled — the summed per-mechanism phase records plus the merged
/// process-wide registry (engine status tallies, pool utilization). Shows
/// what the JSON sink exports and keeps an eye on the counter magnitudes
/// (e.g. probes per winner) across commits; timings here are context, not a
/// gate — the overhead gate lives in tests/perf_smoke_test.cpp.
std::string build_telemetry_record() {
  constexpr std::size_t kAuctions = 8;
  constexpr std::size_t kUsers = 60;
  constexpr std::size_t kTasks = 15;
  obs::Registry::global().reset();
  const obs::ScopedTelemetry telemetry(true);
  const auto batch = make_round_batch(kAuctions, kUsers, kTasks);
  const auction::Engine engine;
  const auction::MechanismConfig config{.alpha = 10.0};
  const auto slots = engine.run_isolated(batch, config);

  obs::MechanismTelemetry totals;
  for (const auto& slot : slots) {
    totals += slot.outcome.telemetry;
  }
  std::ostringstream json;
  json << "{\"bench\":\"telemetry\",\"auctions\":" << kAuctions
       << ",\"users_per_auction\":" << kUsers << ",\"tasks_per_auction\":" << kTasks
       << ",\"mechanism_totals\":" << obs::to_json(totals)
       << ",\"registry\":" << obs::Registry::global().snapshot().to_json() << "}";
  return json.str();
}

/// Emits every JSON record to stdout and, when MCS_BENCH_JSON names a file,
/// writes them there too (one object per line).
void emit_json_records() {
  const std::string records[] = {build_multi_task_scaling_record(),
                                 build_single_task_scaling_record(),
                                 build_batched_throughput_record(),
                                 build_fault_injection_record(),
                                 build_telemetry_record()};
  for (const auto& record : records) {
    std::cout << record << "\n";
  }
  if (const char* path = std::getenv("MCS_BENCH_JSON"); path != nullptr && *path != '\0') {
    std::ofstream out(path);
    for (const auto& record : records) {
      out << record << "\n";
    }
    std::cout << "[json written to " << path << "]\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_json_records();
  return 0;
}
